"""Engine tests: thresholded enumeration vs the brute-force oracle, schedule
runs (through the CLI's schedule loop), posterior estimates, and deep
networks whose joints underflow."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from nobn import (
    Assignment,
    EpsilonSchedule,
    Network,
    NetworkError,
    NodeSpec,
    SplitMix64,
    build_subproblem,
    derive_seed,
    exact_inference,
    format_accepted,
    instantiations_above,
    iter_extensions,
    node_factor,
    parse_network,
    prune_barren,
    top_epsilon,
)
import nobn.cli
from nobn.cli import _schedule_rows
from nobn.engine import DEFAULT_SCHEDULE
from conftest import (
    pruned_with_evidence,
    random_evidence,
    small_random_net,
)


def _accepted_keys(result):
    return {a.values for a, _ in result.accepted}


def _oracle_keys(net, ev, eps):
    return {a.values: j for a, j in instantiations_above(net, ev, eps)}


class TestTopEpsilonChain3:
    def test_single_explanation_at_point_one(self, chain3, chain3_ev_c):
        res = top_epsilon(chain3, chain3_ev_c, 0.1, keep_accepted=True)
        assert res.accepted_count == 1
        assert res.mass_accumulated == pytest.approx(0.14842, abs=1e-12)
        assert _accepted_keys(res) == {(True, True, True)}
        post = res.posteriors
        assert post[0] == 1.0 and post[1] == 1.0 and post[2] == 1.0

    def test_zero_epsilon_is_gold_standard(self, chain3, chain3_ev_c):
        res = top_epsilon(chain3, chain3_ev_c, 0.0)
        exact = exact_inference(chain3, chain3_ev_c)
        assert res.accepted_count == 4
        assert res.mass_accumulated == pytest.approx(
            exact.evidence_probability, abs=1e-12
        )
        for i in range(3):
            assert res.posteriors[i] == pytest.approx(exact.posteriors[i], abs=1e-12)

    def test_no_plausible_explanation(self, chain3, chain3_ev_c):
        res = top_epsilon(chain3, chain3_ev_c, 0.5, keep_accepted=True)
        assert res.accepted_count == 0
        assert res.mass_accumulated == 0.0
        assert res.posteriors is None
        assert res.accepted == []

    def test_states_explored_counts_popped_states(self, chain3, chain3_ev_c):
        res = top_epsilon(chain3, chain3_ev_c, 0.1)
        # initial state, B=present, A=present
        assert res.states_explored == 3
        assert res.states_explored >= res.accepted_count


class TestOracleEquivalence:
    def test_random_networks_random_evidence(self):
        r = SplitMix64(derive_seed(0, 0x5EED))
        checked = 0
        for seed in range(40):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            for _ in range(3):
                eps = 10.0 ** (-(1 + 11 * r.random()))
                res = top_epsilon(pruned, pev, eps, keep_accepted=True)
                oracle = _oracle_keys(pruned, pev, eps)
                assert _accepted_keys(res) == set(oracle)
                for a, j in res.accepted:
                    assert j == pytest.approx(oracle[a.values], rel=1e-12)
                checked += 1
        assert checked >= 100

    def test_known_finding_at_frontier_level(self):
        # C's factor is fully determined by root evidence while D still needs
        # its parent; the threshold must not recount C's factor
        net = parse_network(
            "node A prior 0.3\nnode B prior 0.2\n"
            "node C leak 0.1 parents A:0.6\nnode D leak 0.1 parents B:0.7\n"
        )
        ev = ((0, True), (2, True), (3, True))
        for eps in (0.2, 0.15, 0.1, 0.05, 0.02, 0.008, 0.0):
            res = top_epsilon(net, ev, eps, keep_accepted=True)
            assert _accepted_keys(res) == set(_oracle_keys(net, ev, eps))

    def test_evidence_on_every_level(self, chain3):
        ev = ((0, False), (1, True), (2, True))
        for eps in (0.1, 0.05, 0.0):
            res = top_epsilon(chain3, ev, eps, keep_accepted=True)
            assert _accepted_keys(res) == set(_oracle_keys(chain3, ev, eps))

    def test_retained_query_nodes_outside_evidence_ancestry(self):
        # D is barren for the evidence but kept by the query; the engine must
        # still enumerate it to complete the instantiations
        net = parse_network(
            "node A prior 0.2\n"
            "node B leak 0.1 parents A:0.8\n"
            "node C leak 0.05 parents B:0.9\n"
            "node D leak 0.3 parents A:0.4\n"
        )
        ev = ((2, True),)
        pruned = prune_barren(net, ev, query={3})
        assert len(pruned) == 4
        for eps in (0.1, 0.02, 0.001, 0.0):
            res = top_epsilon(pruned, ev, eps, keep_accepted=True)
            assert _accepted_keys(res) == set(_oracle_keys(pruned, ev, eps))

    def test_impossible_evidence_flagged_not_raised(self):
        net = parse_network("node A prior 0\nnode B leak 0 parents A:0.5")
        res = top_epsilon(net, [(0, True), (1, True)], 0.1)
        assert res.mass_accumulated == 0.0
        assert res.posteriors is None

    def test_no_evidence_enumerates_prior_mass(self, chain3):
        res = top_epsilon(chain3, [], 0.0, keep_accepted=True)
        assert res.accepted_count == 8
        assert res.mass_accumulated == pytest.approx(1.0, abs=1e-12)
        for eps in (0.3, 0.05):
            res = top_epsilon(chain3, [], eps, keep_accepted=True)
            assert _accepted_keys(res) == set(_oracle_keys(chain3, [], eps))


class TestMonotonicity:
    def test_nested_accepted_sets_and_monotone_mass(self):
        for seed in range(8):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            eps_ladder = [10.0 ** (-k) for k in range(1, 10, 2)]  # decreasing
            prev_keys = None
            prev_mass = -1.0
            prev_count = -1
            for eps in eps_ladder:
                res = top_epsilon(pruned, pev, eps, keep_accepted=True)
                keys = _accepted_keys(res)
                if prev_keys is not None:
                    assert prev_keys <= keys
                    assert res.mass_accumulated >= prev_mass
                    assert res.accepted_count >= prev_count
                prev_keys, prev_mass, prev_count = (
                    keys,
                    res.mass_accumulated,
                    res.accepted_count,
                )

    def test_score_bounded_by_mass(self):
        for seed in range(8):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            res = top_epsilon(pruned, pev, 1e-4)
            for s in res.score:
                assert 0.0 <= s <= res.mass_accumulated * (1 + 1e-12)


class TestNecessaryConditionChain:
    def test_every_applied_extension_cleared_its_threshold(self):
        seen = []

        def hook(ext, eps_new):
            seen.append((ext.new_factor_product, eps_new))
            assert ext.new_factor_product >= eps_new

        for seed in range(6):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            top_epsilon(pruned, pev, 1e-6, on_extension=hook)
        assert len(seen) > 0


class TestEvidencePosteriors:
    def test_exact_indicator_values(self):
        for seed in range(10):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            res = top_epsilon(pruned, pev, 1e-8)
            if res.posteriors is None:
                continue
            for nid, state in pev:
                assert res.posteriors[nid] == (1.0 if state else 0.0)


class TestComplete:
    def test_chain3(self, chain3):
        a = Assignment.from_evidence(chain3, [(0, True), (1, False), (2, True)])
        assert a.unassigned_count == 0
        b = Assignment.from_evidence(chain3, [(2, True)])
        assert b.unassigned_count > 0

    def test_empty_network_vacuously_complete(self):
        net = parse_network("")
        assert Assignment(net).unassigned_count == 0
        res = top_epsilon(net, [], 0.5)
        assert res.mass_accumulated == 1.0
        assert res.accepted_count == 1


def _run_schedule(net, evidence, schedule):
    """The results of the CLI's schedule loop, one per threshold."""
    return [res for res, _ in _schedule_rows("case", net, evidence, schedule.values, None)]


class TestRunSchedule:
    def test_chain3_two_step_schedule(self, chain3, chain3_ev_c):
        trace = _run_schedule(chain3, chain3_ev_c, EpsilonSchedule((1e-2, 1e-4)))
        masses = [res.mass_accumulated for res in trace]
        # 0.0018 misses the first threshold, everything clears the second
        assert masses[0] == pytest.approx(0.25682, abs=1e-12)
        assert masses[1] == pytest.approx(0.25862, abs=1e-12)
        counts = [res.accepted_count for res in trace]
        assert counts == [3, 4]
        assert [res.epsilon_target for res in trace] == [1e-2, 1e-4]

    def test_empty_schedule(self, chain3, chain3_ev_c):
        assert _run_schedule(chain3, chain3_ev_c, EpsilonSchedule(())) == []

    def test_mass_nondecreasing_down_rows(self):
        for seed in range(5):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            trace = _run_schedule(pruned, pev, DEFAULT_SCHEDULE)
            masses = [res.mass_accumulated for res in trace]
            counts = [res.accepted_count for res in trace]
            states = [res.states_explored for res in trace]
            assert masses == sorted(masses)
            assert counts == sorted(counts)
            assert states == sorted(states)

    def test_schedule_validation(self):
        with pytest.raises(NetworkError, match="decreasing"):
            EpsilonSchedule((1e-4, 1e-2))
        with pytest.raises(NetworkError, match="finite"):
            EpsilonSchedule((math.inf,))
        assert len(DEFAULT_SCHEDULE) == 10
        assert DEFAULT_SCHEDULE.values[0] == 1e-2
        assert DEFAULT_SCHEDULE.values[-1] == 1e-20

    def test_each_search_goes_through_the_cli_global(self, chain3, chain3_ev_c, monkeypatch):
        # a benchmark times each search by swapping nobn.cli.top_epsilon
        seen = []

        def timed(net, evidence, eps, **kwargs):
            seen.append(eps)
            return top_epsilon(net, evidence, eps, **kwargs)

        monkeypatch.setattr(nobn.cli, "top_epsilon", timed)
        assert len(_run_schedule(chain3, chain3_ev_c, EpsilonSchedule((1e-2, 1e-4)))) == 2
        assert seen == [1e-2, 1e-4]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_every_threshold_entry_rejects_nan_inf_and_negatives(bad, chain3, chain3_ev_c):
    sub = build_subproblem(chain3, Assignment.from_evidence(chain3, chain3_ev_c), 2)
    for call in (
        lambda: EpsilonSchedule((1e-2, bad)),
        lambda: top_epsilon(chain3, chain3_ev_c, bad),
        lambda: instantiations_above(chain3, chain3_ev_c, bad),
        lambda: iter_extensions(chain3, sub, bad),
    ):
        with pytest.raises(NetworkError, match="finite value >= 0"):
            call()


def _deep_chain(
    n: int, q: float = 0.9, leak: float = 0.05, prior: float = 0.5
) -> Network:
    specs = [NodeSpec("n0", prior=prior)]
    for i in range(1, n):
        specs.append(NodeSpec(f"n{i}", leak=leak, links=((i - 1, q),)))
    return Network(specs)


class TestLogSpaceRegime:
    def test_deep_chain_thresholds_match_log_oracle(self):
        # 270 alternating states: the joint lands in the subnormal band where
        # linear products lose precision; decisions must follow the log sum
        from nobn import node_factor

        net = _deep_chain(270)
        values = [i % 2 == 0 for i in range(270)]
        ev = tuple((i, values[i]) for i in range(270))
        a = Assignment.from_evidence(net, ev)

        log_joint = sum(
            math.log(node_factor(net, i, values)) for i in range(270)
        )
        assert log_joint < math.log(1e-308)  # linear underflow territory

        eps_below = math.exp(log_joint - 1.0)
        eps_above = math.exp(log_joint + 1.0)
        if eps_below > 0.0:
            res = top_epsilon(net, ev, eps_below)
            assert res.accepted_count == 1
        res = top_epsilon(net, ev, eps_above)
        assert res.accepted_count == 0

    def test_fully_underflowed_joint_only_accepted_at_zero(self):
        net = _deep_chain(900)
        values = [i % 2 == 0 for i in range(900)]
        ev = tuple((i, values[i]) for i in range(900))
        res = top_epsilon(net, ev, 0.0)
        assert res.accepted_count == 1
        assert res.mass_accumulated == 0.0  # true mass is below double range
        res = top_epsilon(net, ev, 1e-300)
        assert res.accepted_count == 0

    def test_partial_deep_chain_search(self):
        # leave a few nodes free so the engine actually searches in log mode
        net = _deep_chain(250, q=0.5, leak=0.01)
        values = [i % 3 == 0 for i in range(250)]
        ev = tuple((i, values[i]) for i in range(250) if i >= 4)
        res0 = top_epsilon(net, ev, 0.0, keep_accepted=True)
        assert res0.accepted_count == 16
        # thresholds split the 16 completions exactly as the log oracle says
        from nobn import node_factor

        joints = []
        for a, _ in res0.accepted:
            vals = a.raw_values()
            joints.append(
                sum(math.log(node_factor(net, i, vals)) for i in range(250))
            )
        joints.sort()
        mid = math.exp(joints[len(joints) // 2])
        res = top_epsilon(net, ev, mid)
        expected = sum(1 for lj in joints if lj >= math.log(mid) - 1e-9)
        loose = sum(1 for lj in joints if lj >= math.log(mid) + 1e-9)
        assert loose <= res.accepted_count <= expected


class TestScaledProduct:
    def test_subnormal_joint_is_compared_exactly(self):
        # 150 nodes; the joint is about 93.02 units of 2**-1074, where a plain
        # left-to-right product of the factors drifts up to 96 units
        net = _deep_chain(150, q=0.99, leak=0.002, prior=3.67e-5)
        values = [i < 136 and i % 2 == 0 for i in range(150)]
        ev = tuple(enumerate(values))
        factors = [node_factor(net, i, values) for i in range(150)]
        exact = math.prod(map(Fraction, factors))
        eps = math.ldexp(94, -1074)
        assert math.ldexp(93, -1074) <= exact < eps <= math.prod(factors)
        assert top_epsilon(net, ev, eps).accepted_count == 0
        assert top_epsilon(net, ev, math.ldexp(93, -1074)).accepted_count == 1

    def test_posteriors_defined_when_joints_underflow(self):
        # every joint is near 1e-450; nodes 0-3 are free, and given node 4
        # the rest of the chain cannot move them, so their posteriors are
        # those of the 5-node chain ending at node 4
        values = [i % 2 == 0 for i in range(150)]
        deep = top_epsilon(
            _deep_chain(150, q=0.999, leak=0.001),
            [(i, values[i]) for i in range(4, 150)],
            0.0,
        )
        short = top_epsilon(_deep_chain(5, q=0.999, leak=0.001), [(4, values[4])], 0.0)
        assert deep.accepted_count == 16
        assert deep.mass_accumulated == 0.0  # below double range
        assert deep.posteriors[:5] == pytest.approx(short.posteriors, abs=1e-12)
        assert deep.posteriors[5:] == tuple(float(v) for v in values[5:])


class TestAcceptedDump:
    def test_format_and_order(self, chain3, chain3_ev_c):
        res = top_epsilon(chain3, chain3_ev_c, 0.01, keep_accepted=True)
        lines = format_accepted(chain3, res.accepted)
        assert len(lines) == 3
        assert lines[0].endswith("A=p B=p C=p")
        joints = [float(line.split()[0]) for line in lines]
        assert joints == sorted(joints, reverse=True)
        assert joints[0] == pytest.approx(0.14842, abs=1e-12)

    def test_deterministic_across_runs(self, chain3, chain3_ev_c):
        r1 = top_epsilon(chain3, chain3_ev_c, 0.0, keep_accepted=True)
        r2 = top_epsilon(chain3, chain3_ev_c, 0.0, keep_accepted=True)
        assert format_accepted(chain3, r1.accepted) == format_accepted(
            chain3, r2.accepted
        )
        assert r1.states_explored == r2.states_explored
