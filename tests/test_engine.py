"""Engine tests: thresholded enumeration vs the brute-force oracle, schedule
runs (through the CLI's schedule loop), posterior estimates, and deep
networks whose joints underflow."""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import pytest

from nobn import (
    Assignment,
    EpsilonSchedule,
    Extension,
    Network,
    NetworkError,
    NodeSpec,
    SplitMix64,
    derive_seed,
    exact_inference,
    format_accepted,
    instantiations_above,
    parse_network,
    prune_barren,
    top_epsilon,
)
import nobn.cli
import nobn.engine
import nobn.epsilonml
import reference
from nobn.cli import _schedule_rows
from nobn.engine import DEFAULT_SCHEDULE
from nobn.epsilonml import build_subproblem, iter_extensions
from conftest import (
    bn3_case,
    pruned_with_evidence,
    random_evidence,
    small_random_net,
)


def _accepted_keys(result):
    return {values for values, _ in result.accepted}


def _oracle_keys(net, ev, eps):
    return dict(instantiations_above(net, ev, eps))


def _applied_extensions(monkeypatch, epsilon_target):
    """Spy on the searches and the assignments of ``top_epsilon`` runs at
    ``epsilon_target``.  The returned list receives, for every extension a
    run applies, the extension, the rescaled threshold of the state it
    extends, and whether it came straight from a search (or from the context
    memo).  An extension is recognised by the identity of the parent-state
    tuple the engine passes to ``assign``."""
    applied = []
    searched = {}
    last = None
    search = nobn.engine.iter_level_extensions
    assign = Assignment.assign

    def spied_search(*args):
        nonlocal last
        for ext in search(*args):
            searched[id(ext.parent_states)] = last = ext
            yield ext

    def spied_assign(a, pairs):
        nonlocal last
        ext = searched.get(id(pairs))
        if ext is not None:
            applied.append((ext, a.rescaled_threshold(epsilon_target), ext is last))
            last = None
        return assign(a, pairs)

    monkeypatch.setattr(nobn.engine, "iter_level_extensions", spied_search)
    monkeypatch.setattr(Assignment, "assign", spied_assign)
    return applied


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
                for values, j in res.accepted:
                    assert j == pytest.approx(oracle[values], rel=1e-12)
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
        # every applied state is counted, a forced child that misses the
        # target included
        for eps, states in ((0.1, 5), (0.02, 12), (0.001, 15), (0.0, 15)):
            res = top_epsilon(pruned, ev, eps, keep_accepted=True)
            assert _accepted_keys(res) == set(_oracle_keys(pruned, ev, eps))
            assert res.states_explored == states

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
    def test_every_applied_extension_cleared_its_threshold(self, monkeypatch):
        applied = _applied_extensions(monkeypatch, 1e-6)
        for seed in range(6):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            top_epsilon(pruned, pev, 1e-6)
        assert applied
        for ext, eps_new, _ in applied:
            assert ext.new_factor_product >= eps_new


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
        net = _deep_chain(270)
        values = [i % 2 == 0 for i in range(270)]
        ev = tuple((i, values[i]) for i in range(270))
        a = Assignment.from_evidence(net, ev)

        log_joint = sum(
            math.log(reference.factor(net, i, values)) for i in range(270)
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
        joints = []
        for vals, _ in res0.accepted:
            joints.append(
                sum(math.log(reference.factor(net, i, vals)) for i in range(250))
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
        factors = [reference.factor(net, i, values) for i in range(150)]
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

    def test_batch_crossing_lifts_matches_single_assigns(self):
        # the same 150-node chain, assigned in one batch: its product falls
        # through 2**-512 in the middle of the batch, and the lift after each
        # node keeps it equal, bit for bit, to one call per node
        net = _deep_chain(150, q=0.99, leak=0.002, prior=3.67e-5)
        pairs = list(enumerate(i < 136 and i % 2 == 0 for i in range(150)))
        # parents first, and children before their parents
        for order in (pairs, pairs[1::2] + pairs[::2]):
            batch = Assignment(net)
            token = batch.assign(order)
            single = Assignment(net)
            for pair in order:
                single.assign([pair])
            assert batch.known_exponent == single.known_exponent < -512
            assert batch.known_factor_product.hex() == single.known_factor_product.hex()
            batch.undo(token)
            assert (batch.values, batch.unassigned_count, batch.frontier_level()) == (
                (None,) * 150,
                150,
                None,
            )
            assert (batch.known_factor_product, batch.known_exponent) == (1.0, 0)


def _fingerprint(res):
    posteriors = None if res.posteriors is None else [p.hex() for p in res.posteriors]
    return (res.accepted_count, res.states_explored, res.mass_accumulated.hex(), posteriors)


def _memo_problems(population):
    if population == "bn3":
        # deep enough that the default settings reuse contexts the others
        # search again: 163 searches against 167-172
        return [(*bn3_case(), 1e-15)]
    problems = []
    for seed in range(40):
        net = small_random_net(seed, max_total=20)
        pruned, evidence = pruned_with_evidence(net, random_evidence(net, seed))
        problems += [(pruned, evidence, eps) for eps in (0.0, 1e-3, 1e-6)]
    return problems


class TestContextMemo:
    @pytest.mark.parametrize("population", ["random", "bn3"])
    def test_eviction_changes_no_result(self, population, monkeypatch):
        # caps of 1 and 2 evict contexts and drop longer extension lists all
        # the time, and a trial of one lookup gives up every level's memo at
        # its first miss; every result must still equal the default
        # settings', bit for bit
        problems = _memo_problems(population)
        searches = 0
        search = nobn.engine.iter_level_extensions

        def counted(*args):
            nonlocal searches
            searches += 1
            return search(*args)

        monkeypatch.setattr(nobn.engine, "iter_level_extensions", counted)
        want = [_fingerprint(top_epsilon(*problem)) for problem in problems]
        default_searches = searches
        for settings in (
            {"_MEMO_CAP": 1},
            {"_MEMO_CAP": 2},
            {"_MEMO_TRIAL": 1},
        ):
            with monkeypatch.context() as patch:
                for name, value in settings.items():
                    patch.setattr(nobn.engine, name, value)
                searches = 0
                assert [_fingerprint(top_epsilon(*problem)) for problem in problems] == want
            # these settings searched again what the default ones reused
            assert searches > default_searches

    def test_recurring_context_keeps_an_extension_tied_with_its_threshold(
        self, monkeypatch
    ):
        # Dyadic parameters make every product and threshold exact.  The
        # level-1 context (M present) is searched under (A, B) = (p, p), then
        # comes back under (p, a) and (a, p) at threshold 0.25, exactly the
        # product of its extension R absent, which must be kept.
        net = parse_network(
            "node R prior 0.5\n"
            "node M leak 0.5 parents R:0.5\n"
            "node A leak 0.5 parents M:0.5\n"
            "node B leak 0.5 parents M:0.5\n"
            "node E leak 0.5 parents A:0.5 B:0.5\n"
        )
        evidence = [(4, True)]
        eps = 0.03515625  # the joint of R=a M=p A=p B=a E=p
        searched_levels = []
        search = nobn.engine.iter_level_extensions

        def counted(n, a, level, epsilon):
            searched_levels.append(level)
            return search(n, a, level, epsilon)

        monkeypatch.setattr(nobn.engine, "iter_level_extensions", counted)
        applied = _applied_extensions(monkeypatch, eps)
        res = top_epsilon(net, evidence, eps, keep_accepted=True)
        assert searched_levels.count(1) == 2  # one search per state of M
        ties = [ext for ext, eps_new, _ in applied if ext.new_factor_product == eps_new]
        assert [ext.parent_states for ext in ties] == [((0, False),)] * 2
        # the search of M present yields R absent and applies it; the memo
        # keeps it and serves it at both ties
        assert ties[0] is ties[1]
        assert [from_search for ext, _, from_search in applied if ext is ties[0]] == [
            True, False, False,
        ]
        assert dict(res.accepted) == dict(instantiations_above(net, evidence, eps))

    def test_recurring_context_filters_by_the_charged_product(self, monkeypatch):
        # R -> M -> N -> A, B -> E with E observed.  The level-2 context (N
        # present) comes back under other states of A and B at a higher
        # threshold than it was searched at.  Its extension M present clears
        # that threshold, but not once charged for M's outside parent R, so
        # the kept list must drop it, as a search would.
        net = parse_network(
            "node R prior 0.2\n"
            "node M leak 0.01 parents R:0.99\n"
            "node N leak 0.001 parents M:0.8\n"
            "node A leak 0.1 parents N:0.99\n"
            "node B leak 0.01 parents N:0.9\n"
            "node E leak 0.01 parents A:0.8 B:0.99\n"
        )
        dropped = []
        clears = Extension.clears

        def spied(ext, epsilon):
            kept = clears(ext, epsilon)
            if not kept and ext.new_factor_product >= epsilon:
                dropped.append(ext.parent_states)
            return kept

        monkeypatch.setattr(Extension, "clears", spied)
        res = top_epsilon(net, [(5, True)], 1e-3)
        assert dropped and all(states == ((1, True),) for states in dropped)
        # a trial of one lookup gives every level's memo up at its first miss
        monkeypatch.setattr(nobn.engine, "_MEMO_TRIAL", 1)
        searched = top_epsilon(net, [(5, True)], 1e-3)
        assert _fingerprint(res) == _fingerprint(searched)
        assert (res.states_explored, res.accepted_count) == (26, 8)


class TestSubproblemPlans:
    def test_kept_plans_change_no_result(self):
        # The level search keeps each level's subproblem plan, keyed by the
        # assigned nodes, for the network searched last.  Two networks, each
        # with three evidence sets: the case's, the same nodes with one
        # finding flipped (the plans match, the states differ), and the
        # case's without its first finding (other plans at some levels).
        # Searched in an interleaved order, they must give every result of
        # a run that starts with no plan kept, bit for bit.
        problems = []
        for index in (0, 1):
            net, evidence = bn3_case(26, index)
            flipped = ((evidence[0][0], not evidence[0][1]),) + evidence[1:]
            problems += [(net, e) for e in (evidence, flipped, evidence[1:])]

        def run(problem):
            res = top_epsilon(*problem, 1e-14, keep_accepted=True)
            accepted = sorted((values, joint.hex()) for values, joint in res.accepted)
            return _fingerprint(res), accepted

        want = []
        for problem in problems:
            nobn.epsilonml._plans = (None, [])
            want.append(run(problem))
        assert len({fingerprint[2] for fingerprint, _ in want}) == len(problems)
        for i in (0, 1, 2, 0, 3, 1, 4, 2, 5, 5, 3, 0, 2):
            assert run(problems[i]) == want[i]

    def test_plans_go_with_their_network(self):
        net, evidence = bn3_case(26, 0)
        top_epsilon(net, evidence, 1e-6)
        assert nobn.epsilonml._plans[0]() is net
        del net
        assert nobn.epsilonml._plans == (None, [])

    def test_threads_sharing_the_kept_plans_get_the_same_results(self):
        # four threads search two networks and two evidence sets over the
        # same nodes at once, with thread switches every microsecond, so
        # each replaces the kept plans under the others
        problems = []
        for index in (0, 1):
            net, evidence = bn3_case(26, index)
            flipped = ((evidence[0][0], not evidence[0][1]),) + evidence[1:]
            problems += [(net, evidence, 1e-12), (net, flipped, 1e-12)]
        want = [_fingerprint(top_epsilon(*problem)) for problem in problems]
        got = [[] for _ in problems]

        def worker(i):
            for _ in range(3):
                got[i].append(_fingerprint(top_epsilon(*problems[i])))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(problems))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[fingerprint] * 3 for fingerprint in want]


class TestLongChain:
    def test_outside_ancestry_longer_than_the_recursion_limit(self):
        # At each level the free parent's explanation prices its whole
        # outside ancestry, here up to 1,198 nodes; the one completion above
        # 1e-3 is every node present
        net = _deep_chain(1200, q=0.9999, leak=0.0001)
        res = top_epsilon(net, [(1199, True)], 1e-3, keep_accepted=True)
        assert (res.states_explored, res.accepted_count) == (1200, 1)
        [(values, joint)] = res.accepted
        assert all(values)
        assert joint == pytest.approx(reference.joint(net, values), rel=1e-12)


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
