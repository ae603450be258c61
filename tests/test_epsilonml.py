"""Branching-search tests: subproblem construction, completeness vs a brute
oracle, bound admissibility, ordering and laziness."""

from __future__ import annotations

import inspect
import itertools

import pytest

from nobn import (
    Assignment,
    NetShape,
    NetworkError,
    NoFindingsError,
    SplitMix64,
    Subproblem,
    build_subproblem,
    derive_seed,
    epsilon_ml,
    gen_network,
    iter_extensions,
    make_case,
    parse_network,
    upper_bound,
)
from nobn.epsilonml import iter_level_extensions
from conftest import pruned_with_evidence, random_evidence, small_random_net


def _brute_extensions(net, sub):
    """Every free-parent assignment with its product, by direct arithmetic.

    Kept independent of the search: factors are evaluated from the noisy-OR
    definition, not via iter_extensions.
    """
    free = sub.free_parents
    out = {}
    for bits in itertools.product([False, True], repeat=len(free)):
        states = dict(zip(free, bits))
        prod = 1.0
        for nid, fstate in sub.findings:
            spec = net.nodes[nid]
            w = 1.0 - spec.leak
            for p, q in spec.links:
                present = states[p] if p in states else sub.fixed_parents[p]
                if present:
                    w *= 1.0 - q
            prod *= (1.0 - w) if fstate else w
        for p in free:
            prior = net.nodes[p].prior
            if prior is not None:
                prod *= prior if states[p] else 1.0 - prior
        out[bits] = prod
    return out


def _ext_key(sub, ext):
    states = dict(ext.parent_states)
    return tuple(states[p] for p in sub.free_parents)


def _two_level_subproblem(seed: int):
    """Random two-level network with sampled bottom-level evidence."""
    r = SplitMix64(derive_seed(seed, 0xF0))
    shape = NetShape(
        levels=2,
        nodes_per_level=(1 + r.below(10), 1 + r.below(10)),
        max_parents=1 + r.below(4),
        parent_locality=1.0,
        seed=derive_seed(seed, 0xF1),
    )
    net = gen_network(shape)
    bottom = len(net.level_nodes[1])
    case = make_case(net, derive_seed(seed, 0xF2), 1 + r.below(bottom))
    a = Assignment.from_evidence(net, case.evidence)
    return net, build_subproblem(net, a, 1)


class TestBuildSubproblem:
    def test_chain3_level2(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)
        assert sub.findings == ((2, True),)
        assert sub.free_parents == (1,)
        assert sub.fixed_parents == {}

    def test_chain3_level1_after_b(self, chain3):
        a = Assignment.from_evidence(chain3, [(1, True), (2, True)])
        sub = build_subproblem(chain3, a, 1)
        assert sub.findings == ((1, True),)
        assert sub.free_parents == (0,)

    def test_no_expandable_findings(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        with pytest.raises(NoFindingsError):
            build_subproblem(chain3, a, 1)
        # a fully determined level has nothing to expand either
        b = Assignment.from_evidence(chain3, [(0, True), (1, True)])
        with pytest.raises(NoFindingsError):
            build_subproblem(chain3, b, 1)

    def test_fixed_parents_split(self):
        net = parse_network(
            "node A prior 0.2\nnode B prior 0.4\n"
            "node F leak 0.05 parents A:0.7 B:0.6\n"
        )
        a = Assignment.from_evidence(net, [(0, True), (2, True)])
        sub = build_subproblem(net, a, 1)
        assert sub.findings == ((2, True),)
        assert sub.free_parents == (1,)
        assert sub.fixed_parents == {0: True}

    def test_parent_order_by_relevance(self):
        # strongest activation first, ties by id
        net = parse_network(
            "node A prior 0.2\nnode B prior 0.2\nnode C prior 0.2\n"
            "node F leak 0.05 parents A:0.3 B:0.9 C:0.6\n"
            "node G leak 0.05 parents A:0.5 C:0.2\n"
        )
        a = Assignment.from_evidence(net, [(3, True), (4, False)])
        sub = build_subproblem(net, a, 1)
        assert sub.free_parents == (1, 2, 0)  # q: B=0.9, C=0.6, A=0.5


class TestIterLevelExtensions:
    def test_matches_two_step_form_on_every_frontier_state(self):
        # Walk the engine's search tree (rescaled thresholds included) and
        # compare the one-call form with build_subproblem + iter_extensions
        # on every state that has a frontier level.
        checked = 0
        for seed in range(60):
            net = small_random_net(seed)
            pruned, pev = pruned_with_evidence(net, random_evidence(net, seed))
            target = (1e-2, 1e-5, 0.0)[seed % 3]
            stack = [Assignment.from_evidence(pruned, pev)]
            visited = 0
            while stack and visited < 400:
                a = stack.pop()
                visited += 1
                level = a.frontier_level()
                if level is None or a.known_factor_product < target:
                    continue
                eps = target / a.known_factor_product if target else 0.0
                fused = list(iter_level_extensions(pruned, a, level, eps))
                sub = build_subproblem(pruned, a, level)
                assert fused == list(iter_extensions(pruned, sub, eps))
                checked += 1
                stack.extend(a.extended(ext.parent_states) for ext in fused)
        assert checked >= 300

    def test_no_findings_raises(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        with pytest.raises(NoFindingsError):
            iter_level_extensions(chain3, a, 1, 0.0)


class TestEpsilonMl:
    def test_chain3_level2_thresholds(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)

        high = epsilon_ml(chain3, sub, 0.1)
        assert [(dict(e.parent_states)[1], e.new_factor_product) for e in high] == [
            (True, pytest.approx(0.905, abs=1e-15))
        ]

        both = epsilon_ml(chain3, sub, 0.01)
        got = {dict(e.parent_states)[1]: e.new_factor_product for e in both}
        assert got[True] == pytest.approx(0.905, abs=1e-15)
        assert got[False] == pytest.approx(0.05, abs=1e-15)

    def test_chain3_level1_includes_root_prior(self, chain3):
        a = Assignment.from_evidence(chain3, [(1, True), (2, True)])
        sub = build_subproblem(chain3, a, 1)
        only = epsilon_ml(chain3, sub, 0.12)
        assert len(only) == 1
        assert dict(only[0].parent_states)[0] is True
        assert only[0].new_factor_product == pytest.approx(0.82 * 0.2, abs=1e-15)
        # absent misses: 0.1 * 0.8 = 0.08 < 0.12
        both = epsilon_ml(chain3, sub, 0.05)
        assert len(both) == 2

    def test_empty_free_parents_trivial_extension(self):
        # hand-built degenerate subproblem: nothing to search, one extension
        net = parse_network(
            "node A prior 0.2\nnode B prior 0.4\n"
            "node F leak 0.05 parents A:0.7 B:0.6\n"
        )
        sub = Subproblem(
            findings=((2, True),), free_parents=(), fixed_parents={0: True, 1: False}
        )
        exts = epsilon_ml(net, sub, 0.1)
        assert len(exts) == 1
        assert exts[0].parent_states == ()
        expected = 1.0 - 0.95 * 0.3  # leak 0.05, only A active
        assert exts[0].new_factor_product == pytest.approx(expected, abs=1e-15)
        assert epsilon_ml(net, sub, expected + 0.01) == []

    def test_matches_brute_force_on_random_two_level(self):
        r = SplitMix64(99)
        for seed in range(60):
            net, sub = _two_level_subproblem(seed)
            brute = _brute_extensions(net, sub)
            eps = 10.0 ** (-12 * r.random())
            got = epsilon_ml(net, sub, eps)
            keys = {_ext_key(sub, e) for e in got}
            expected = {k for k, p in brute.items() if p >= eps}
            assert keys == expected
            for e in got:
                assert e.new_factor_product == pytest.approx(
                    brute[_ext_key(sub, e)], rel=1e-12
                )

    def test_monotone_in_epsilon(self):
        for seed in range(10):
            net, sub = _two_level_subproblem(seed)
            eps_values = sorted(10.0 ** (-k) for k in range(1, 10))
            previous = None
            for eps in reversed(eps_values):  # decreasing
                keys = {_ext_key(sub, e) for e in epsilon_ml(net, sub, eps)}
                if previous is not None:
                    assert previous <= keys
                previous = keys

    def test_mixed_level_fixed_parents_from_random_networks(self):
        # subproblems exactly as the engine would pose them
        checked = 0
        for seed in range(40):
            net = small_random_net(seed)
            ev = random_evidence(net, seed)
            pruned, pev = pruned_with_evidence(net, ev)
            a = Assignment.from_evidence(pruned, pev)
            level = a.frontier_level()
            if level is None:
                continue
            sub = build_subproblem(pruned, a, level)
            if len(sub.free_parents) > 12:
                continue
            brute = _brute_extensions(pruned, sub)
            for eps in (1e-1, 1e-3, 1e-6):
                got = {_ext_key(sub, e) for e in epsilon_ml(pruned, sub, eps)}
                assert got == {k for k, p in brute.items() if p >= eps}
            checked += 1
        assert checked >= 10

    def test_extension_product_recomputes(self):
        for seed in range(10):
            net, sub = _two_level_subproblem(seed)
            for ext in epsilon_ml(net, sub, 1e-9):
                assert upper_bound(net, sub, dict(ext.parent_states)) == (
                    ext.new_factor_product
                )

    def test_rejects_negative_epsilon(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)
        with pytest.raises(NetworkError):
            epsilon_ml(chain3, sub, -0.1)

    def test_lazy_generator_with_bounded_depth(self):
        net, sub = _two_level_subproblem(3)
        stats = {}
        it = iter_extensions(net, sub, 0.0, stats=stats)
        assert inspect.isgenerator(it)
        for _ in it:
            pass
        assert stats["max_depth"] <= len(sub.free_parents)
        assert stats["nodes"] <= 2 ** (len(sub.free_parents) + 1)


class TestUpperBound:
    def test_single_finding_no_leak(self):
        net = parse_network(
            "node R prior 0.5\nnode P leak 0.1 parents R:0.5\n"
            "node F leak 0 parents P:0.9\n"
        )
        a = Assignment.from_evidence(net, [(2, True)])
        sub = build_subproblem(net, a, 2)
        assert upper_bound(net, sub, {}) == pytest.approx(0.9, abs=1e-15)

    def test_chain3_empty_decision_dominates(self, chain3):
        a = Assignment.from_evidence(chain3, [(1, True), (2, True)])
        sub = build_subproblem(chain3, a, 1)
        bound = upper_bound(chain3, sub, {})
        assert bound >= 0.82 * 0.2
        assert bound >= 0.1 * 0.8

    def test_complete_decision_equals_product(self):
        for seed in range(15):
            net, sub = _two_level_subproblem(seed)
            for ext in epsilon_ml(net, sub, 0.0):
                assert upper_bound(net, sub, dict(ext.parent_states)) == (
                    ext.new_factor_product
                )

    def test_admissible_on_every_prefix(self):
        # exact domination of all completions, checked exhaustively
        for seed in range(25):
            net, sub = _two_level_subproblem(seed)
            if len(sub.free_parents) > 10:
                continue
            free = sub.free_parents
            exts = epsilon_ml(net, sub, 0.0)
            by_prefix: dict[tuple, float] = {}
            for ext in exts:
                states = dict(ext.parent_states)
                key = ()
                prod = ext.new_factor_product
                for k in range(len(free) + 1):
                    key = tuple(states[p] for p in free[:k])
                    if prod > by_prefix.get(key, -1.0):
                        by_prefix[key] = prod
            for key, best in by_prefix.items():
                decided = {p: s for p, s in zip(free, key)}
                assert upper_bound(net, sub, decided) >= best

    def test_prefix_requirement(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)
        with pytest.raises(NetworkError, match="prefix"):
            upper_bound(chain3, sub, {99: True})


class TestUniformPriorRanking:
    def test_rank_equality_for_nonroot_parents(self):
        # with only non-root free parents, ranking by the threshold product
        # matches ranking by the joint under uniform stand-in priors
        net = parse_network(
            "node R1 prior 0.1\nnode R2 prior 0.2\n"
            "node M1 leak 0.1 parents R1:0.7\nnode M2 leak 0.2 parents R2:0.5\n"
            "node F leak 0.02 parents M1:0.8 M2:0.65\n"
        )
        a = Assignment.from_evidence(net, [(4, True)])
        sub = build_subproblem(net, a, 2)
        assert all(net.nodes[p].prior is None for p in sub.free_parents)
        exts = epsilon_ml(net, sub, 0.0)
        uniform = 0.5 ** len(sub.free_parents)
        by_product = sorted(
            exts, key=lambda e: (-e.new_factor_product, _ext_key(sub, e))
        )
        by_uniform_joint = sorted(
            exts, key=lambda e: (-e.new_factor_product * uniform, _ext_key(sub, e))
        )
        assert [_ext_key(sub, e) for e in by_product] == [
            _ext_key(sub, e) for e in by_uniform_joint
        ]
