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
    bn3_shape,
    build_subproblem,
    derive_seed,
    epsilon_ml,
    gen_network,
    iter_extensions,
    make_case,
    parse_network,
    prune_barren,
    top_epsilon,
    upper_bound,
)
import nobn.engine
from nobn.epsilonml import iter_level_extensions
from conftest import pruned_with_evidence, random_evidence, small_random_net


def _noisy_or_absent(spec, present):
    """P(node absent | parents) from the noisy-OR definition."""
    w = 1.0 - spec.leak
    for p, q in spec.links:
        if present(p):
            w *= 1.0 - q
    return w


def _brute_extensions(net, sub, a=None):
    """Every free-parent assignment with its product, by direct arithmetic.

    Kept independent of the search: factors are evaluated from the noisy-OR
    definition, not via iter_extensions or ``sub.factors``.  A free non-root
    parent whose parents all have a state in ``a`` (the assignment the
    subproblem was built from) is a pseudo-root: its conditional factor is
    multiplied in like a root's prior.  Without ``a`` every free parent must
    be a root.
    """
    free = sub.free_parents
    known = {}  # free parent -> (P(absent), P(present)), roots and pseudo-roots
    for p in free:
        spec = net.nodes[p]
        if spec.prior is not None:
            known[p] = (1.0 - spec.prior, spec.prior)
        elif a is None:
            raise AssertionError("a non-root free parent needs the assignment")
        elif all(a.state(g) is not None for g, _ in spec.links):
            w = _noisy_or_absent(spec, a.state)
            known[p] = (w, 1.0 - w)
    out = {}
    for bits in itertools.product([False, True], repeat=len(free)):
        states = dict(zip(free, bits))
        prod = 1.0
        for nid, fstate in sub.findings:
            w = _noisy_or_absent(
                net.nodes[nid],
                lambda p: states[p] if p in states else sub.fixed_parents[p],
            )
            prod *= (1.0 - w) if fstate else w
        for p, factors in known.items():
            prod *= factors[states[p]]
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


def _diagnostic_subproblems(seed: int, max_states: int = 30, max_free: int = 10):
    """Subproblems the engine poses on a small net with bn3's parameters
    (rare roots, near-deterministic and nearly leak-free internal links,
    leaky findings), walked over every extension from the evidence; each
    comes with the assignment and level it was built from."""
    r = SplitMix64(derive_seed(seed, 0xE0))
    shape = NetShape(
        levels=3,
        nodes_per_level=(2 + r.below(3), 3 + r.below(4), 6 + r.below(6)),
        max_parents=3,
        parent_locality=0.9,
        prior_range=(2e-4, 2e-3),
        q_range=(0.995, 0.9995),
        leak_range=(1e-8, 1e-7),
        finding_leak_range=(0.01, 0.05),
        seed=derive_seed(seed, 0xE1),
    )
    net = gen_network(shape)
    case = make_case(net, derive_seed(seed, 0xE2), 3 + r.below(len(net.level_nodes[2]) - 2))
    pruned, pev = pruned_with_evidence(net, case.evidence)
    stack = [Assignment.from_evidence(pruned, pev)]
    visited = 0
    while stack and visited < max_states:
        a = stack.pop()
        level = a.frontier_level()
        if level is None:
            continue
        visited += 1
        sub = build_subproblem(pruned, a, level)
        if len(sub.free_parents) <= max_free:
            yield pruned, a, level, sub
        stack.extend(a.extended(e.parent_states) for e in iter_level_extensions(
            pruned, a, level, 0.0))


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
            brute = _brute_extensions(pruned, sub, a)
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

    def test_matches_brute_force_in_diagnostic_regime(self):
        # thresholds at, just above and just below each subproblem's best
        # product, plus powers of ten; some of them must be rejected at entry
        # although the per-node bound of the empty decision clears them, and
        # the one-call form must agree with the two-step form on each
        checked = rejected_at_entry = 0
        for seed in range(25):
            for net, a, level, sub in _diagnostic_subproblems(seed):
                brute = _brute_extensions(net, sub, a)
                # the search's own leaf products (nothing is pruned at 0)
                leaf = {_ext_key(sub, e): e.new_factor_product for e in epsilon_ml(net, sub, 0.0)}
                assert leaf == pytest.approx(brute, rel=1e-12)
                top = max(brute.values())
                eps_values = [top, top * (1 + 1e-12), top * (1 - 1e-12)]
                eps_values += [10.0**-k for k in range(1, 16)]
                for eps in eps_values:
                    stats = {}
                    exts = list(iter_extensions(net, sub, eps, stats))
                    assert list(iter_level_extensions(net, a, level, eps)) == exts
                    got = {_ext_key(sub, e) for e in exts}
                    # exact against the leaf test; against the brute products
                    # up to the last-ulp ties that only eps == top can hit
                    assert got == {k for k, p in leaf.items() if p >= eps}
                    assert got ^ {k for k, p in brute.items() if p >= eps} <= {
                        k for k, p in brute.items() if abs(p - eps) <= 1e-12 * eps
                    }
                    if stats["nodes"] == 0 and upper_bound(net, sub, {}) >= eps:
                        rejected_at_entry += 1
                checked += 1
        assert checked >= 400
        assert rejected_at_entry >= 1000

    def test_pseudo_root_priced_in_the_subproblem(self):
        # R -> P -> F with R and F observed: P's parents are all assigned, so
        # its factor is known the moment the extension assigns it
        net = parse_network(
            "node R prior 0.3\nnode P leak 0.1 parents R:0.8\n"
            "node F leak 0.05 parents P:0.9\n"
        )
        evidence = [(0, True), (2, True)]
        a = Assignment.from_evidence(net, evidence)
        sub = build_subproblem(net, a, 2)
        assert sub.free_parents == (1,)
        w = 0.9 * (1.0 - 0.8)
        assert sub.factors == ((w, 1.0 - w),)
        assert _brute_extensions(net, sub, a) == pytest.approx(
            {(True,): 0.905 * 0.82, (False,): 0.05 * 0.18}, rel=1e-12
        )
        # P absent: 0.05 without P's factor, 0.009 with it; 0.02 lies between
        exts = list(iter_extensions(net, sub, 0.02))
        assert [e.parent_states for e in exts] == [((1, True),)]
        assert list(iter_level_extensions(net, a, 2, 0.02)) == exts
        for ext in epsilon_ml(net, sub, 0.0):
            assert upper_bound(net, sub, dict(ext.parent_states)) == ext.new_factor_product
            # the engine folds in the same factors once the extension is applied
            applied = a.extended(ext.parent_states)
            assert ext.new_factor_product == pytest.approx(
                applied.known_factor_product / a.known_factor_product, rel=1e-15
            )
        # so the engine never builds the P-absent state it would reject
        res = top_epsilon(net, evidence, 0.3 * 0.02)
        assert (res.states_explored, res.accepted_count) == (2, 1)
        # unlike a root, a pseudo-root tries present first even when absent
        # is the likelier state (R absent leaves P only its leak)
        b = Assignment.from_evidence(net, [(0, False), (2, True)])
        sub_b = build_subproblem(net, b, 2)
        w_b = 1.0 - 0.1
        assert sub_b.factors == ((w_b, 1.0 - w_b),)
        assert [e.parent_states for e in epsilon_ml(net, sub_b, 0.0)] == [
            ((1, True),), ((1, False),)
        ]

    def test_factors_must_align_with_free_parents(self):
        with pytest.raises(NetworkError, match="aligned"):
            Subproblem(findings=((1, True),), free_parents=(0,), fixed_parents={})

    def test_rejected_at_entry_still_fills_stats(self):
        # an explanation by the rare root costs its prior, and the leak alone
        # gives 0.01; the per-node bound of the empty decision reads 0.998
        net = parse_network("node R prior 0.001\nnode F leak 0.01 parents R:0.999\n")
        sub = build_subproblem(net, Assignment.from_evidence(net, [(1, True)]), 1)
        assert upper_bound(net, sub, {}) > 0.5
        stats = {}
        assert list(iter_extensions(net, sub, 0.5, stats)) == []
        assert stats == {"nodes": 0, "max_depth": 0}

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


class TestSearchCounters:
    def test_bn3_case_counters(self, monkeypatch):
        # one bn3 case at 26 findings, each subproblem replayed through the
        # public two-step form; exact counts, so a change to the search or
        # its pruning shows up here rather than as benchmark noise
        net = gen_network(bn3_shape(0))
        case = make_case(net, derive_seed(0, 0x04, 0), 26)
        pruned = prune_barren(net, case.evidence)
        evidence = tuple(
            (pruned.node_id(net.nodes[nid].name), state) for nid, state in case.evidence
        )
        counts = {"subproblems": 0, "nodes": 0}

        def replayed(n, a, level, eps):
            stats = {}
            for _ in iter_extensions(n, build_subproblem(n, a, level), eps, stats):
                pass
            counts["subproblems"] += 1
            counts["nodes"] += stats["nodes"]
            return iter_level_extensions(n, a, level, eps)

        monkeypatch.setattr(nobn.engine, "iter_level_extensions", replayed)
        res = top_epsilon(pruned, evidence, 1e-12)
        assert (res.states_explored, res.accepted_count) == (354, 11)
        assert counts == {"subproblems": 287, "nodes": 3852}
        # complete states the engine rejects at its leaf test (no forced
        # branch runs here, so every other state posed a subproblem)
        assert res.states_explored - counts["subproblems"] - res.accepted_count == 56


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
