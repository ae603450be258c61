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
    build_subproblem,
    derive_seed,
    gen_network,
    instantiations_above,
    iter_extensions,
    make_case,
    parse_network,
    top_epsilon,
    upper_bound,
)
import nobn.engine
import nobn.epsilonml
from nobn.epsilonml import iter_level_extensions
import reference
from conftest import bn3_case, pruned_with_evidence, random_evidence, small_random_net

def _forget_plans():
    """Drop the subproblem plans the engine's search keeps between calls."""
    nobn.epsilonml._plans = (None, [])


# The smallest positive double: the engine's search charges every extension
# at any positive threshold, and at this one drops only those whose charged
# product is 0.  At 0 it prices no charge.
_TINY = 5e-324


def _brute_extensions(net, sub):
    """Every free-parent assignment with its product, by direct arithmetic.

    Kept independent of the search: factors are evaluated from the noisy-OR
    definition (``reference``), not via the search.  The product
    multiplies the factor of every node the assignment completes: a node
    that, with its parents, has a state in the snapshot ``sub.values`` plus
    the free parents' states, but not in ``sub.values`` alone.  That covers
    the findings, the free roots and pseudo-roots, a free parent whose
    unassigned parents are all free, and an assigned node off the findings
    whose unassigned parents are all free.
    """
    free = sub.free_parents
    values = sub.values
    for nid, _ in sub.findings:
        for p, _ in net.nodes[nid].links:
            assert values[p] is not None or p in free, (
                "a finding's parent is neither free nor assigned"
            )

    pending = [nid for nid in range(len(net)) if not reference.complete(net, values, nid)]
    out = {}
    for bits in itertools.product([False, True], repeat=len(free)):
        states = list(values)
        for p, state in zip(free, bits):
            states[p] = state
        prod = 1.0
        for nid in pending:
            if reference.complete(net, states, nid):
                prod *= reference.factor(net, nid, states)
        out[bits] = prod
    return out


def _charged(net, a, level, exts, eps):
    """What the engine's one-call form yields at ``eps``, given the two-step
    form's extensions ``exts`` at ``eps``: at 0 all of them, uncharged; else
    those whose product times their charge clears ``eps``, each with its
    charge.  The charges come from the one-call form at the smallest
    positive threshold, which yields every extension with a nonzero charged
    product."""
    if not eps:
        return list(exts)
    charges = {e.parent_states: e.charge for e in iter_level_extensions(net, a, level, _TINY)}
    return [
        e._replace(charge=charges[e.parent_states])
        for e in exts
        if e.new_factor_product * charges[e.parent_states] >= eps
    ]


def _assert_oracle_at_every_gap(net, evidence):
    """top_epsilon's accepted set and joints equal the oracle's at 0 and at
    the midpoint between every pair of adjacent joints."""
    joints = sorted({joint for _, joint in instantiations_above(net, evidence, 0.0)})
    for eps in [0.0] + [(lo + hi) / 2 for lo, hi in zip(joints, joints[1:])]:
        got = dict(top_epsilon(net, evidence, eps, keep_accepted=True).accepted)
        expected = dict(instantiations_above(net, evidence, eps))
        assert got.keys() == expected.keys()
        assert got == pytest.approx(expected, rel=1e-12)


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
    yield from _walked_subproblems(
        *pruned_with_evidence(net, case.evidence), max_states, max_free
    )


def _walked_subproblems(net, evidence, max_states: int = 30, max_free: int = 10):
    """The subproblems the engine poses from the evidence, walked over every
    extension, with at most ``max_free`` free parents; each comes with the
    assignment and level it was built from."""
    stack = [()]
    visited = 0
    while stack and visited < max_states:
        path = stack.pop()
        a = _applied(net, evidence, path)
        level = a.frontier_level()
        if level is None:
            continue
        visited += 1
        sub = build_subproblem(net, a, level)
        if len(sub.free_parents) <= max_free:
            yield net, a, level, sub
        stack.extend(path + (e.parent_states,) for e in iter_level_extensions(
            net, a, level, 0.0))


def _applied(net, evidence, path):
    """The assignment made from the evidence by the batches of ``path``."""
    a = Assignment.from_evidence(net, evidence)
    for pairs in path:
        a.assign(pairs)
    return a


def _bound_subproblems(two_level_seeds: int):
    """Two-level subproblems, whose free parents are all roots; the
    diagnostic regime's, which add non-root free parents and fixed parents;
    and those of random nets with evidence at any level, which add
    pseudo-roots."""
    for seed in range(two_level_seeds):
        yield _two_level_subproblem(seed)
    for seed in range(25):
        for net, _, _, sub in _diagnostic_subproblems(seed):
            yield net, sub
    for seed in range(40):
        net = small_random_net(seed)
        for pruned, _, _, sub in _walked_subproblems(
            *pruned_with_evidence(net, random_evidence(net, seed))
        ):
            yield pruned, sub


class TestBuildSubproblem:
    def test_chain3_level2(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)
        assert sub.findings == ((2, True),)
        assert sub.free_parents == (1,)
        assert sub.values == (None, None, True)

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
        assert sub.values == (True, None, True)

    def test_subproblem_is_a_snapshot(self):
        # assigning and undoing nodes on the assignment after posing the
        # subproblem changes neither its extensions nor its bounds
        checked = 0
        for seed in range(6):
            for net, a, _, sub in _diagnostic_subproblems(seed):
                exts = list(iter_extensions(net, sub, 0.0))
                decisions = [{}] + [dict(e.parent_states) for e in exts]
                bounds = [upper_bound(net, sub, d) for d in decisions]

                def unchanged():
                    assert list(iter_extensions(net, sub, 0.0)) == exts
                    assert [upper_bound(net, sub, d) for d in decisions] == bounds

                parents = a.assign(exts[-1].parent_states)
                unchanged()
                rest = a.assign((nid, True) for nid, v in enumerate(a.values) if v is None)
                unchanged()
                a.undo(rest)
                a.undo(parents)
                unchanged()
                checked += 1
        assert checked >= 100

    def test_parent_order_by_relevance(self):
        # extensions list their parents strongest activation first, ties by
        # id (the emission order); the search decides the parents with the
        # most children in the subproblem first, ties in emission order
        net = parse_network(
            "node A prior 0.2\nnode B prior 0.2\nnode C prior 0.2\n"
            "node F leak 0.05 parents A:0.3 B:0.9 C:0.6\n"
            "node G leak 0.05 parents A:0.5 C:0.2\n"
        )
        a = Assignment.from_evidence(net, [(3, True), (4, False)])
        sub = build_subproblem(net, a, 1)
        exts = list(iter_extensions(net, sub, 0.0))
        assert len(exts) == 8
        for ext in exts:
            # q: B=0.9, C=0.6, A=0.5
            assert [p for p, _ in ext.parent_states] == [1, 2, 0]
        # children: A and C feed F and G, B feeds F only
        assert sub.free_parents == (2, 0, 1)

    def test_both_forms_share_one_kept_plan(self, monkeypatch):
        net = parse_network(
            "node A prior 0.2\nnode B prior 0.4\n"
            "node F leak 0.05 parents A:0.7 B:0.6\n"
        )
        a = Assignment.from_evidence(net, [(2, True)])
        # the engine's form first: the snapshot takes the plan it kept
        _forget_plans()
        assert len(list(iter_level_extensions(net, a, 1, 0.0))) == 4
        kept = nobn.epsilonml._plans[1][1][1]
        assert build_subproblem(net, a, 1).plan is kept
        # the snapshot first: the engine's form builds no second plan
        built = []
        plan = nobn.epsilonml._plan

        def spy(*args):
            built.append(args)
            return plan(*args)

        monkeypatch.setattr(nobn.epsilonml, "_plan", spy)
        _forget_plans()
        sub = build_subproblem(net, a, 1)
        assert len(list(iter_level_extensions(net, a, 1, 0.0))) == 4
        assert len(built) == 1
        # a snapshot keeps its plan and its extensions once a pose on other
        # assigned nodes replaces the kept plan
        exts = list(iter_extensions(net, sub, 0.0))
        token = a.assign([(0, True)])
        assert build_subproblem(net, a, 1).free_parents == (1,)
        assert len(built) == 2
        assert nobn.epsilonml._plans[1][1][1] is not sub.plan
        assert list(iter_extensions(net, sub, 0.0)) == exts
        a.undo(token)
        assert list(iter_extensions(net, sub, 0.0)) == exts


class TestIterLevelExtensions:
    def test_matches_two_step_form_on_every_frontier_state(self):
        # Walk the engine's search tree (rescaled thresholds included) and
        # compare the one-call form with build_subproblem + iter_extensions
        # on every state that has a frontier level.  The one-call form also
        # charges present free parents whose own parents lie outside the
        # subproblem, so it yields exactly the two-step form's extensions
        # whose product times their charge clears epsilon; at epsilon 0 it
        # yields every extension with its charge.
        checked = 0
        for seed in range(60):
            net = small_random_net(seed)
            pruned, pev = pruned_with_evidence(net, random_evidence(net, seed))
            target = (1e-2, 1e-5, 0.0)[seed % 3]
            stack = [()]
            visited = 0
            while stack and visited < 400:
                path = stack.pop()
                a = _applied(pruned, pev, path)
                visited += 1
                level = a.frontier_level()
                if level is None or a.known_factor_product < target:
                    continue
                eps = target / a.known_factor_product if target else 0.0
                # once with no plan kept, once reusing the plan just built
                _forget_plans()
                fused = list(iter_level_extensions(pruned, a, level, eps))
                assert list(iter_level_extensions(pruned, a, level, eps)) == fused
                sub = build_subproblem(pruned, a, level)
                assert fused == _charged(
                    pruned, a, level, iter_extensions(pruned, sub, eps), eps
                )
                checked += 1
                stack.extend(path + (ext.parent_states,) for ext in fused)
        assert checked >= 300

    def test_no_findings_raises(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        with pytest.raises(NoFindingsError):
            iter_level_extensions(chain3, a, 1, 0.0)

    def test_level_out_of_range_raises_with_plans_kept_or_not(self, chain3):
        # the plan slots are indexed by level, and -1 would read the deepest
        # level's slot, kept here under the very same assigned nodes
        a = Assignment.from_evidence(chain3, [(2, True)])
        for warm in (False, True):
            _forget_plans()
            if warm:
                assert len(list(iter_level_extensions(chain3, a, 2, 0.0))) == 2
            for level in (-1, chain3.max_level + 1):
                with pytest.raises(NetworkError, match="out of range"):
                    iter_level_extensions(chain3, a, level, 0.0)

    def test_charge_drops_an_extension_the_two_step_form_keeps(self):
        # R -> A -> B -> F with F observed present.  At level 3 the one free
        # parent B has its parent A outside the subproblem, so B present is
        # charged what B and its ancestry can still add at best: every node
        # present, or the leak alone.  A and B have plain = 1 - 0.999 * 0.1
        # = 0.9001, and h'(A) = max(0.001, 0.9001 * 0.01) = 0.009001.  B
        # absent is charged its factor's bound with no parent present, its
        # leak complement 0.999.
        net = parse_network(
            "node R prior 0.01\nnode A leak 0.001 parents R:0.9\n"
            "node B leak 0.001 parents A:0.9\nnode F leak 0.01 parents B:0.9\n"
        )
        a = Assignment.from_evidence(net, [(3, True)])
        present, absent = iter_level_extensions(net, a, 3, _TINY)
        assert present.parent_states == ((2, True),)
        assert present.new_factor_product == pytest.approx(0.901, rel=1e-15)
        assert present.charge == pytest.approx(0.9001 * 0.009001, rel=1e-15)
        assert absent.parent_states == ((2, False),)
        assert (absent.new_factor_product, absent.charge) == (pytest.approx(0.01), 0.999)
        # at 0.008 the two-step form keeps B present (0.901); its best
        # completion is 0.901 * 0.9001 * 0.9001 * 0.01 = 0.0073, so the
        # engine's form drops it, and keeps B absent (0.01, charged 0.00999)
        sub = build_subproblem(net, a, 3)
        assert [e.parent_states for e in iter_extensions(net, sub, 0.008)] == [
            ((2, True),), ((2, False),)
        ]
        assert list(iter_level_extensions(net, a, 3, 0.008)) == [absent]
        res = top_epsilon(net, [(3, True)], 0.008, keep_accepted=True)
        assert {values for values, _ in res.accepted} == {
            values for values, _ in instantiations_above(net, [(3, True)], 0.008)
        }
        assert all(values[2] is False for values, _ in res.accepted)

    def test_absent_parent_charged_its_open_factor(self):
        # Q, R -> P and P, Q -> F with F observed present: at level 2 the
        # free parents are P, then Q (F's links 1-q: 0.1, 0.2).  P's parent R
        # lies outside the subproblem, so the extension leaves P's factor
        # open.  With P absent and Q present that factor is at most P's leak
        # complement times Q's 1-q, 0.99 * 0.01, whatever R turns out to be.
        net = parse_network(
            "node Q prior 0.5\nnode R prior 0.01\n"
            "node P leak 0.01 parents Q:0.99 R:0.9\n"
            "node F leak 0.01 parents P:0.9 Q:0.8\n"
        )
        evidence = [(3, True)]
        a = Assignment.from_evidence(net, evidence)
        dropped = ((2, False), (0, True))
        exts = {e.parent_states: e for e in iter_level_extensions(net, a, 2, _TINY)}
        assert exts[dropped].new_factor_product == pytest.approx(0.802 * 0.5, rel=1e-15)
        assert exts[dropped].charge == pytest.approx(0.99 * 0.01, rel=1e-15)
        # its best completion, R absent, is 0.401 * 0.0099 * 0.99 = 0.0039,
        # below 0.01: the engine's search drops it, the two-step form keeps it
        sub = build_subproblem(net, a, 2)
        assert dropped in [e.parent_states for e in iter_extensions(net, sub, 0.01)]
        assert dropped not in [e.parent_states for e in iter_level_extensions(net, a, 2, 0.01)]
        _assert_oracle_at_every_gap(net, evidence)

    def test_assigned_absent_node_charged_its_open_factor(self, monkeypatch):
        # Q, S -> E and R -> P, with P, Q -> F; R and F observed present, E
        # absent.  At level 2 the free parents are P (a pseudo-root) and Q.
        # E lies off the level, Q feeds it and E's parent S lies outside the
        # subproblem, so E's factor stays open: at most E's leak complement
        # 0.99, times Q's 1-q 0.01 with Q present, whatever S turns out to be.
        net = parse_network(
            "node Q prior 0.5\nnode R prior 0.5\nnode S prior 0.01\n"
            "node P leak 0.01 parents R:0.5\nnode E leak 0.01 parents Q:0.99 S:0.9\n"
            "node F leak 0.01 parents P:0.9 Q:0.8\n"
        )
        evidence = [(1, True), (4, False), (5, True)]
        a = Assignment.from_evidence(net, evidence)

        def assert_charges():
            exts = list(iter_level_extensions(net, a, 2, _TINY))
            assert len(exts) == 4
            for ext in exts:
                q_present = dict(ext.parent_states)[0]
                want = 0.99 * (0.01 if q_present else 1.0)
                assert ext.charge == pytest.approx(want, rel=1e-15)

        assert_charges()
        # E present leaves no factor open; the assigned nodes are the same,
        # so the kept plan serves, and its open-factor tables still list E
        built = []
        monkeypatch.setattr(nobn.epsilonml, "_plan", lambda *args: built.append(args))
        e_present = Assignment.from_evidence(net, [(1, True), (4, True), (5, True)])
        exts = list(iter_level_extensions(net, e_present, 2, _TINY))
        assert len(exts) == 4
        assert all(ext.charge == 1.0 for ext in exts)
        assert_charges()
        assert built == []
        monkeypatch.undo()
        # P and Q present: 0.9802 * 0.505 * 0.5 = 0.2475, at most 0.00245
        # once E's factor is in; the engine's search drops it at 0.01
        dropped = ((3, True), (0, True))
        sub = build_subproblem(net, a, 2)
        assert dropped in [e.parent_states for e in iter_extensions(net, sub, 0.01)]
        assert dropped not in [e.parent_states for e in iter_level_extensions(net, a, 2, 0.01)]
        _assert_oracle_at_every_gap(net, evidence)

    def test_explainer_charged_for_an_assigned_absent_child(self):
        # G -> P, G -> A and P -> F, with A observed absent and F present.  At
        # level 2 the one free parent P has its parent G outside the
        # subproblem.  G explaining P costs h(G) = 0.01 and, since G also
        # feeds the absent A, A's factor at most 1-q = 0.1: 0.9001 * 0.01 *
        # 0.1 is below P's leak, so P present is charged its leak.
        net = parse_network(
            "node G prior 0.01\nnode P leak 0.001 parents G:0.9\n"
            "node A leak 0.001 parents G:0.9\nnode F leak 0.01 parents P:0.9\n"
        )
        evidence = [(2, False), (3, True)]
        a = Assignment.from_evidence(net, evidence)
        present, absent = iter_level_extensions(net, a, 2, _TINY)
        assert present.parent_states == ((1, True),)
        assert present.new_factor_product == pytest.approx(0.901, rel=1e-15)
        assert present.charge == 1.0 - (1.0 - 0.001)
        assert absent.charge == 0.999
        # P present's best completion, G absent, is 0.99 * 0.001 * 0.999 *
        # 0.901 = 0.000891, below its charged product 0.000901; at 1e-3 the
        # engine's search drops it and the two-step form keeps it
        sub = build_subproblem(net, a, 2)
        assert [e.parent_states for e in iter_extensions(net, sub, 1e-3)] == [
            ((1, True),), ((1, False),)
        ]
        assert list(iter_level_extensions(net, a, 2, 1e-3)) == [absent]
        _assert_oracle_at_every_gap(net, evidence)

    def test_explainer_charged_for_a_sibling_decided_absent_later(self):
        # G -> P, G -> S and P, S -> F with F observed present: the free
        # parents are P, then S, both with G outside.  Deciding S absent
        # after P present shrinks P's charge from 0.9001 * 0.01 to its leak
        # 0.001, times S's own open bound 0.999; with both present each
        # keeps 0.9001 * 0.01.
        net = parse_network(
            "node G prior 0.01\nnode P leak 0.001 parents G:0.9\n"
            "node S leak 0.001 parents G:0.9\nnode F leak 0.01 parents P:0.9 S:0.5\n"
        )
        evidence = [(3, True)]
        a = Assignment.from_evidence(net, evidence)
        sub = build_subproblem(net, a, 2)
        assert sub.free_parents == (1, 2)
        charges = {e.parent_states: e.charge for e in iter_level_extensions(net, a, 2, _TINY)}
        dropped = ((1, True), (2, False))
        assert charges[dropped] == pytest.approx(0.001 * 0.999, rel=1e-12)
        assert charges[((1, True), (2, True))] == pytest.approx(0.9001 * 0.01, rel=1e-15)
        assert charges[((1, False), (2, True))] == pytest.approx(0.001 * 0.999, rel=1e-12)
        # P present, S absent: 0.901 before its charge, 0.0009 after, and at
        # best 0.99 * 0.001 * 0.999 * 0.901 = 0.000891
        assert dropped in [e.parent_states for e in iter_extensions(net, sub, 1e-3)]
        assert dropped not in [e.parent_states for e in iter_level_extensions(net, a, 2, 1e-3)]
        _assert_oracle_at_every_gap(net, evidence)

    def test_assigned_absent_parent_explains_nothing(self):
        # Z, G -> P and P -> F, with Z observed absent and F present.  At
        # level 2 the one free parent P has its parent G outside the
        # subproblem.  Z cannot explain P, so P present is charged G's
        # explanation, plain * prior(G) = (1 - 0.75 * 0.5 * 0.5) * 0.5, not
        # plain alone as if Z might be present.  P absent is charged its
        # leak complement 0.75.  Dyadic parameters keep every product exact.
        net = parse_network(
            "node Z prior 0.5\nnode G prior 0.5\n"
            "node P leak 0.25 parents Z:0.5 G:0.5\nnode F leak 0.5 parents P:0.5\n"
        )
        evidence = [(0, False), (3, True)]
        a = Assignment.from_evidence(net, evidence)
        present, absent = iter_level_extensions(net, a, 2, _TINY)
        assert (present.parent_states, present.new_factor_product) == (((2, True),), 0.75)
        assert present.charge == 0.8125 * 0.5
        assert (absent.new_factor_product, absent.charge) == (0.5, 0.75)
        # P present's best completion, G present, is 0.75 * 0.5 * 0.625 =
        # 0.234; charged with plain it would read 0.609 and clear 0.5.  Now
        # it reads 0.305, so the engine's search drops it at 0.5, as it
        # drops P absent (0.375)
        sub = build_subproblem(net, a, 2)
        assert [e.parent_states for e in iter_extensions(net, sub, 0.5)] == [
            ((2, True),), ((2, False),)
        ]
        assert list(iter_level_extensions(net, a, 2, 0.5)) == []
        # Z's prior makes the known product 0.5, so a target of 0.25 is
        # searched at 0.5 there: the evidence state is the only one explored
        assert top_epsilon(net, evidence, 0.25).states_explored == 1
        _assert_oracle_at_every_gap(net, evidence)

    def test_explainer_with_an_assigned_absent_parent_costs_its_leak(self):
        # Z -> G -> P -> F, with Z observed absent and F present.  At level 3
        # the one free parent P has its parent G outside the subproblem, and
        # G's one parent Z is absent, so G present has only its leak:
        # h(G) = 1 - 0.75 = 0.25, not G's plain 1 - 0.75 * 0.5.  P present
        # is charged plain_P * h(G) = (1 - 0.875 * 0.5) * 0.25 = 0.140625,
        # exactly P's and G's factors in its best completion, G present.
        net = parse_network(
            "node Z prior 0.5\nnode G leak 0.25 parents Z:0.5\n"
            "node P leak 0.125 parents G:0.5\nnode F leak 0.5 parents P:0.5\n"
        )
        evidence = [(0, False), (3, True)]
        a = Assignment.from_evidence(net, evidence)
        present, absent = iter_level_extensions(net, a, 3, _TINY)
        assert (present.parent_states, present.new_factor_product) == (((2, True),), 0.75)
        assert present.charge == 0.5625 * 0.25
        assert (absent.new_factor_product, absent.charge) == (0.5, 0.875)
        # charged with G's plain, P present would read 0.75 * 0.5625 * 0.625
        # = 0.264 and clear 0.2; now it reads 0.105 and is dropped there
        sub = build_subproblem(net, a, 3)
        assert [e.parent_states for e in iter_extensions(net, sub, 0.2)] == [
            ((2, True),), ((2, False),)
        ]
        assert list(iter_level_extensions(net, a, 3, 0.2)) == [absent]
        _assert_oracle_at_every_gap(net, evidence)

    def test_outside_explainer_charged_for_its_explainers_absent_child(self):
        # H -> G -> P -> F and H -> A, with A observed absent and F present.
        # At level 3 the one free parent P has its parent G outside the
        # subproblem, and G's one parent H is an outside root that also
        # feeds the absent A.  H explaining G takes A's 1-q 0.5 too, so
        # h'(G) = (1 - 0.875 * 0.5) * 0.5 * 0.5 = 0.140625, not 0.28125, and
        # P present is charged plain_P * h'(G) = 0.53125 * 0.140625: exactly
        # the factors of H, G and P and the part of A's factor that H takes
        # in P present's best completion, H and G present.  Dyadic
        # parameters keep every product exact.
        net = parse_network(
            "node H prior 0.5\nnode G leak 0.125 parents H:0.5\n"
            "node A leak 0.25 parents H:0.5\nnode P leak 0.0625 parents G:0.5\n"
            "node F leak 0.5 parents P:0.5\n"
        )
        evidence = [(2, False), (4, True)]
        a = Assignment.from_evidence(net, evidence)
        present, absent = iter_level_extensions(net, a, 3, _TINY)
        assert (present.parent_states, present.new_factor_product) == (((3, True),), 0.75)
        assert present.charge == 0.53125 * 0.140625
        assert (absent.new_factor_product, absent.charge) == (0.5, 0.9375)
        # with G's own explainer not charged for A, P present would read
        # 0.75 * 0.53125 * 0.28125 = 0.112 and clear 0.1; now it reads 0.056
        # and is dropped there (its best completion's joint is 0.042)
        sub = build_subproblem(net, a, 3)
        assert [e.parent_states for e in iter_extensions(net, sub, 0.1)] == [
            ((3, True),), ((3, False),)
        ]
        assert list(iter_level_extensions(net, a, 3, 0.1)) == [absent]
        _assert_oracle_at_every_gap(net, evidence)


class TestEpsilonMl:
    def test_chain3_level2_thresholds(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)

        high = list(iter_extensions(chain3, sub, 0.1))
        assert [(dict(e.parent_states)[1], e.new_factor_product) for e in high] == [
            (True, pytest.approx(0.905, abs=1e-15))
        ]

        both = list(iter_extensions(chain3, sub, 0.01))
        got = {dict(e.parent_states)[1]: e.new_factor_product for e in both}
        assert got[True] == pytest.approx(0.905, abs=1e-15)
        assert got[False] == pytest.approx(0.05, abs=1e-15)

    def test_chain3_level1_includes_root_prior(self, chain3):
        a = Assignment.from_evidence(chain3, [(1, True), (2, True)])
        sub = build_subproblem(chain3, a, 1)
        only = list(iter_extensions(chain3, sub, 0.12))
        assert len(only) == 1
        assert dict(only[0].parent_states)[0] is True
        assert only[0].new_factor_product == pytest.approx(0.82 * 0.2, abs=1e-15)
        # absent misses: 0.1 * 0.8 = 0.08 < 0.12
        both = list(iter_extensions(chain3, sub, 0.05))
        assert len(both) == 2

    def test_matches_brute_force_on_random_two_level(self):
        r = SplitMix64(99)
        for seed in range(60):
            net, sub = _two_level_subproblem(seed)
            brute = _brute_extensions(net, sub)
            eps = 10.0 ** (-12 * r.random())
            got = list(iter_extensions(net, sub, eps))
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
                keys = {_ext_key(sub, e) for e in iter_extensions(net, sub, eps)}
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
                got = {_ext_key(sub, e) for e in iter_extensions(pruned, sub, eps)}
                assert got == {k for k, p in brute.items() if p >= eps}
            checked += 1
        assert checked >= 10

    def test_extension_product_recomputes(self):
        for seed in range(10):
            net, sub = _two_level_subproblem(seed)
            for ext in iter_extensions(net, sub, 1e-9):
                assert upper_bound(net, sub, dict(ext.parent_states)) == (
                    ext.new_factor_product
                )

    def test_matches_brute_force_in_diagnostic_regime(self):
        # thresholds at, just above and just below each subproblem's best
        # product, plus powers of ten; some of them must be rejected at entry
        # although the per-node bound of the empty decision clears them, and
        # the one-call form must yield the two-step form's extensions that
        # clear each once charged
        checked = rejected_at_entry = 0
        for seed in range(25):
            for net, a, level, sub in _diagnostic_subproblems(seed):
                brute = _brute_extensions(net, sub)
                # the search's own leaf products (nothing is pruned at 0)
                leaf = {
                    _ext_key(sub, e): e.new_factor_product for e in iter_extensions(net, sub, 0.0)
                }
                assert leaf == pytest.approx(brute, rel=1e-12)
                top = max(brute.values())
                eps_values = [top, top * (1 + 1e-12), top * (1 - 1e-12)]
                eps_values += [10.0**-k for k in range(1, 16)]
                for eps in eps_values:
                    stats = {}
                    exts = list(iter_extensions(net, sub, eps, stats))
                    assert list(iter_level_extensions(net, a, level, eps)) == _charged(
                        net, a, level, exts, eps
                    )
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
        # the search prices P by its factor pair (w, 1 - w), as it would a root
        w = 0.9 * (1.0 - 0.8)
        products = {e.parent_states: e.new_factor_product for e in iter_extensions(net, sub, 0.0)}
        assert products == pytest.approx(
            {((1, True),): 0.905 * (1.0 - w), ((1, False),): 0.05 * w}, rel=1e-15
        )
        assert _brute_extensions(net, sub) == pytest.approx(
            {(True,): 0.905 * 0.82, (False,): 0.05 * 0.18}, rel=1e-12
        )
        # P absent: 0.05 without P's factor, 0.009 with it; 0.02 lies between
        exts = list(iter_extensions(net, sub, 0.02))
        assert [e.parent_states for e in exts] == [((1, True),)]
        assert list(iter_level_extensions(net, a, 2, 0.02)) == exts
        for ext in iter_extensions(net, sub, 0.0):
            assert upper_bound(net, sub, dict(ext.parent_states)) == ext.new_factor_product
            # the engine folds in the same factors once the extension is applied
            before = a.known_factor_product
            token = a.assign(ext.parent_states)
            assert ext.new_factor_product == pytest.approx(
                a.known_factor_product / before, rel=1e-15
            )
            a.undo(token)
        # so the engine never builds the P-absent state it would reject
        res = top_epsilon(net, evidence, 0.3 * 0.02)
        assert (res.states_explored, res.accepted_count) == (2, 1)
        # unlike a root, a pseudo-root tries present first even when absent
        # is the likelier state (R absent leaves P only its leak)
        b = Assignment.from_evidence(net, [(0, False), (2, True)])
        sub_b = build_subproblem(net, b, 2)
        w_b = 1.0 - 0.1
        exts = list(iter_extensions(net, sub_b, 0.0))
        assert [e.parent_states for e in exts] == [((1, True),), ((1, False),)]
        assert [e.new_factor_product for e in exts] == pytest.approx(
            [0.905 * (1.0 - w_b), 0.05 * w_b], rel=1e-15
        )

    def test_factors_completed_inside_the_subproblem(self):
        # R -> P, R -> E, and R, P -> F with E and F observed: at level 2 both
        # R and P are free, so deciding them completes P's factor (its parent
        # is free here) and E's (an assigned node off the level)
        net = parse_network(
            "node R prior 0.3\nnode P leak 0.1 parents R:0.8\n"
            "node E leak 0.2 parents R:0.5\nnode F leak 0.05 parents R:0.4 P:0.9\n"
        )
        a = Assignment.from_evidence(net, [(2, True), (3, True)])
        sub = build_subproblem(net, a, 2)
        # R feeds P, E and F, P only F: R is searched first, P listed first
        assert sub.free_parents == (0, 1)

        def hand(p, r):
            w_p = 0.9 * (0.2 if r else 1.0)
            return (
                (1.0 - 0.95 * (0.1 if p else 1.0) * (0.6 if r else 1.0))
                * (0.3 if r else 0.7)
                * (1.0 - w_p if p else w_p)
                * (1.0 - 0.8 * (0.5 if r else 1.0))
            )

        exts = list(iter_extensions(net, sub, 0.0))
        assert len(exts) == 4
        for ext in exts:
            assert [p for p, _ in ext.parent_states] == [1, 0]
            states = dict(ext.parent_states)
            assert ext.new_factor_product == pytest.approx(hand(states[1], states[0]), rel=1e-12)
            assert upper_bound(net, sub, states) == ext.new_factor_product
            token = a.assign(ext.parent_states)
            assert a.known_factor_product == pytest.approx(ext.new_factor_product, rel=1e-15)
            a.undo(token)
        # once R is decided present it brings its prior 0.3 and completes E's
        # factor; P's counts as 1 until P is decided, and F treats P as
        # present
        bound = upper_bound(net, sub, {0: True})
        assert bound == pytest.approx(
            (1.0 - 0.95 * 0.1 * 0.6) * 0.3 * (1.0 - 0.8 * 0.5), rel=1e-15
        )
        assert bound >= max(hand(p, True) for p in (False, True))

    def test_search_order_apart_from_emission_order(self):
        # B, then C, then A by activation (q 0.9, 0.6, 0.5); C and A feed F
        # and G, B only F, so the search decides C, A, then B.  Each
        # extension lists its parents in the emission order (B, C, A); the
        # extensions are the brute-force filter and come as the search finds
        # them, in its order's branch order (C and A, unlikely roots, try
        # absent first; B, a likely one, present first).
        net = parse_network(
            "node A prior 0.2\nnode B prior 0.7\nnode C prior 0.3\n"
            "node F leak 0.05 parents A:0.3 B:0.9 C:0.6\n"
            "node G leak 0.05 parents A:0.5 C:0.2\n"
        )
        a = Assignment.from_evidence(net, [(3, True), (4, False)])
        sub = build_subproblem(net, a, 1)
        assert sub.free_parents == (2, 0, 1)
        branches = ((False, True), (False, True), (True, False))
        order = list(itertools.product(*branches))
        brute = _brute_extensions(net, sub)
        products = sorted(set(brute.values()))
        assert len(products) == 8
        mids = [(lo + hi) / 2 for lo, hi in zip(products, products[1:])]
        for eps in [0.0] + mids[::2]:
            exts = list(iter_extensions(net, sub, eps))
            for ext in exts:
                assert [p for p, _ in ext.parent_states] == [1, 2, 0]
            got = [_ext_key(sub, ext) for ext in exts]
            assert set(got) == {bits for bits, prod in brute.items() if prod >= eps}
            assert got == [bits for bits in order if brute[bits] >= eps]
            for ext, bits in zip(exts, got):
                assert ext.new_factor_product == pytest.approx(brute[bits], rel=1e-12)
            # the engine's form keeps the same order
            charged = list(iter_level_extensions(net, a, 1, eps))
            assert [e.parent_states for e in charged] == [e.parent_states for e in exts]

    def test_rejected_at_entry_still_fills_stats(self):
        # an explanation by the rare root costs its prior, and the leak alone
        # gives 0.01; the per-node bound of the empty decision reads 0.998
        net = parse_network("node R prior 0.001\nnode F leak 0.01 parents R:0.999\n")
        sub = build_subproblem(net, Assignment.from_evidence(net, [(1, True)]), 1)
        assert upper_bound(net, sub, {}) > 0.5
        stats = {}
        assert list(iter_extensions(net, sub, 0.5, stats)) == []
        assert stats == {"nodes": 0}

    def test_rejects_negative_epsilon(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        sub = build_subproblem(chain3, a, 2)
        with pytest.raises(NetworkError):
            iter_extensions(chain3, sub, -0.1)

    def test_lazy_generator_with_bounded_depth(self):
        net, sub = _two_level_subproblem(3)
        stats = {}
        it = iter_extensions(net, sub, 0.0, stats=stats)
        assert inspect.isgenerator(it)
        for _ in it:
            pass
        assert stats["nodes"] <= 2 ** (len(sub.free_parents) + 1)

    def test_first_extension_comes_at_the_first_leaf(self):
        # at 0 nothing is pruned, so the first extension comes once the
        # search has decided each of the 15 free parents, not after all
        # 2**16 - 2 inner nodes
        text = "".join(f"node R{i} prior 0.5\n" for i in range(15))
        text += "node F leak 0.1 parents " + " ".join(f"R{i}:0.5" for i in range(15))
        net = parse_network(text)
        sub = build_subproblem(net, Assignment.from_evidence(net, [(15, True)]), 1)
        assert len(sub.free_parents) == 15
        stats = {}
        it = iter_extensions(net, sub, 0.0, stats)
        next(it)
        assert stats["nodes"] == 15
        assert sum(1 for _ in it) == 2**15 - 1
        assert stats["nodes"] == 2**16 - 2


class TestSearchCounters:
    def test_bn3_case_counters(self, monkeypatch):
        # one bn3 case at 26 findings, each searched subproblem replayed
        # through the public two-step form; exact counts, so a change to the
        # search, its pruning or the engine's context memo shows up here
        # rather than as benchmark noise.  The two-step form charges
        # nothing, so "nodes" counts the inner nodes of the uncharged search
        # at each state the engine searches, and "charged" the extensions
        # that the engine's charged form drops
        pruned, evidence = bn3_case()
        counts = {"searches": 0, "nodes": 0, "charged": 0}
        # the engine's own charged search passes no stats dict, so its inner
        # nodes are counted by handing each of its _dfs calls this one
        engine_stats = {}
        dfs = nobn.epsilonml._dfs

        def engine_dfs(tables, stats):
            return dfs(tables, engine_stats if stats is None else stats)

        monkeypatch.setattr(nobn.epsilonml, "_dfs", engine_dfs)
        # and its searches rejected at entry by wrapping the value pass
        bind = nobn.epsilonml._bind
        rejects = 0

        def engine_bind(net, plan, values, epsilon, charged=False):
            nonlocal rejects
            tables = bind(net, plan, values, epsilon, charged)
            rejects += charged and tables is None
            return tables

        monkeypatch.setattr(nobn.epsilonml, "_bind", engine_bind)

        def replayed(n, a, level, eps):
            stats = {}
            exts = list(iter_extensions(n, build_subproblem(n, a, level), eps, stats))
            kept = list(iter_level_extensions(n, a, level, eps))
            counts["searches"] += 1
            counts["nodes"] += stats["nodes"]
            counts["charged"] += len(exts) - len(kept)
            return iter(kept)

        monkeypatch.setattr(nobn.engine, "iter_level_extensions", replayed)
        assign = Assignment.assign
        assigns = 0

        def counted(a, pairs):
            nonlocal assigns
            assigns += 1
            return assign(a, pairs)

        monkeypatch.setattr(Assignment, "assign", counted)
        rescaled = Assignment.rescaled_threshold
        expansions = 0

        def expanded(a, epsilon):
            # the engine poses a subproblem at every incomplete state whose
            # rescaled threshold exists (no forced branch runs here), whether
            # it searches it or reuses a recurring context's extensions
            nonlocal expansions
            eps_new = rescaled(a, epsilon)
            expansions += a.unassigned_count > 0 and eps_new is not None
            return eps_new

        monkeypatch.setattr(Assignment, "rescaled_threshold", expanded)
        res = top_epsilon(pruned, evidence, 1e-12)
        assert (res.states_explored, res.accepted_count) == (60, 11)
        # 1 of the 49 expansions reuses a context's extensions
        assert expansions == 49
        # the engine's search drops 238 of the uncharged form's extensions,
        # and visits fewer inner nodes than the uncharged search; its entry
        # check, which also takes the one explanation charge, rejects 21 of
        # the 48 searches before any inner node
        assert counts == {"searches": 48, "nodes": 2410, "charged": 238}
        assert engine_stats == {"nodes": 1124}
        assert rejects == 21
        # one assign per explored state: the evidence, then one batch per
        # applied extension
        assert assigns == res.states_explored
        # states the engine rejects at its prefix or leaf test: none, since
        # each extension's product covers every factor it completes
        assert res.states_explored - expansions - res.accepted_count == 0

    @pytest.mark.parametrize(
        "index, counts", [(0, (473, 138)), (1, (864, 284)), (2, (892, 272))]
    )
    def test_bn3_f83_counters(self, index, counts):
        # the end-to-end bench shape: a bn3 case at 83 findings, searched to
        # the 1e-30 gold; exact (states explored, accepted) pairs
        pruned, evidence = bn3_case(83, index)
        res = top_epsilon(pruned, evidence, 1e-30)
        assert (res.states_explored, res.accepted_count) == counts

    @pytest.mark.parametrize(
        "index, counts", [(0, (1126, 122)), (1, (943, 98)), (2, (983, 99))]
    )
    def test_bn3_f26_counters(self, index, counts):
        # the deep-search bench shape: a bn3 case at 26 findings, searched to
        # 1e-20, the last threshold of the default schedule; exact (states
        # explored, accepted) pairs
        pruned, evidence = bn3_case(26, index)
        res = top_epsilon(pruned, evidence, 1e-20)
        assert (res.states_explored, res.accepted_count) == counts


class TestUpperBound:
    def test_single_finding_no_leak(self):
        net = parse_network(
            "node R prior 0.5\nnode P leak 0.1 parents R:0.5\n"
            "node F leak 0 parents P:0.9\n"
        )
        a = Assignment.from_evidence(net, [(2, True)])
        sub = build_subproblem(net, a, 2)
        assert upper_bound(net, sub, {}) == pytest.approx(0.9, abs=1e-15)

    def test_undecided_root_counts_as_1(self):
        # a root's factor counts as 1 until it is decided, as every factor
        # does before its last free variable is
        net = parse_network("node R prior 0.2\nnode F leak 0.1 parents R:0.9\n")
        sub = build_subproblem(net, Assignment.from_evidence(net, [(1, True)]), 1)
        assert upper_bound(net, sub, {}) == pytest.approx(0.91, abs=1e-15)
        assert upper_bound(net, sub, {0: True}) == pytest.approx(0.91 * 0.2, abs=1e-15)

    def test_chain3_empty_decision_dominates(self, chain3):
        a = Assignment.from_evidence(chain3, [(1, True), (2, True)])
        sub = build_subproblem(chain3, a, 1)
        bound = upper_bound(chain3, sub, {})
        assert bound >= 0.82 * 0.2
        assert bound >= 0.1 * 0.8

    def test_complete_decision_equals_product(self):
        for net, sub in _bound_subproblems(15):
            for ext in iter_extensions(net, sub, 0.0):
                assert upper_bound(net, sub, dict(ext.parent_states)) == (
                    ext.new_factor_product
                )

    def test_admissible_on_every_prefix(self):
        # exact domination of all completions, checked exhaustively
        for net, sub in _bound_subproblems(25):
            if len(sub.free_parents) > 10:
                continue
            free = sub.free_parents
            exts = list(iter_extensions(net, sub, 0.0))
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
        exts = list(iter_extensions(net, sub, 0.0))
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
