"""Property tests: the search against the brute-force oracle on random small
multi-level networks, pruned and unpruned (where the engine's forced branch
completes the nodes outside the evidence ancestry, each state tested against
the target once), invariance of the result under evidence order and
under renumbering of the nodes, the NET text round trip, the two rules the
engine's context memo relies on (states that share a context key have the
same extensions, and filtering a level's extensions by a higher threshold
is exact), the rule the level search's kept plans rely on (states with the
same frontier level have the same assigned nodes), that an extension's
product is the factor
applying it folds into the known product, that the engine's charged
product bounds the joint of every completion of the extension, that a
level search the engine finds empty leaves no completion at the target,
that every explanation record a plan keeps is the one a fresh pricing
gives, and that every joint the oracle and the engine report equals the
test-side noisy-OR reference's.

Needs Hypothesis (the ``test`` extra); skipped without it.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nobn import (  # noqa: E402
    Assignment,
    NetShape,
    Network,
    NodeSpec,
    SplitMix64,
    exact_inference,
    forward_sample,
    gen_network,
    instantiations_above,
    parse_network,
    print_network,
    top_epsilon,
)
import nobn.epsilonml  # noqa: E402
from nobn.engine import _context_keys  # noqa: E402
from nobn.epsilonml import iter_level_extensions  # noqa: E402
from nobn.oracle import enumerate_consistent  # noqa: E402
import reference  # noqa: E402
from conftest import pruned_with_evidence  # noqa: E402
from test_epsilonml import _TINY  # noqa: E402

# Two parameter regimes: generic links, and bn3's (rare roots,
# near-deterministic internal links, leaky findings), where most leaf
# rejects and pseudo-roots occur.
_REGIMES = (
    dict(),
    dict(
        prior_range=(2e-4, 2e-3),
        q_range=(0.995, 0.9995),
        leak_range=(1e-8, 1e-7),
        finding_leak_range=(0.01, 0.05),
    ),
)


_EPSILONS = st.sampled_from((0.0, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12, 1e-16))


def _generated(draw, min_levels, max_levels):
    """A generated net of ``min_levels`` to ``max_levels`` levels of 1 to 4
    nodes each, and a forward sample of it."""
    levels = draw(st.integers(min_levels, max_levels))
    counts = tuple(draw(st.integers(1, 4)) for _ in range(levels))
    shape = NetShape(
        levels=levels,
        nodes_per_level=counts,
        max_parents=draw(st.integers(1, 3)),
        parent_locality=draw(st.sampled_from((0.5, 0.9, 1.0))),
        seed=draw(st.integers(0, 2**32 - 1)),
        **draw(st.sampled_from(_REGIMES)),
    )
    net = gen_network(shape)
    return net, forward_sample(net, draw(st.integers(0, 2**32 - 1)))


@st.composite
def problems(draw):
    """(pruned net, evidence, epsilon): evidence on a random node subset of
    any level, sampled from the net so that it is possible."""
    net, sample = _generated(draw, 2, 4)
    observed = draw(
        st.lists(st.integers(0, len(net) - 1), min_size=1, max_size=len(net), unique=True)
    )
    evidence = tuple((nid, bool(sample.state(nid))) for nid in sorted(observed))
    pruned, pev = pruned_with_evidence(net, evidence)
    return pruned, pev, draw(_EPSILONS)


@st.composite
def unpruned_problems(draw):
    """(net, evidence, epsilon) on the generated net itself, barren nodes
    kept, so that the engine completes the nodes outside the evidence
    ancestry in its forced branch; the evidence may be empty, and at most 14
    nodes are free."""
    net, sample = _generated(draw, 2, 4)
    observed = draw(
        st.lists(
            st.integers(0, len(net) - 1),
            min_size=max(0, len(net) - 14),
            max_size=len(net),
            unique=True,
        )
    )
    evidence = tuple((nid, bool(sample.state(nid))) for nid in sorted(observed))
    return net, evidence, draw(_EPSILONS)


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _assert_oracle_set(net, evidence, epsilon, res):
    """The accepted set of ``res`` is the brute-force filter at ``epsilon``,
    up to last-bit ties, and each accepted joint is the oracle's."""
    got = dict(res.accepted)
    oracle = dict(instantiations_above(net, evidence, 0.0))
    expected = {k for k, j in oracle.items() if j >= epsilon}
    # the search's grouping of the factors and the oracle's product may
    # differ in the last bits, which decides a joint within them of epsilon
    ties = {k for k, j in oracle.items() if abs(j - epsilon) <= 1e-12 * epsilon}
    assert set(got) ^ expected <= ties
    for k, j in got.items():
        assert j == pytest.approx(oracle[k], rel=1e-12)


@_SETTINGS
@given(problems())
def test_accepted_set_equals_oracle(problem):
    net, evidence, epsilon = problem
    res = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    _assert_oracle_set(net, evidence, epsilon, res)


@_SETTINGS
@given(problems())
def test_joints_equal_the_reference(problem):
    # the oracle and the engine share the package's factor code, so their
    # joints are checked against the independent reference instead
    net, evidence, epsilon = problem
    joints = []
    for values, joint in enumerate_consistent(net, evidence):
        joints.append(reference.joint(net, values))
        assert joint == pytest.approx(joints[-1], rel=1e-12)
    mass = exact_inference(net, evidence).evidence_probability
    assert mass == pytest.approx(math.fsum(joints), rel=1e-12)
    res = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    for values, joint in res.accepted:
        assert joint == pytest.approx(reference.joint(net, values), rel=1e-12)


@_SETTINGS
@given(unpruned_problems())
def test_forced_branch_equals_oracle_and_tests_each_state_once(problem):
    net, evidence, epsilon = problem
    rescaled = Assignment.rescaled_threshold
    calls = 0

    def spy(a, eps):
        nonlocal calls
        calls += 1
        return rescaled(a, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Assignment, "rescaled_threshold", spy)
        res = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    _assert_oracle_set(net, evidence, epsilon, res)
    # every state, forced children included, is tested against the target
    # exactly once
    assert res.states_explored == calls


@_SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_invariant_under_evidence_order(problem, seed):
    net, evidence, epsilon = problem
    shuffled = list(evidence)
    SplitMix64(seed).shuffle(shuffled)
    first = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    second = top_epsilon(net, shuffled, epsilon, keep_accepted=True)
    assert first.accepted == second.accepted
    assert (first.mass_accumulated, first.posteriors, first.states_explored) == (
        second.mass_accumulated,
        second.posteriors,
        second.states_explored,
    )


def _relabel(net, order):
    """The net with node ``order[k]`` renumbered ``k``; names, parameters and
    the order of each node's links are kept."""
    new_id = {old: new for new, old in enumerate(order)}
    specs = []
    for old in order:
        spec = net.nodes[old]
        if not spec.is_root:
            links = tuple((new_id[p], q) for p, q in spec.links)
            spec = NodeSpec(spec.name, leak=spec.leak, links=links)
        specs.append(spec)
    return Network(specs), new_id


@st.composite
def relabelled_problems(draw):
    """A problem, and the same problem under any permutation of the node
    ids (parents may then follow their children in the NET text)."""
    net, evidence, epsilon = draw(problems())
    moved, new_id = _relabel(net, draw(st.permutations(range(len(net)))))
    moved_evidence = tuple(sorted((new_id[nid], state) for nid, state in evidence))
    return net, evidence, epsilon, moved, moved_evidence


def _by_name(net, res):
    names = [spec.name for spec in net.nodes]
    return {frozenset(zip(names, values)): j for values, j in res.accepted}


@_SETTINGS
@given(relabelled_problems())
def test_invariant_under_relabelling(problem):
    net, evidence, epsilon, moved, moved_evidence = problem
    first = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    second = top_epsilon(moved, moved_evidence, epsilon, keep_accepted=True)
    want, got = _by_name(net, first), _by_name(moved, second)
    # the new ids regroup the factors, so a joint within the last bits of
    # epsilon may be decided differently; nothing else may change
    differ = want.keys() ^ got.keys()
    joints = {**want, **got}
    assert all(abs(joints[k] - epsilon) <= 1e-12 * epsilon for k in differ)
    for k in want.keys() & got.keys():
        assert got[k] == pytest.approx(want[k], rel=1e-12)
    first_ties = sum(want[k] for k in differ if k in want)
    second_ties = sum(got[k] for k in differ if k in got)
    assert second.mass_accumulated - second_ties == pytest.approx(
        first.mass_accumulated - first_ties, rel=1e-12, abs=1e-12 * epsilon
    )


@_SETTINGS
@given(relabelled_problems())
def test_net_text_round_trips(problem):
    for net in (problem[0], problem[3]):
        text = print_network(net)
        parsed = parse_network(text)
        assert parsed == net
        assert print_network(parsed) == text


@st.composite
def frontier_states(draw):
    """(net, assignment, frontier level): the evidence of a problem, then up
    to three drawn extensions of the successive frontiers."""
    net, evidence, _ = draw(problems())
    a = Assignment.from_evidence(net, evidence)
    level = a.frontier_level()
    for _ in range(draw(st.integers(0, 3))):
        if level is None:
            break
        ext = draw(st.sampled_from(list(iter_level_extensions(net, a, level, 0.0))))
        token = a.assign(ext.parent_states)
        shallower = a.frontier_level()
        if shallower is None:
            a.undo(token)
            break
        level = shallower
    return net, a, level


def _bits(exts):
    return [
        (ext.parent_states, ext.new_factor_product.hex(), ext.charge.hex()) for ext in exts
    ]


@_SETTINGS
@given(frontier_states(), st.data())
def test_filtered_extensions_equal_a_search_at_the_higher_threshold(state, data):
    net, a, level = state
    hypothesis.assume(level is not None)
    # charges are priced at positive thresholds only; within one engine call
    # the thresholds are all positive or all 0, so the memo filters a list
    # found at a positive threshold only
    products = [
        p
        for e in iter_level_extensions(net, a, level, _TINY)
        for p in (e.new_factor_product, e.new_factor_product * e.charge)
    ]
    # epsilon2 is an extension's own product, or that product charged, so
    # the filter meets exact ties
    eps2 = data.draw(st.sampled_from(products), label="eps2")
    eps1 = data.draw(
        st.sampled_from([eps2 / 2] + [p for p in products if p <= eps2]), label="eps1"
    )
    hypothesis.assume(eps1 > 0)
    kept = list(iter_level_extensions(net, a, level, eps1))
    # the context memo's own filter
    filtered = [e for e in kept if e.clears(eps2)]
    assert _bits(filtered) == _bits(iter_level_extensions(net, a, level, eps2))


@_SETTINGS
@given(problems())
def test_extension_product_is_what_assign_folds_in(problem):
    # Walk the engine's search tree from the evidence: every extension's
    # product is the factor by which applying it moves the known product,
    # so no child falls below the target as soon as it is built.
    net, evidence, epsilon = problem
    a = Assignment.from_evidence(net, evidence)
    visited = 0

    def walk():
        nonlocal visited
        # a positive target's rescaled threshold stays positive, so the
        # engine's memo never filters a list searched at 0 by a positive one
        for eps in (_TINY, 1.0, epsilon):
            if eps > 0:
                rescaled = a.rescaled_threshold(eps)
                assert rescaled is None or rescaled > 0
        level = a.frontier_level()
        eps_new = a.rescaled_threshold(epsilon)
        if level is None or eps_new is None or not a.known_factor_product or visited >= 300:
            return
        visited += 1
        product, exponent = a.known_factor_product, a.known_exponent
        for ext in list(iter_level_extensions(net, a, level, eps_new)):
            token = a.assign(ext.parent_states)
            moved = math.ldexp(a.known_factor_product, a.known_exponent - exponent) / product
            assert moved == pytest.approx(ext.new_factor_product, rel=1e-12)
            assert a.rescaled_threshold(epsilon) is not None
            walk()
            a.undo(token)

    walk()


@st.composite
def deep_problems(draw):
    """(pruned net, evidence, epsilon) on 3 to 5 levels, with evidence on
    the deepest level and on a few other nodes, so that most free parents
    have parents of their own outside the subproblem."""
    net, sample = _generated(draw, 3, 5)
    deepest = net.level_nodes[net.max_level]
    observed = draw(st.lists(st.sampled_from(deepest), min_size=1, unique=True))
    observed += draw(st.lists(st.integers(0, len(net) - 1), max_size=2, unique=True))
    evidence = tuple((nid, bool(sample.state(nid))) for nid in sorted(set(observed)))
    pruned, pev = pruned_with_evidence(net, evidence)
    return pruned, pev, draw(_EPSILONS)


@_SETTINGS
@given(deep_problems())
def test_charged_product_bounds_every_completion(problem):
    # Walk the engine's search tree from the evidence.  At each state with
    # at most 10 unassigned nodes, every completion of the assignment agrees
    # with exactly one extension yielded, charged, at the smallest positive
    # threshold (only a charged product of 0 is dropped there, and these
    # nets have none), and its joint, by the oracle, is at most the known
    # product times that extension's product and charge: the charge bounds
    # every factor the extension leaves open, so the engine drops no
    # extension with a completion at or above its target.
    net, evidence, epsilon = problem
    a = Assignment.from_evidence(net, evidence)
    visited = 0

    def check(level):
        if a.unassigned_count > 10:
            return
        exts = {
            ext.parent_states: ext for ext in iter_level_extensions(net, a, level, _TINY)
        }
        parents = next(iter(exts))
        known = math.ldexp(a.known_factor_product, a.known_exponent)
        values = a.raw_values()
        assigned = [(nid, state) for nid, state in enumerate(values) if state is not None]
        for states, joint in enumerate_consistent(net, assigned):
            ext = exts[tuple((p, states[p]) for p, _ in parents)]
            assert joint <= known * ext.new_factor_product * ext.charge * (1.0 + 1e-12)

    def walk():
        nonlocal visited
        level = a.frontier_level()
        eps_new = a.rescaled_threshold(epsilon)
        if level is None or eps_new is None or visited >= 60:
            return
        visited += 1
        check(level)
        for ext in list(iter_level_extensions(net, a, level, eps_new)):
            token = a.assign(ext.parent_states)
            walk()
            a.undo(token)

    walk()


@_SETTINGS
@given(deep_problems())
def test_an_empty_level_search_leaves_no_completion_at_the_target(problem):
    # Walk the engine's search tree from the evidence.  At each state with
    # at most 10 unassigned nodes whose level search yields nothing at its
    # rescaled threshold, whether its entry check or its inner search found
    # it empty, no completion's joint, by the oracle, reaches the target
    # even shrunk by 1e-12 for rounding: every bound the engine prunes
    # with, the entry check's explanation charge included, is admissible.
    net, evidence, epsilon = problem
    hypothesis.assume(epsilon > 0)
    a = Assignment.from_evidence(net, evidence)
    visited = 0

    def walk():
        nonlocal visited
        level = a.frontier_level()
        eps_new = a.rescaled_threshold(epsilon)
        if level is None or eps_new is None or visited >= 300:
            return
        visited += 1
        exts = list(iter_level_extensions(net, a, level, eps_new))
        if not exts and a.unassigned_count <= 10:
            values = a.raw_values()
            assigned = [(nid, state) for nid, state in enumerate(values) if state is not None]
            for _, joint in enumerate_consistent(net, assigned):
                assert joint * (1.0 - 1e-12) < epsilon
        for ext in exts:
            token = a.assign(ext.parent_states)
            walk()
            a.undo(token)

    walk()


def _float_bits(x):
    """``x`` with every float, at any depth of tuples and lists, as hex."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_float_bits(y) for y in x]
    return x


@_SETTINGS
@given(deep_problems())
def test_kept_explanation_records_equal_a_fresh_pricing(problem):
    # Walk the engine's search tree from the evidence: every explanation
    # record the charged search takes from its plan (epsilonml._recall),
    # kept from an earlier state or priced now, equals bit for bit the
    # record _explanation prices with a fresh memo, and lists its position
    # under the watchers of exactly the positions that pricing returns.
    net, evidence, epsilon = problem
    hypothesis.assume(epsilon > 0)
    recall = nobn.epsilonml._recall
    explanation = nobn.epsilonml._explanation

    def checked(net, values, plan, memo, watchers, n, pos):
        before = list(watchers)
        path = recall(net, values, plan, memo, watchers, n, pos)
        fresh, watched = explanation(net, values, plan.pos_of, {}, n, pos)
        assert _float_bits(path) == _float_bits(fresh)
        assert [now[len(was):] for now, was in zip(watchers, before)] == [
            (pos,) if s in watched else () for s in range(len(watchers))
        ]
        return path

    a = Assignment.from_evidence(net, evidence)
    visited = 0

    def walk():
        nonlocal visited
        level = a.frontier_level()
        eps_new = a.rescaled_threshold(epsilon)
        if level is None or eps_new is None or visited >= 300:
            return
        visited += 1
        for ext in list(iter_level_extensions(net, a, level, eps_new)):
            token = a.assign(ext.parent_states)
            walk()
            a.undo(token)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nobn.epsilonml, "_recall", checked)
        walk()


@_SETTINGS
@given(deep_problems())
def test_states_sharing_a_context_key_have_the_same_extensions(problem):
    # Walk the search tree at threshold 0 from the evidence: every two
    # states whose frontier level L has the same context key yield the same
    # extensions, bit for bit, at the shared threshold epsilon.
    net, evidence, epsilon = problem
    a = Assignment.from_evidence(net, evidence)
    keys = _context_keys(net, a)
    first = {}
    visited = 0

    def walk():
        nonlocal visited
        level = a.frontier_level()
        if level is None or visited >= 300:
            return
        visited += 1
        if keys[level] is not None:
            got = _bits(iter_level_extensions(net, a, level, epsilon))
            assert first.setdefault((level, keys[level](a.raw_values())), got) == got
        for ext in list(iter_level_extensions(net, a, level, 0.0)):
            token = a.assign(ext.parent_states)
            walk()
            a.undo(token)

    walk()


@_SETTINGS
@given(deep_problems())
def test_states_with_one_frontier_level_have_the_same_assigned_nodes(problem):
    # Walk the search tree at threshold 0 from the evidence: every state
    # whose frontier is level L has the same assigned nodes, so one plan per
    # level serves every search of the walk (epsilonml._plans).
    net, evidence, _ = problem
    a = Assignment.from_evidence(net, evidence)
    first = {}
    visited = 0

    def walk():
        nonlocal visited
        level = a.frontier_level()
        if level is None or visited >= 300:
            return
        visited += 1
        assigned = bytes(a._assigned)
        assert first.setdefault(level, assigned) == assigned
        for ext in list(iter_level_extensions(net, a, level, 0.0)):
            token = a.assign(ext.parent_states)
            walk()
            a.undo(token)

    walk()


@st.composite
def problems_at_joints(draw):
    """A problem or a deep problem whose threshold is, half the time,
    exactly the joint of an instantiation the engine accepts at the drawn
    threshold."""
    net, evidence, epsilon = draw(st.one_of(problems(), deep_problems()))
    if draw(st.booleans()):
        accepted = top_epsilon(net, evidence, epsilon, keep_accepted=True).accepted
        joints = sorted({j for _, j in accepted if j > 0})
        if joints:
            epsilon = draw(st.sampled_from(joints))
    return net, evidence, epsilon


def _result_bits(res):
    return (
        res.states_explored,
        sorted((values, joint.hex()) for values, joint in res.accepted),
        res.mass_accumulated.hex(),
        None if res.posteriors is None else [p.hex() for p in res.posteriors],
    )


@_SETTINGS
@given(problems_at_joints())
def test_search_order_changes_no_result(problem):
    # the level search decides its free parents in its own order, and the
    # engine accepts instantiations in the order the search yields them;
    # searching in the emission order instead must leave the count of
    # states, the set of accepted joints and every mass and posterior bit as
    # they are
    net, evidence, epsilon = problem
    default = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nobn.epsilonml, "_search_order", lambda net, emit, values: emit)
        # plans built in the other order must not be reused
        mp.setattr(nobn.epsilonml, "_plans", (None, []))
        emitted = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    assert _result_bits(emitted) == _result_bits(default)
