"""Model-layer tests: parsing, levels, factors, assignments, pruning."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from nobn import (
    Assignment,
    NetParseError,
    Network,
    NetworkError,
    NodeSpec,
    SplitMix64,
    Tally,
    derive_seed,
    exact_inference,
    node_factor,
    parse_evidence,
    parse_network,
    print_network,
    prune_barren,
)
import reference
from conftest import CHAIN3_TEXT, small_random_net

FIG3_TEXT = """\
node A prior 0.1
node B prior 0.3
node C leak 0.05 parents B:0.6
node E leak 0.02 parents A:0.5 C:0.7
"""


class TestParseNetwork:
    def test_chain3_structure(self, chain3):
        assert [s.name for s in chain3.nodes] == ["A", "B", "C"]
        assert chain3.levels == (0, 1, 2)
        assert chain3.max_level == 2
        assert chain3.nodes[0].prior == 0.2
        assert chain3.nodes[1].leak == 0.1
        assert chain3.nodes[1].links == ((0, 0.8),)
        assert chain3.arc_count == 2

    def test_unknown_parent(self):
        with pytest.raises(NetParseError, match="unknown parent"):
            parse_network("node X leak 0.1 parents Y:0.5")

    def test_cycle(self):
        text = "node A leak 0.1 parents B:0.5\nnode B leak 0.1 parents A:0.5"
        with pytest.raises(NetworkError, match="cycle"):
            parse_network(text)

    def test_duplicate_node(self):
        with pytest.raises(NetParseError, match="duplicate"):
            parse_network("node A prior 0.2\nnode A prior 0.3")

    def test_probability_out_of_range(self):
        with pytest.raises(NetParseError, match=r"out of \[0, 1\]"):
            parse_network("node A prior 1.5")
        with pytest.raises(NetParseError, match=r"out of \[0, 1\]"):
            parse_network("node A prior 0.2\nnode B leak -0.1 parents A:0.5")

    def test_syntax_errors_carry_location(self):
        with pytest.raises(NetParseError) as e:
            parse_network("node A prior 0.2\nnudge B prior 0.1")
        assert e.value.line == 2
        assert e.value.col == 1
        with pytest.raises(NetParseError) as e:
            parse_network("node A prior x")
        assert e.value.line == 1

    def test_malformed_link(self):
        with pytest.raises(NetParseError, match="malformed parent link"):
            parse_network("node A prior 0.2\nnode B leak 0.1 parents A")

    def test_duplicate_parent(self):
        with pytest.raises(NetParseError, match="twice"):
            parse_network("node A prior 0.2\nnode B leak 0.1 parents A:0.5 A:0.6")

    def test_comments_and_blanks(self):
        text = "\n# header\nnode A prior 0.2   # trailing\n\nnode B leak 0 parents A:1\n"
        net = parse_network(text)
        assert len(net) == 2

    def test_empty_text_is_empty_network(self):
        net = parse_network("")
        assert len(net) == 0
        assert net.max_level == -1
        assert print_network(net) == ""

    def test_roundtrip_chain3(self, chain3):
        assert parse_network(print_network(chain3)) == chain3

    def test_roundtrip_random_networks(self):
        for seed in range(25):
            net = small_random_net(seed)
            again = parse_network(print_network(net))
            assert again == net
            assert print_network(again) == print_network(net)


def _bfs_relabel(net: Network):
    """Repeated child-frontier relabeling; a node keeps the label it got last.

    Independent oracle for the longest-path labels the model computes.
    """
    if len(net) == 0:
        return (), -1
    levels = {}
    frontier = [i for i in range(len(net)) if net.nodes[i].is_root]
    for i in frontier:
        levels[i] = 0
    current = 0
    while True:
        successors = sorted({c for u in frontier for c in net.children[u]})
        if not successors:
            break
        current += 1
        for v in successors:
            levels[v] = current
        frontier = successors
    return tuple(levels[i] for i in range(len(net))), current


class TestLabelLevels:
    def test_fig3_shape_three_levels(self):
        # E is a child of both a root and a level-1 node: deepest path wins
        net = parse_network(FIG3_TEXT)
        assert net.levels == (0, 0, 1, 2)
        assert net.max_level == 2

    def test_single_isolated_root(self):
        net = parse_network("node A prior 0.5")
        assert (net.levels, net.max_level) == ((0,), 0)

    def test_chain(self, chain3):
        assert (chain3.levels, chain3.max_level) == ((0, 1, 2), 2)

    def test_matches_bfs_relabel_oracle(self):
        for seed in range(40):
            net = small_random_net(seed)
            assert (net.levels, net.max_level) == _bfs_relabel(net)

    def test_arcs_go_strictly_level_up(self):
        for seed in range(40):
            net = small_random_net(seed)
            for i, spec in enumerate(net.nodes):
                for p, _ in spec.links:
                    assert net.levels[p] < net.levels[i]


def _cpt(net, node, node_state, parent_states):
    """P(node state | parents) by the model's factor, which must equal the
    reference's bit for bit."""
    values = [None] * len(net)
    for p, state in parent_states.items():
        values[p] = state
    values[node] = node_state
    got = node_factor(net, node, values)
    assert got == reference.factor(net, node, values)
    return got


class TestCptProbability:
    def test_two_present_parents_no_leak(self):
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0 parents A:0.5 B:0.5"
        )
        assert _cpt(net, 2, True, {0: True, 1: True}) == pytest.approx(0.75)

    def test_all_parents_absent_gives_leak(self):
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0.3 parents A:0.5 B:0.5"
        )
        assert _cpt(net, 2, True, {0: False, 1: False}) == pytest.approx(0.3)

    def test_leak_with_one_present_parent(self):
        net = parse_network("node A prior 0.5\nnode B leak 0.1 parents A:0.8")
        assert _cpt(net, 1, True, {0: True}) == pytest.approx(0.82)
        assert _cpt(net, 1, False, {0: True}) == pytest.approx(0.18)

    def test_monotone_in_present_set(self):
        # turning any parent present can only raise P(present)
        r = SplitMix64(7)
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode D prior 0.5\n"
            "node C leak 0.05 parents A:0.4 B:0.7 D:0.2"
        )
        for _ in range(50):
            states = {i: r.random() < 0.5 for i in range(3)}
            p0 = _cpt(net, 3, True, states)
            for flip in range(3):
                if not states[flip]:
                    more = dict(states)
                    more[flip] = True
                    assert _cpt(net, 3, True, more) >= p0


def _pair_cpt_entries(net, node, first, second):
    """P(node present) by the model's factor with both of two parents
    present, neither, the first only and the second only, every other
    parent absent."""
    entries = []
    for pair in ((True, True), (False, False), (True, False), (False, True)):
        values = [False] * len(net)
        values[first], values[second] = pair
        values[node] = True
        entries.append(node_factor(net, node, values))
    return entries


def _nps_holds(p_ab, p_notab_notb, p_a_notb, p_nota_b):
    """Negative product synergy over the four restricted entries for a
    parent pair: strict inequality of the cross products."""
    return p_ab * p_notab_notb < p_a_notb * p_nota_b


class TestTally:
    def test_compensates_tiny_addends(self):
        t = Tally(1)
        naive = 1.0
        t.add((True,), 1.0)
        for _ in range(10_000):
            t.add((True,), 1e-17)
            naive += 1e-17
        exact = math.fsum([1.0] + [1e-17] * 10_000)
        assert naive == 1.0
        assert exact > 1.0
        assert t.mass == exact
        assert t.scores() == (exact,)

    def test_scores_count_present_nodes_only(self):
        t = Tally(3)
        t.add((True, False, True), 0.25)
        t.add((False, False, True), 0.5)
        assert t.mass == 0.75
        assert t.scores() == (0.25, 0.0, 0.75)

    def test_joints_at_different_exponents(self):
        # 0.6 * 2**-1024 and 0.2 * 2**-1024, the second scaled to a lower exponent
        first = ((True, False), 0.6, -1024)
        second = ((False, True), math.ldexp(0.2, 512), -1536)
        tallies = []
        for order in ((first, second), (second, first)):
            t = Tally(2)
            for values, joint, exponent in order:
                t.add(values, joint, exponent)
            tallies.append(t)
        a, b = tallies
        assert a.posteriors() == b.posteriors() == pytest.approx((0.75, 0.25), abs=1e-15)
        assert a.mass == b.mass == math.ldexp(0.6 + 0.2, -1024)

    def test_sum_rounds_once_in_every_order(self):
        # 1 + 2**-53 is a tie that 2**-106 breaks upward
        joints = [1.0, 2.0**-53, 2.0**-106]
        for order in itertools.permutations(joints):
            t = Tally(1)
            for joint in order:
                t.add((True,), joint)
            assert t.mass.hex() == t.scores()[0].hex() == math.fsum(joints).hex()
        assert math.fsum(joints).hex() == "0x1.0000000000001p+0"

    def test_one_mass_in_every_order(self):
        joints = [
            1.0, 6.162975822039162e-33, 6.16297582203916e-33,
            1.1102230246251565e-16, 6.162975822039163e-33,
        ]
        masses = set()
        for order in itertools.permutations(joints):
            t = Tally(0)
            for joint in order:
                t.add((), joint)
            masses.add(t.mass.hex())
        assert masses == {math.fsum(joints).hex()}

    def test_joints_far_apart_sum_exactly(self):
        # the second joint is half an ulp of the first, a tie that only the
        # third, 2**-1025 once scaled, breaks upward
        joints = [(2.0**-460, 0), (0.5, -512), (0.5, -1024)]
        exact = sum(Fraction(joint) * Fraction(2) ** exponent for joint, exponent in joints)
        assert float(exact) == 2.0**-460 + 2.0**-512
        for order in itertools.permutations(joints):
            t = Tally(1)
            for joint, exponent in order:
                t.add((True,), joint, exponent)
            assert t.mass == t.scores()[0] == float(exact)
            assert t.posteriors() == (1.0,)


class TestNps:
    def test_noisy_or_without_leak(self):
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0 parents A:0.5 B:0.5"
        )
        assert _nps_holds(*_pair_cpt_entries(net, 2, 0, 1))

    def test_equal_entries_fail_strictness(self):
        # links that never fire leave every entry at the leak
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0.5 parents A:0 B:0"
        )
        assert _pair_cpt_entries(net, 2, 0, 1) == [0.5] * 4
        assert not _nps_holds(*_pair_cpt_entries(net, 2, 0, 1))

    def test_with_leak(self):
        # evaluated entries: 0.856 * 0.2 = 0.1712 < 0.76 * 0.52 = 0.3952
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0.2 parents A:0.7 B:0.4"
        )
        entries = _pair_cpt_entries(net, 2, 0, 1)
        assert entries == pytest.approx((0.856, 0.2, 0.76, 0.52))
        assert _nps_holds(*entries)

    def test_universal_over_generated_networks(self):
        for seed in range(20):
            net = small_random_net(seed)
            for nid, spec in enumerate(net.nodes):
                if spec.is_root or len(spec.links) < 2 or spec.leak >= 1.0:
                    continue
                links = [(p, q) for p, q in spec.links if q > 0]
                for i in range(len(links)):
                    for j in range(i + 1, len(links)):
                        entries = _pair_cpt_entries(net, nid, links[i][0], links[j][0])
                        assert _nps_holds(*entries)


def _products(net, pairs):
    """The known product of the assignment ``pairs`` make, by the model's
    incremental product and by the reference."""
    a = Assignment(net)
    a.assign(pairs)
    assert a.known_exponent == 0
    return a.known_factor_product, reference.known_product(net, a.values)


class TestFactorProducts:
    def test_partial_empty_assignment(self, chain3):
        assert _products(chain3, []) == (1.0, 1.0)

    def test_partial_only_child_assigned(self, chain3):
        assert _products(chain3, [(2, True)]) == (1.0, 1.0)

    def test_partial_b_and_c(self, chain3):
        # only C's factor is known: P(C=p | B=p) = 0.905
        assert _products(chain3, [(1, True), (2, True)]) == pytest.approx(
            (0.905, 0.905), abs=1e-15
        )

    def test_joint_all_present(self, chain3):
        expected = 0.2 * 0.82 * 0.905
        got = _products(chain3, [(0, True), (1, True), (2, True)])
        assert got == pytest.approx((expected, expected), rel=1e-12)
        assert reference.joint(chain3, (True, True, True)) == got[1]
        assert abs(expected - 0.14842) < 1e-12

    def test_joint_low_path(self, chain3):
        got = _products(chain3, [(0, False), (1, False), (2, True)])
        assert got == pytest.approx((0.036, 0.036), rel=1e-12)

    def test_joint_rejects_incomplete(self, chain3):
        with pytest.raises(ValueError, match="incomplete"):
            reference.joint(chain3, (None, None, True))

    def test_zero_prior_annihilates(self):
        net = parse_network("node A prior 0\nnode B leak 0.5 parents A:0.5")
        assert _products(net, [(0, True), (1, False)]) == (0.0, 0.0)

    def test_evidence_nodes_never_reassigned(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])

        def snapshot():
            return (
                a.values,
                a.known_factor_product,
                a.known_exponent,
                a.unassigned_count,
                a.frontier_level(),
                list(a.raw_unassigned_parent_counts()),
                bytes(a._assigned),
            )

        before = snapshot()
        # the assigned node first, in the middle, last, or named twice: the
        # batch raises and leaves every part of the state as it was
        for batch in (
            [(2, False)],
            [(2, False), (0, True), (1, True)],
            [(0, True), (2, False), (1, True)],
            [(0, True), (1, True), (2, False)],
            [(1, True), (0, False), (1, False)],
        ):
            with pytest.raises(NetworkError, match="already assigned"):
                a.assign(batch)
            assert snapshot() == before
        a.assign([(0, True), (1, True)])
        assert a.known_factor_product == pytest.approx(0.14842, rel=1e-12)
        assert a.frontier_level() is None


class TestAssignmentCache:
    def test_coherence_over_random_walks(self):
        # the cached product must track the from-scratch recomputation
        # through arbitrary interleavings of assign and undo, and a batch of
        # 1-4 pairs must match the same pairs assigned one call each; the
        # flags of the assigned nodes, the counts of unassigned parents and
        # the frontier track them too, through rejected batches
        for seed in range(15):
            net = small_random_net(seed)
            r = SplitMix64(derive_seed(seed, 0xE0))
            a = Assignment(net)
            b = Assignment(net)
            tokens = []
            for _ in range(120):
                if tokens and r.random() < 0.4:
                    batch_token, single_tokens = tokens.pop()
                    a.undo(batch_token)
                    for token in reversed(single_tokens):
                        b.undo(token)
                elif a.unassigned_count:
                    free = [i for i in range(len(net)) if a.state(i) is None]
                    r.shuffle(free)
                    batch = [(nid, r.random() < 0.5) for nid in free[: 1 + r.below(4)]]
                    if len(batch) > 1 and r.random() < 0.3:
                        # an assigned node in the batch: rejected, nothing changes
                        taken = [i for i in range(len(net)) if a.state(i) is not None]
                        clash = taken[r.below(len(taken))] if taken else batch[0][0]
                        batch.insert(r.below(len(batch) + 1), (clash, True))
                        with pytest.raises(NetworkError, match="already assigned"):
                            a.assign(batch)
                    else:
                        tokens.append((a.assign(batch), [b.assign([pair]) for pair in batch]))
                assert a._assigned == b._assigned == bytes(
                    a.state(i) is not None for i in range(len(net))
                )
                assert (a.known_factor_product, a.known_exponent, a.frontier_level()) == (
                    b.known_factor_product,
                    b.known_exponent,
                    b.frontier_level(),
                )
                assert a.values == b.values
                assert a.unassigned_count == b.unassigned_count == a.values.count(None)
                pending = [
                    sum(a.state(p) is None for p, _ in spec.links) for spec in net.nodes
                ]
                assert a.raw_unassigned_parent_counts() == b.raw_unassigned_parent_counts()
                assert a.raw_unassigned_parent_counts() == pending
                expandable = [
                    net.levels[i]
                    for i in range(len(net))
                    if a.state(i) is not None and pending[i]
                ]
                assert a.frontier_level() == max(expandable, default=None)
                recomputed = reference.known_product(net, a.values)
                assert a.known_factor_product == pytest.approx(
                    recomputed, rel=1e-12, abs=1e-300
                )

    def test_schedule_hits_match_a_replay_that_misses(self):
        # Batches are re-applied over the same nodes, from the same assigned
        # nodes, with other states, so their schedules are looked up, not
        # built.  After every step a fresh instance replays the live batches
        # from empty, where every lookup builds, and the two must agree bit
        # for bit; a rejected batch after a hit changes nothing.
        for seed in range(15):
            net = small_random_net(seed)
            r = SplitMix64(derive_seed(seed, 0xE1))
            a = Assignment(net)
            live: list[tuple[list, object]] = []
            applied = 0

            def snapshot():
                return (
                    a.known_factor_product.hex(),
                    a.known_exponent,
                    a.values,
                    bytes(a._assigned),
                    list(a.raw_unassigned_parent_counts()),
                    a.frontier_level(),
                )

            for _ in range(100):
                if live and r.random() < 0.5:
                    # the same nodes in the same order, other states
                    batch, token = live.pop()
                    a.undo(token)
                    batch = [(nid, r.random() < 0.5) for nid, _ in batch]
                    live.append((batch, a.assign(batch)))
                    applied += 1
                    # a node of the batch just applied, alone or after a
                    # free one, and a free node named twice
                    before = snapshot()
                    taken = batch[r.below(len(batch))][0]
                    rejected = [[(taken, True)]]
                    free = [i for i in range(len(net)) if a.state(i) is None]
                    if free:
                        rejected.append([(free[0], True), (taken, False)])
                        rejected.append([(free[-1], True), (free[0], False), (free[-1], False)])
                    for bad in rejected:
                        with pytest.raises(NetworkError, match="already assigned"):
                            a.assign(bad)
                        assert snapshot() == before
                elif live and r.random() < 0.3:
                    a.undo(live.pop()[1])
                elif a.unassigned_count:
                    free = [i for i in range(len(net)) if a.state(i) is None]
                    r.shuffle(free)
                    batch = [(nid, r.random() < 0.5) for nid in free[: 1 + r.below(4)]]
                    live.append((batch, a.assign(batch)))
                    applied += 1
                b = Assignment(net)
                for batch, _ in live:
                    b.assign(batch)
                assert len(b._schedules) == len(live)
                assert snapshot() == (
                    b.known_factor_product.hex(),
                    b.known_exponent,
                    b.values,
                    bytes(b._assigned),
                    b.raw_unassigned_parent_counts(),
                    b.frontier_level(),
                )
                pending = [
                    sum(a.state(p) is None for p, _ in spec.links) for spec in net.nodes
                ]
                assert a.raw_unassigned_parent_counts() == pending
                expandable = [
                    net.levels[i]
                    for i in range(len(net))
                    if a.state(i) is not None and pending[i]
                ]
                assert a.frontier_level() == max(expandable, default=None)
            # the walk hit: fewer schedules than applied batches
            assert len(a._schedules) < applied

    def test_frontier_level_tracks_deepest_expandable(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        assert a.frontier_level() == 2
        token = a.assign([(1, True)])
        assert a.frontier_level() == 1
        inner = a.assign([(0, True)])
        assert a.frontier_level() is None
        a.undo(inner)
        a.undo(token)
        assert a.frontier_level() == 2


class TestPruneBarren:
    def test_chain_fully_relevant(self, chain3):
        pruned = prune_barren(chain3, [(2, True)], query={0, 1})
        assert pruned == chain3

    def test_leaf_sibling_removed(self):
        net = parse_network(CHAIN3_TEXT + "node D leak 0.1 parents A:0.3\n")
        pruned = prune_barren(net, [(2, True)], query={0})
        assert [s.name for s in pruned.nodes] == ["A", "B", "C"]

    def test_diamond_keeps_ancestry_only(self):
        text = (
            "node A prior 0.2\n"
            "node B leak 0.1 parents A:0.7\n"
            "node C leak 0.1 parents A:0.4\n"
            "node D leak 0.05 parents B:0.6 C:0.8\n"
        )
        net = parse_network(text)
        pruned = prune_barren(net, [(1, True)], query={0})
        assert [s.name for s in pruned.nodes] == ["A", "B"]
        # P(A | B) identical on the full and pruned networks
        full = exact_inference(net, [(1, True)])
        small = exact_inference(pruned, [(pruned.node_id("B"), True)])
        assert small.posteriors[pruned.node_id("A")] == pytest.approx(
            full.posteriors[0], abs=1e-12
        )

    def test_posteriors_unchanged_on_random_networks(self):
        from conftest import random_evidence

        for seed in range(12):
            net = small_random_net(seed, max_total=12)
            ev = random_evidence(net, seed)
            try:
                full = exact_inference(net, ev)
            except NetworkError:
                continue
            pruned = prune_barren(net, ev)
            pev = tuple(
                (pruned.node_id(net.nodes[nid].name), s) for nid, s in ev
            )
            small = exact_inference(pruned, pev)
            assert small.evidence_probability == pytest.approx(
                full.evidence_probability, rel=1e-12
            )
            for new_id, spec in enumerate(pruned.nodes):
                old_id = net.node_id(spec.name)
                assert small.posteriors[new_id] == pytest.approx(
                    full.posteriors[old_id], abs=1e-12
                )

    def test_levels_preserved_for_retained_nodes(self):
        for seed in range(12):
            net = small_random_net(seed)
            ev = [(len(net) - 1, True)]
            pruned = prune_barren(net, ev)
            for new_id, spec in enumerate(pruned.nodes):
                assert pruned.levels[new_id] == net.levels[net.node_id(spec.name)]


class TestEvidenceParsing:
    def test_basic(self, chain3):
        ev = parse_evidence("A absent\nC present\n", chain3)
        assert ev == ((0, False), (2, True))

    def test_unknown_name(self, chain3):
        with pytest.raises(NetParseError, match="unknown node"):
            parse_evidence("Z present", chain3)

    def test_bad_state(self, chain3):
        with pytest.raises(NetParseError, match="present"):
            parse_evidence("A maybe", chain3)

    def test_duplicate(self, chain3):
        with pytest.raises(NetParseError, match="twice"):
            parse_evidence("A present\nA absent", chain3)

    def test_comments_ok(self, chain3):
        assert parse_evidence("# none\n\nA present # hmm\n", chain3) == ((0, True),)


class TestNetworkConstruction:
    def test_programmatic_validation(self):
        with pytest.raises(NetworkError, match="no parents"):
            Network([NodeSpec("A", leak=0.1)])
        with pytest.raises(NetworkError, match="both"):
            Network([NodeSpec("A", prior=0.5, leak=0.1)])
        with pytest.raises(NetworkError, match="unknown id"):
            Network([NodeSpec("A", leak=0.1, links=((3, 0.5),))])

    def test_node_id_lookup(self, chain3):
        assert chain3.node_id("B") == 1
        with pytest.raises(NetworkError, match="unknown node"):
            chain3.node_id("Q")
