"""Model-layer tests: parsing, levels, factors, assignments, pruning."""

from __future__ import annotations

import math

import pytest

from nobn import (
    Assignment,
    NetParseError,
    Network,
    NetworkError,
    NodeSpec,
    SplitMix64,
    Tally,
    cpt_probability,
    derive_seed,
    exact_inference,
    joint_probability,
    nps_holds,
    parse_evidence,
    parse_network,
    partial_probability,
    print_network,
    prune_barren,
)
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


class TestCptProbability:
    def test_two_present_parents_no_leak(self):
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0 parents A:0.5 B:0.5"
        )
        assert cpt_probability(net, 2, True, {0: True, 1: True}) == pytest.approx(0.75)

    def test_all_parents_absent_gives_leak(self):
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode C leak 0.3 parents A:0.5 B:0.5"
        )
        assert cpt_probability(net, 2, True, {0: False, 1: False}) == pytest.approx(0.3)

    def test_leak_with_one_present_parent(self):
        net = parse_network("node A prior 0.5\nnode B leak 0.1 parents A:0.8")
        assert cpt_probability(net, 1, True, {0: True}) == pytest.approx(0.82)
        assert cpt_probability(net, 1, False, {0: True}) == pytest.approx(0.18)

    def test_missing_parent_state(self):
        net = parse_network("node A prior 0.5\nnode B leak 0.1 parents A:0.8")
        with pytest.raises(NetworkError, match="missing state"):
            cpt_probability(net, 1, True, {})

    def test_root_rejected(self, chain3):
        with pytest.raises(NetworkError, match="root"):
            cpt_probability(chain3, 0, True, {})

    def test_monotone_in_present_set(self):
        # turning any parent present can only raise P(present)
        r = SplitMix64(7)
        net = parse_network(
            "node A prior 0.5\nnode B prior 0.5\nnode D prior 0.5\n"
            "node C leak 0.05 parents A:0.4 B:0.7 D:0.2"
        )
        for _ in range(50):
            states = {i: r.random() < 0.5 for i in range(3)}
            p0 = cpt_probability(net, 3, True, states)
            for flip in range(3):
                if not states[flip]:
                    more = dict(states)
                    more[flip] = True
                    assert cpt_probability(net, 3, True, more) >= p0


def _pair_cpt_entries(leak: float, q1: float, q2: float):
    """The four restricted entries for a parent pair, other parents absent."""
    m = 1.0 - leak
    return (
        1.0 - m * (1.0 - q1) * (1.0 - q2),  # both present
        leak,                               # both absent
        1.0 - m * (1.0 - q1),               # first only
        1.0 - m * (1.0 - q2),               # second only
    )


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


class TestNps:
    def test_noisy_or_without_leak(self):
        assert nps_holds(*_pair_cpt_entries(0.0, 0.5, 0.5))

    def test_equal_entries_fail_strictness(self):
        assert not nps_holds(0.5, 0.5, 0.5, 0.5)

    def test_with_leak(self):
        # evaluated entries: 0.856 * 0.2 = 0.1712 < 0.76 * 0.52 = 0.3952
        entries = _pair_cpt_entries(0.2, 0.7, 0.4)
        assert entries == pytest.approx((0.856, 0.2, 0.76, 0.52))
        assert nps_holds(*entries)

    def test_universal_over_generated_networks(self):
        for seed in range(20):
            net = small_random_net(seed)
            for spec in net.nodes:
                if spec.is_root or len(spec.links) < 2 or spec.leak >= 1.0:
                    continue
                qs = [q for _, q in spec.links]
                for i in range(len(qs)):
                    for j in range(i + 1, len(qs)):
                        if qs[i] > 0 and qs[j] > 0:
                            assert nps_holds(
                                *_pair_cpt_entries(spec.leak, qs[i], qs[j])
                            )


class TestFactorProducts:
    def test_partial_empty_assignment(self, chain3):
        assert partial_probability(chain3, Assignment(chain3)) == 1.0

    def test_partial_only_child_assigned(self, chain3):
        a = Assignment(chain3)
        a.assign(2, True)
        assert partial_probability(chain3, a) == 1.0

    def test_partial_b_and_c(self, chain3):
        # only C's factor is known: P(C=p | B=p) = 0.905
        a = Assignment(chain3)
        a.assign(1, True)
        a.assign(2, True)
        assert partial_probability(chain3, a) == pytest.approx(0.905, abs=1e-15)

    def test_joint_all_present(self, chain3):
        a = Assignment(chain3).extended([(0, True), (1, True), (2, True)])
        expected = 0.2 * 0.82 * 0.905
        assert joint_probability(chain3, a) == pytest.approx(expected, rel=1e-12)
        assert abs(expected - 0.14842) < 1e-12

    def test_joint_low_path(self, chain3):
        a = Assignment(chain3).extended([(0, False), (1, False), (2, True)])
        assert joint_probability(chain3, a) == pytest.approx(0.036, rel=1e-12)

    def test_joint_rejects_incomplete(self, chain3):
        a = Assignment(chain3).extended([(2, True)])
        with pytest.raises(NetworkError, match="incomplete"):
            joint_probability(chain3, a)

    def test_zero_prior_annihilates(self):
        net = parse_network("node A prior 0\nnode B leak 0.5 parents A:0.5")
        a = Assignment(net).extended([(0, True), (1, False)])
        assert joint_probability(net, a) == 0.0

    def test_evidence_nodes_never_reassigned(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        with pytest.raises(NetworkError, match="already assigned"):
            a.assign(2, False)


class TestAssignmentCache:
    def test_coherence_over_random_walks(self):
        # cached product must track the from-scratch recomputation through
        # arbitrary interleavings of assign and undo
        for seed in range(15):
            net = small_random_net(seed)
            r = SplitMix64(derive_seed(seed, 0xE0))
            a = Assignment(net)
            tokens = []
            for _ in range(120):
                if tokens and r.random() < 0.4:
                    a.undo(tokens.pop())
                elif a.unassigned_count:
                    free = [i for i in range(len(net)) if a.state(i) is None]
                    nid = free[r.below(len(free))]
                    tokens.append(a.assign(nid, r.random() < 0.5))
                recomputed = partial_probability(net, a)
                assert a.known_factor_product == pytest.approx(
                    recomputed, rel=1e-12, abs=1e-300
                )

    def test_frontier_level_tracks_deepest_expandable(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        assert a.frontier_level() == 2
        token = a.assign(1, True)
        assert a.frontier_level() == 1
        inner = a.assign(0, True)
        assert a.frontier_level() is None
        a.undo(inner)
        a.undo(token)
        assert a.frontier_level() == 2

    def test_copy_is_independent(self, chain3):
        a = Assignment.from_evidence(chain3, [(2, True)])
        b = a.copy()
        b.assign(1, True)
        assert a.state(1) is None
        assert b.state(1) is True


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
