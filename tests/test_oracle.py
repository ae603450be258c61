"""Enumeration-oracle tests: stream order, exact posteriors, threshold filter."""

from __future__ import annotations

import math

import pytest

from nobn import (
    FreeNodeCapError,
    ImpossibleEvidenceError,
    SplitMix64,
    enumerate_consistent,
    exact_inference,
    instantiations_above,
    parse_network,
)
from conftest import (
    CHAIN3_JOINTS,
    CHAIN3_P_EVIDENCE,
    random_evidence,
    small_random_net,
)


class TestEnumerateConsistent:
    def test_chain3_four_instantiations(self, chain3, chain3_ev_c):
        got = list(enumerate_consistent(chain3, chain3_ev_c))
        assert len(got) == 4
        # binary counting over free nodes (A, B) in id order, absent first
        expected_order = [(False, False), (False, True), (True, False), (True, True)]
        for (a, joint), key in zip(got, expected_order):
            assert a.values[:2] == key
            assert a.state(2) is True
            assert joint == pytest.approx(CHAIN3_JOINTS[key], rel=1e-14)

    def test_chain3_literal_joints(self, chain3, chain3_ev_c):
        joints = sorted(j for _, j in enumerate_consistent(chain3, chain3_ev_c))
        assert joints == pytest.approx([0.0018, 0.036, 0.0724, 0.14842], abs=1e-12)

    def test_everything_observed(self, chain3):
        ev = [(0, True), (1, False), (2, True)]
        got = list(enumerate_consistent(chain3, ev))
        assert len(got) == 1
        assert got[0][1] == pytest.approx(0.2 * 0.18 * 0.05, rel=1e-14)

    def test_three_free_nodes(self, chain3):
        assert len(list(enumerate_consistent(chain3, []))) == 8

    def test_cap(self, chain3):
        with pytest.raises(FreeNodeCapError):
            list(enumerate_consistent(chain3, [], cap=2))
        assert len(list(enumerate_consistent(chain3, [], cap=3))) == 8

    def test_joints_match_model_recomputation(self, chain3):
        from nobn import joint_probability

        for a, joint in enumerate_consistent(chain3, []):
            assert joint == pytest.approx(joint_probability(chain3, a), rel=1e-14)


class TestExactInference:
    def test_chain3_evidence_c(self, chain3, chain3_ev_c):
        res = exact_inference(chain3, chain3_ev_c)
        assert res.instantiation_count == 4
        assert res.evidence_probability == pytest.approx(CHAIN3_P_EVIDENCE, abs=1e-12)
        assert res.evidence_probability == pytest.approx(0.25862, abs=1e-12)
        assert res.posteriors[0] == pytest.approx(0.15022 / 0.25862, abs=1e-9)
        assert res.posteriors[1] == pytest.approx(0.22082 / 0.25862, abs=1e-9)
        assert res.posteriors[2] == 1.0

    def test_prior_recovery_without_evidence(self):
        net = parse_network("node A prior 0.2")
        res = exact_inference(net, [])
        assert res.evidence_probability == pytest.approx(1.0, abs=1e-15)
        assert res.posteriors[0] == pytest.approx(0.2, abs=1e-15)

    def test_impossible_evidence(self):
        net = parse_network("node A prior 0")
        with pytest.raises(ImpossibleEvidenceError):
            exact_inference(net, [(0, True)])

    def test_evidence_posteriors_are_indicators(self):
        for seed in range(10):
            net = small_random_net(seed, max_total=10)
            ev = random_evidence(net, seed)
            try:
                res = exact_inference(net, ev)
            except ImpossibleEvidenceError:
                continue
            for nid, state in ev:
                assert res.posteriors[nid] == (1.0 if state else 0.0)

    def test_total_mass_normalizes(self):
        for seed in range(12):
            net = small_random_net(seed, max_total=12)
            res = exact_inference(net, [])
            assert res.evidence_probability == pytest.approx(1.0, abs=1e-12)
            assert res.instantiation_count == 2 ** len(net)

    def test_long_chain_does_not_recurse(self):
        # 1,500 nodes in a chain, all but the root observed present: one free
        # node, two instantiations, and a depth no recursion limit allows
        n = 1500
        lines = ["node n0 prior 0.3"]
        lines += [f"node n{i} leak 0.01 parents n{i - 1}:0.9" for i in range(1, n)]
        net = parse_network("\n".join(lines))
        ev = [(i, True) for i in range(1, n)]
        res = exact_inference(net, ev)
        on = 1.0 - 0.99 * 0.1  # P(child present | parent present)
        root_p = 0.3 * on ** (n - 1)
        root_a = 0.7 * 0.01 * on ** (n - 2)
        assert res.instantiation_count == 2
        assert res.evidence_probability == pytest.approx(root_p + root_a, rel=1e-9)
        assert res.posteriors[0] == pytest.approx(root_p / (root_p + root_a), rel=1e-9)
        assert res.posteriors[n - 1] == 1.0


class TestInstantiationsAbove:
    def test_chain3_thresholds(self, chain3, chain3_ev_c):
        top = instantiations_above(chain3, chain3_ev_c, 0.1)
        assert [(a.state(0), a.state(1)) for a, _ in top] == [(True, True)]

        mid = instantiations_above(chain3, chain3_ev_c, 0.05)
        assert sorted((a.state(0), a.state(1)) for a, _ in mid) == [
            (False, True),
            (True, True),
        ]

        every = instantiations_above(chain3, chain3_ev_c, 0.0)
        assert len(every) == 4

    def test_monotone_nesting(self, chain3, chain3_ev_c):
        r = SplitMix64(11)
        thresholds = sorted(10.0 ** (-6 * r.random()) for _ in range(8))
        previous = None
        for eps in reversed(thresholds):  # decreasing
            got = {a.values for a, _ in instantiations_above(chain3, chain3_ev_c, eps)}
            if previous is not None:
                assert previous <= got
            previous = got

    def test_inclusive_threshold(self):
        net = parse_network("node A prior 0.25")
        hits = instantiations_above(net, [], 0.25)
        assert [(a.state(0)) for a, _ in hits] == [False, True]
        hits = instantiations_above(net, [], math.nextafter(0.25, 1.0))
        assert [(a.state(0)) for a, _ in hits] == [False]
