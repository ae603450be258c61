"""Generator and sampler tests: PRNG reference vectors, deterministic
generation, shape validation, and sampling statistics."""

from __future__ import annotations

import math

import pytest

from nobn import (
    NetShape,
    NetworkError,
    SplitMix64,
    bn3_shape,
    derive_seed,
    exact_inference,
    forward_sample,
    gen_network,
    joint_probability,
    make_case,
    parse_network,
    print_network,
)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # first outputs of the reference splitmix64 stream for seed 0
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_random_unit_interval(self):
        g = SplitMix64(123)
        xs = [g.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_below_range_and_determinism(self):
        g1 = SplitMix64(7)
        g2 = SplitMix64(7)
        xs = [g1.below(13) for _ in range(500)]
        assert xs == [g2.below(13) for _ in range(500)]
        assert set(xs) <= set(range(13))
        with pytest.raises(ValueError):
            g1.below(0)

    def test_derive_seed_is_stable_and_tag_sensitive(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_shuffle_prefix_is_seed_stable(self):
        a = list(range(20))
        b = list(range(20))
        SplitMix64(5).shuffle(a)
        SplitMix64(5).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(20))


class TestNetShape:
    def test_validation(self):
        with pytest.raises(NetworkError, match="2 levels"):
            NetShape(levels=1, nodes_per_level=(3,))
        with pytest.raises(NetworkError, match="one count per level"):
            NetShape(levels=3, nodes_per_level=(1, 2))
        with pytest.raises(NetworkError, match="at least one node"):
            NetShape(levels=2, nodes_per_level=(1, 0))
        with pytest.raises(NetworkError, match="max_parents"):
            NetShape(levels=2, nodes_per_level=(1, 1), max_parents=0)
        with pytest.raises(NetworkError, match="lo <= hi"):
            NetShape(levels=2, nodes_per_level=(1, 1), q_range=(0.9, 0.2))

    def test_bn3_shape_counts(self):
        shape = bn3_shape(seed=11)
        assert shape.levels == 5
        assert sum(shape.nodes_per_level) == 145
        assert shape.nodes_per_level[0] == 3
        assert shape.nodes_per_level[-1] == 97


class TestGenNetwork:
    def test_smallest_shape_is_two_node_chain(self):
        shape = NetShape(levels=2, nodes_per_level=(1, 1), max_parents=1, seed=42)
        net = gen_network(shape)
        assert len(net) == 2
        assert net.levels == (0, 1)
        assert net.nodes[1].links[0][0] == 0
        # reproducible parameters for the fixed seed
        again = gen_network(shape)
        assert net == again

    def test_same_seed_byte_identical(self):
        shape = bn3_shape(seed=7)
        t1 = print_network(gen_network(shape))
        t2 = print_network(gen_network(shape))
        assert t1 == t2
        t3 = print_network(gen_network(bn3_shape(seed=8)))
        assert t3 != t1

    def test_bn3_shape_network(self):
        net = gen_network(bn3_shape(seed=3))
        assert len(net) == 145
        assert net.max_level == 4
        assert len(net.level_nodes[0]) == 3
        assert len(net.level_nodes[4]) == 97

    def test_levels_match_layers_and_roundtrip(self):
        for seed in range(10):
            shape = NetShape(
                levels=3, nodes_per_level=(2, 3, 4), max_parents=3, seed=seed
            )
            net = gen_network(shape)
            start = 0
            for lvl, count in enumerate(shape.nodes_per_level):
                for k in range(count):
                    assert net.levels[start + k] == lvl
                start += count
            assert parse_network(print_network(net)) == net

    def test_parameters_within_ranges(self):
        shape = NetShape(
            levels=3,
            nodes_per_level=(3, 4, 5),
            prior_range=(0.2, 0.3),
            q_range=(0.5, 0.6),
            leak_range=(0.01, 0.02),
            seed=1,
        )
        net = gen_network(shape)
        for spec in net.nodes:
            if spec.is_root:
                assert 0.2 <= spec.prior <= 0.3
            else:
                assert 0.01 <= spec.leak <= 0.02
                assert 1 <= len(spec.links) <= 3
                for _, q in spec.links:
                    assert 0.5 <= q <= 0.6


class TestForwardSample:
    def test_degenerate_priors(self):
        always = parse_network("node A prior 1.0")
        never = parse_network("node A prior 0.0")
        for seed in range(20):
            assert forward_sample(always, seed).state(0) is True
            assert forward_sample(never, seed).state(0) is False

    def test_complete_and_coherent(self, chain3):
        a = forward_sample(chain3, 99)
        assert a.unassigned_count == 0
        assert a.known_factor_product == pytest.approx(
            joint_probability(chain3, a), rel=1e-12
        )

    def test_deterministic_per_seed(self, chain3):
        assert forward_sample(chain3, 5).values == forward_sample(chain3, 5).values
        seen = {forward_sample(chain3, s).values for s in range(64)}
        assert len(seen) > 1

    def test_empirical_marginal_matches_oracle(self, chain3):
        # P(C=present) with no evidence, exact vs 100k ancestral samples,
        # two-sided binomial z-test at alpha ~ 0.001
        exact = exact_inference(chain3, []).posteriors[2]
        assert exact == pytest.approx(0.25862, abs=1e-12)
        n = 100_000
        hits = sum(1 for s in range(n) if forward_sample(chain3, s).state(2))
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(hits / n - exact) < 3.2905 * sigma


class TestMakeCase:
    def test_zero_findings(self, chain3):
        case = make_case(chain3, 1, 0)
        assert case.evidence == ()
        assert case.true_state.unassigned_count == 0

    def test_whole_bottom_level(self, chain3):
        case = make_case(chain3, 1, 1)  # deepest level of the chain is just C
        assert len(case.evidence) == 1
        assert case.evidence[0][0] == 2

    def test_too_many_findings(self, chain3):
        with pytest.raises(NetworkError, match="exceeds"):
            make_case(chain3, 1, 2)

    def test_evidence_comes_from_true_state(self):
        net = gen_network(NetShape(levels=3, nodes_per_level=(2, 3, 8), seed=4))
        case = make_case(net, 17, 5)
        assert len(case.evidence) == 5
        deepest = set(net.level_nodes[net.max_level])
        for nid, state in case.evidence:
            assert nid in deepest
            assert case.true_state.state(nid) is state

    def test_more_findings_extend_the_same_case(self):
        # same seed, larger count: same ground truth, superset evidence
        net = gen_network(NetShape(levels=3, nodes_per_level=(2, 3, 12), seed=4))
        small = make_case(net, 23, 4)
        large = make_case(net, 23, 9)
        assert small.true_state.values == large.true_state.values
        assert set(small.evidence) <= set(large.evidence)
        assert small.case_id == large.case_id

    def test_deterministic(self, chain3):
        c1 = make_case(chain3, 9, 1)
        c2 = make_case(chain3, 9, 1)
        assert c1.case_id == c2.case_id
        assert c1.evidence == c2.evidence
