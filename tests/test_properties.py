"""Property tests: the search against the brute-force oracle on random small
multi-level networks, and invariance of the result under evidence order.

Needs Hypothesis (the ``test`` extra); skipped without it.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nobn import (  # noqa: E402
    NetShape,
    SplitMix64,
    forward_sample,
    gen_network,
    instantiations_above,
    top_epsilon,
)
from conftest import pruned_with_evidence  # noqa: E402

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


@st.composite
def problems(draw):
    """(pruned net, evidence, epsilon): evidence on a random node subset of
    any level, sampled from the net so that it is possible."""
    levels = draw(st.integers(2, 4))
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
    sample = forward_sample(net, draw(st.integers(0, 2**32 - 1)))
    observed = draw(
        st.lists(st.integers(0, len(net) - 1), min_size=1, max_size=len(net), unique=True)
    )
    evidence = tuple((nid, bool(sample.state(nid))) for nid in sorted(observed))
    pruned, pev = pruned_with_evidence(net, evidence)
    epsilon = draw(st.sampled_from((0.0, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12, 1e-16)))
    return pruned, pev, epsilon


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(problems())
def test_accepted_set_equals_oracle(problem):
    net, evidence, epsilon = problem
    res = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    got = {a.values: j for a, j in res.accepted}
    oracle = {a.values: j for a, j in instantiations_above(net, evidence, 0.0)}
    expected = {k for k, j in oracle.items() if j >= epsilon}
    # the search's grouping of the factors and the oracle's product may
    # differ in the last bits, which decides a joint within them of epsilon
    ties = {k for k, j in oracle.items() if abs(j - epsilon) <= 1e-12 * epsilon}
    assert set(got) ^ expected <= ties
    for k, j in got.items():
        assert j == pytest.approx(oracle[k], rel=1e-12)


@_SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_invariant_under_evidence_order(problem, seed):
    net, evidence, epsilon = problem
    shuffled = list(evidence)
    SplitMix64(seed).shuffle(shuffled)
    first = top_epsilon(net, evidence, epsilon, keep_accepted=True)
    second = top_epsilon(net, shuffled, epsilon, keep_accepted=True)
    assert [(a.values, j) for a, j in first.accepted] == [
        (a.values, j) for a, j in second.accepted
    ]
    assert (first.mass_accumulated, first.posteriors, first.states_explored) == (
        second.mass_accumulated,
        second.posteriors,
        second.states_explored,
    )
