"""Shared fixtures: the hand-checked 3-node chain and seeded random networks."""

from __future__ import annotations

import pytest

from nobn import (
    NetShape,
    Network,
    SplitMix64,
    bn3_shape,
    derive_seed,
    forward_sample,
    gen_network,
    make_case,
    parse_evidence,
    parse_network,
    prune_barren,
)

# Hand-checked chain: A -> B -> C.
#   P(B=p|A=p) = 1 - 0.9*0.2 = 0.82      P(B=p|A=a) = 0.1
#   P(C=p|B=p) = 1 - 0.95*0.1 = 0.905    P(C=p|B=a) = 0.05
CHAIN3_TEXT = """\
# three-node chain
node A prior 0.2
node B leak 0.1 parents A:0.8
node C leak 0.05 parents B:0.9
"""

# Joints consistent with C=present, keyed by (A, B); hand-multiplied factors.
CHAIN3_JOINTS = {
    (True, True): 0.2 * 0.82 * 0.905,    # 0.14842
    (True, False): 0.2 * 0.18 * 0.05,    # 0.0018
    (False, True): 0.8 * 0.1 * 0.905,    # 0.0724
    (False, False): 0.8 * 0.9 * 0.05,    # 0.036
}
CHAIN3_P_EVIDENCE = sum(CHAIN3_JOINTS.values())  # 0.25862


@pytest.fixture
def chain3() -> Network:
    return parse_network(CHAIN3_TEXT)


@pytest.fixture
def chain3_ev_c(chain3):
    return parse_evidence("C present", chain3)


def small_random_net(seed: int, max_total: int = 16) -> Network:
    """Seeded 2-5 level network with at most ``max_total`` nodes."""
    r = SplitMix64(derive_seed(seed, 0xA0))
    levels = 2 + r.below(4)
    counts = [1] * levels
    for _ in range(r.below(max_total - levels + 1)):
        counts[r.below(levels)] += 1
    shape = NetShape(
        levels=levels,
        nodes_per_level=tuple(counts),
        max_parents=1 + r.below(3),
        parent_locality=0.5 + 0.5 * r.random(),
        seed=derive_seed(seed, 0xB0),
    )
    return gen_network(shape)


def random_evidence(net: Network, seed: int) -> tuple[tuple[int, bool], ...]:
    """Sampled values of a random nonempty node subset (any levels)."""
    r = SplitMix64(derive_seed(seed, 0xC0))
    sample = forward_sample(net, derive_seed(seed, 0xD0))
    k = 1 + r.below(max(1, len(net) // 2))
    ids = list(range(len(net)))
    r.shuffle(ids)
    return tuple((nid, bool(sample.state(nid))) for nid in sorted(ids[:k]))


def pruned_with_evidence(net: Network, evidence):
    """Ancestral closure of the evidence plus the re-indexed evidence."""
    pruned = prune_barren(net, evidence)
    remapped = tuple(
        (pruned.node_id(net.nodes[nid].name), state) for nid, state in evidence
    )
    return pruned, remapped


def bn3_case(findings: int = 26, index: int = 0):
    """Case ``index`` of ``nobn bench`` on ``bn3_shape(0)`` at seed 0, as the
    pruned net and its re-indexed evidence."""
    net = gen_network(bn3_shape(0))
    case = make_case(net, derive_seed(0, 0x04, index), findings)
    return pruned_with_evidence(net, case.evidence)
