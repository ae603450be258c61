"""Seeded synthetic noisy-OR networks and sampled test cases.

Everything here is a pure function of its seed.  Randomness comes from a
self-contained SplitMix64 generator (Vigna's constants: increment
0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) rather than the platform RNG, so outputs are
byte-identical across platforms and can be reproduced from the documented
algorithm in any language.  Substreams are derived by hashing the seed with a
small fixed tag, never by sharing a stream, so adding a consumer cannot
perturb another.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .model import Assignment, Network, NetworkError, NodeSpec, noisy_or_absent

__all__ = [
    "SplitMix64",
    "derive_seed",
    "NetShape",
    "Case",
    "bn3_shape",
    "gen_network",
    "forward_sample",
    "make_case",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# substream tags (arbitrary fixed constants, part of the determinism contract)
_TAG_GEN = 0x01
_TAG_SAMPLE = 0x02
_TAG_SELECT = 0x03


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Deterministic substream seed from a parent seed and integer tags."""
    z = seed & _MASK64
    for t in tags:
        z = _mix((z + _GOLDEN) & _MASK64 ^ _mix(t & _MASK64))
    return z


class SplitMix64:
    """SplitMix64 stream: 64-bit state stepped by the golden-gamma increment
    and finalized with two xor-multiply rounds."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates; a prefix of the result is a uniform draw
        without replacement, independent of how much of it is used."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def _check_range(r: tuple[float, float], what: str) -> None:
    lo, hi = r
    if not 0.0 <= lo <= hi <= 1.0:
        raise NetworkError(f"{what} range {r!r} must satisfy 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class NetShape:
    """Layered-network recipe: layer sizes, parent fan-in and locality, and
    the parameter ranges to draw from.

    ``finding_leak_range``, when set, overrides ``leak_range`` for the
    deepest level only.  Diagnostic networks need the split: observable
    findings have appreciable leaks (unmodeled causes), while internal
    mechanism nodes are near-deterministic noisy-ORs.
    """

    levels: int
    nodes_per_level: tuple[int, ...]
    max_parents: int = 3
    parent_locality: float = 0.8
    prior_range: tuple[float, float] = (0.001, 0.1)
    q_range: tuple[float, float] = (0.2, 0.95)
    leak_range: tuple[float, float] = (0.0, 0.05)
    finding_leak_range: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.levels < 2:
            raise NetworkError("a layered network needs at least 2 levels")
        if len(self.nodes_per_level) != self.levels:
            raise NetworkError("nodes_per_level must list one count per level")
        if any(c < 1 for c in self.nodes_per_level):
            raise NetworkError("every level needs at least one node")
        if self.max_parents < 1:
            raise NetworkError("max_parents must be >= 1")
        if not 0.0 <= self.parent_locality <= 1.0:
            raise NetworkError("parent_locality must lie in [0, 1]")
        _check_range(self.prior_range, "prior")
        _check_range(self.q_range, "q")
        _check_range(self.leak_range, "leak")
        if self.finding_leak_range is not None:
            _check_range(self.finding_leak_range, "finding leak")


def bn3_shape(seed: int = 0) -> NetShape:
    """Five-layer diagnostic benchmark shape: 3 rare top-level causes feeding
    97 findings through three hidden layers, 145 nodes total.

    Parameters follow the diagnostic regime the search is built for: causes
    are rare, internal influences are strong and nearly leak-free (so the
    joint distribution is highly skewed and most instantiations are
    negligible), and findings carry a real leak so cases show a spread of
    present findings without an active cause.
    """
    return NetShape(
        levels=5,
        nodes_per_level=(3, 10, 15, 20, 97),
        max_parents=3,
        parent_locality=0.9,
        prior_range=(2e-4, 2e-3),
        q_range=(0.995, 0.9995),
        leak_range=(1e-8, 1e-7),
        finding_leak_range=(0.01, 0.05),
        seed=seed,
    )


@dataclass(frozen=True)
class Case:
    """One sampled test case: the ground-truth instantiation plus the subset
    of deepest-level nodes revealed as evidence."""

    case_id: str
    evidence: tuple[tuple[int, bool], ...]
    true_state: Assignment


def gen_network(shape: NetShape) -> Network:
    """Deterministic layered noisy-OR network for a shape.

    Every non-root node anchors at least one parent in the level right above
    it, which pins its longest-path level to its layer index; remaining
    parents come from the previous level with probability
    ``parent_locality``, else from any shallower level.
    """
    rng = SplitMix64(derive_seed(shape.seed, _TAG_GEN))
    counts = shape.nodes_per_level
    starts = [0]
    for c in counts:
        starts.append(starts[-1] + c)
    specs: list[NodeSpec] = []
    for lvl in range(shape.levels):
        if lvl == shape.levels - 1 and shape.finding_leak_range is not None:
            leak_range = shape.finding_leak_range
        else:
            leak_range = shape.leak_range
        for k in range(counts[lvl]):
            name = f"n{lvl}_{k}"
            if lvl == 0:
                specs.append(NodeSpec(name, prior=rng.uniform(*shape.prior_range)))
                continue
            prev_avail = list(range(starts[lvl - 1], starts[lvl]))
            all_avail = list(range(starts[lvl]))
            want = min(1 + rng.below(shape.max_parents), len(all_avail))
            anchor = prev_avail.pop(rng.below(len(prev_avail)))
            all_avail.remove(anchor)
            chosen = [anchor]
            while len(chosen) < want:
                if prev_avail and rng.random() < shape.parent_locality:
                    c = prev_avail.pop(rng.below(len(prev_avail)))
                    all_avail.remove(c)
                elif all_avail:
                    c = all_avail.pop(rng.below(len(all_avail)))
                    if c in prev_avail:
                        prev_avail.remove(c)
                else:
                    break
                chosen.append(c)
            chosen.sort()
            leak = rng.uniform(*leak_range)
            links = tuple((p, rng.uniform(*shape.q_range)) for p in chosen)
            specs.append(NodeSpec(name, leak=leak, links=links))
    net = Network(specs)
    # the anchor rule makes the longest path equal the layer index
    for lvl in range(shape.levels):
        for k in range(counts[lvl]):
            assert net.levels[starts[lvl] + k] == lvl
    return net


def forward_sample(net: Network, seed: int) -> Assignment:
    """Ancestral sample: one uniform draw per node in (level, id) order,
    roots by prior, children by their noisy-OR conditional, assigned in one
    batch in that order."""
    rng = SplitMix64(derive_seed(seed, _TAG_SAMPLE))
    states: list[bool | None] = [None] * len(net.nodes)
    pairs = []
    for nid in chain.from_iterable(net.level_nodes):
        p = net.nodes[nid].prior
        if p is None:
            p = 1.0 - noisy_or_absent(net, nid, states)
        state = states[nid] = rng.random() < p
        pairs.append((nid, state))
    a = Assignment(net)
    a.assign(pairs)
    return a


def make_case(net: Network, seed: int, finding_count: int) -> Case:
    """Sample a ground truth and reveal ``finding_count`` deepest-level nodes.

    The revealed subset is a prefix of one seeded shuffle of the deepest
    level, so a case with more findings extends the same case with fewer.
    Both present and absent sampled values enter the evidence.
    """
    if net.max_level < 0:
        raise NetworkError("cannot make a case on an empty network")
    deepest = net.level_nodes[net.max_level]
    if finding_count > len(deepest):
        raise NetworkError(
            f"finding_count {finding_count} exceeds the {len(deepest)} nodes "
            f"of the deepest level"
        )
    if finding_count < 0:
        raise NetworkError("finding_count must be >= 0")
    true_state = forward_sample(net, seed)
    rng = SplitMix64(derive_seed(seed, _TAG_SELECT))
    order = list(deepest)
    rng.shuffle(order)
    chosen = sorted(order[:finding_count])
    evidence = tuple((nid, bool(true_state.state(nid))) for nid in chosen)
    return Case(
        case_id=f"case-{seed & _MASK64:016x}",
        evidence=evidence,
        true_state=true_state,
    )
