"""Brute-force exact inference by full enumeration.

Deliberately unsophisticated: this is the gold standard every search result
is checked against, so simplicity beats speed.  The only concessions are a
free-node cap (2^free instantiations is real money), exact summation
through the same :class:`~nobn.model.Tally` the search engine uses (posteriors
here back tolerances down to 1e-9), a counting loop instead of recursion,
so the depth of the network never limits the enumeration, and scores
credited once per subtree of that loop rather than once per instantiation:
a free node is credited with the mass counted while it was present when
the carry turns it absent, and the evidence once at the end.  The same
loop, without a tally, serves the plain enumerations.  Factors come from
:func:`~nobn.model.node_factor`, the search engine's own arithmetic, so the
tests check this module's joints against an independent reference written
from the noisy-OR definition (``tests/reference.py``).  An instantiation
is given as the tuple of its node states in id order, with its joint, the
form the search engine keeps its accepted set in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import Network, NetworkError, Tally, check_threshold
from .model import node_factor, validate_evidence

__all__ = [
    "DEFAULT_FREE_NODE_CAP",
    "FreeNodeCapError",
    "ImpossibleEvidenceError",
    "ExactResult",
    "enumerate_consistent",
    "exact_inference",
    "instantiations_above",
]

DEFAULT_FREE_NODE_CAP = 24


class FreeNodeCapError(RuntimeError):
    """Too many free nodes to enumerate exhaustively."""

    def __init__(self, free: int, cap: int):
        super().__init__(
            f"{free} free nodes exceed the enumeration cap of {cap} "
            f"(2**{free} instantiations)"
        )
        self.free = free
        self.cap = cap


class ImpossibleEvidenceError(NetworkError):
    """The evidence has probability zero; posteriors are undefined."""


@dataclass(frozen=True)
class ExactResult:
    """Exhaustive-enumeration answer for one evidence set."""

    evidence_probability: float
    posteriors: tuple[float, ...]
    instantiation_count: int


def _enum_values(
    net: Network, evidence: Iterable[tuple[int, bool]], cap: int, tally: Tally | None = None
) -> Iterator[tuple[list[bool], float]]:
    """Yield (live value list, joint) for every instantiation consistent with
    the evidence, in binary-counting order over the free nodes (id order,
    absent first).  The list is reused between yields; copy to keep it.
    With a ``tally``, each joint is counted into it before it is yielded,
    and each free node is credited once per run of instantiations in which
    it is present, when the carry turns it absent again; the caller credits
    the evidence."""
    evidence = tuple(evidence)
    validate_evidence(net, evidence)
    n = len(net.nodes)
    values: list[bool | None] = [None] * n
    for nid, state in evidence:
        values[nid] = state
    free = [i for i in range(n) if values[i] is None]
    if len(free) > cap:
        raise FreeNodeCapError(len(free), cap)

    # trigger[i] = nodes whose factor becomes computable once ids 0..i are set
    trigger: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        last = max((p for p, _ in net.nodes[x].links), default=-1)
        trigger[max(x, last)].append(x)
    return _binary_count(net, values, free, trigger, tally)


def _binary_count(net, values, free, trigger, tally) -> Iterator[tuple[list[bool], float]]:
    # prefix[i] is the product of the factors triggered by ids 0..i-1, folded
    # left to right; a counting step only refolds from the flipped id on.
    # marks[k] is the tally's mark when free digit k last turned present.
    n = len(values)
    prefix = [1.0] * (n + 1)
    marks = [None] * len(free)
    for i in free:
        values[i] = False
    start = 0
    while True:
        for i in range(start, n):
            p = prefix[i]
            for x in trigger[i]:
                p *= node_factor(net, x, values)
            prefix[i + 1] = p
        if tally is not None:
            tally.count(prefix[n])
        yield values, prefix[n]
        # binary increment, the highest free id being the lowest digit
        k = len(free) - 1
        while k >= 0 and values[free[k]]:
            values[free[k]] = False
            if tally is not None:
                tally.credit(((free[k], True),), marks[k])
            k -= 1
        if k < 0:
            return
        values[free[k]] = True
        if tally is not None:
            marks[k] = tally.mark
        start = free[k]


def enumerate_consistent(
    net: Network,
    evidence: Iterable[tuple[int, bool]],
    cap: int = DEFAULT_FREE_NODE_CAP,
) -> Iterator[tuple[tuple[bool, ...], float]]:
    """Every complete instantiation agreeing with the evidence, exactly
    once, as (node states in id order, joint probability).  Deterministic
    order: binary counting over the free nodes in id order, absent=0 first."""
    for values, joint in _enum_values(net, evidence, cap):
        yield tuple(values), joint


def exact_inference(
    net: Network,
    evidence: Iterable[tuple[int, bool]],
    cap: int = DEFAULT_FREE_NODE_CAP,
) -> ExactResult:
    """Evidence probability and per-node present-posteriors by exhaustive
    enumeration.  Raises :class:`ImpossibleEvidenceError` on zero mass."""
    evidence = tuple(evidence)
    tally = Tally(len(net.nodes))
    start = tally.mark
    count = 0
    for _ in _enum_values(net, evidence, cap, tally):
        count += 1
    tally.credit(evidence, start)
    posteriors = tally.posteriors()
    if posteriors is None:
        raise ImpossibleEvidenceError(
            "evidence has probability zero; posteriors are undefined"
        )
    return ExactResult(tally.mass, posteriors, count)


def instantiations_above(
    net: Network,
    evidence: Iterable[tuple[int, bool]],
    epsilon: float,
    cap: int = DEFAULT_FREE_NODE_CAP,
) -> list[tuple[tuple[bool, ...], float]]:
    """The (node states, joint) pairs of :func:`enumerate_consistent` with
    joint >= epsilon (inclusive), in enumeration order.  This is the
    reference set the search engine must reproduce exactly."""
    check_threshold(epsilon)
    return [
        (tuple(values), joint)
        for values, joint in _enum_values(net, evidence, cap)
        if joint >= epsilon
    ]
