"""Depth-first enumeration of every complete instantiation whose joint
probability clears a target threshold, and the schedule runner around it.

The driver starts from the evidence, repeatedly expands the deepest level
that still has assigned nodes with unassigned parents, and hands each such
level to the branching search with a rescaled threshold

    epsilon_new = epsilon_target / (product of already-known factors),

which is a necessary condition for any completion to reach the target.
Accepted instantiations contribute their joint to the accumulated mass and
to the present-score of every present node; posterior estimates are
score/mass.  With a target of zero the run is exhaustive and the mass equals
the exact evidence probability.

The stack holds one lazy extension iterator per expansion, never a
materialized frontier, so memory stays linear in the search depth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .epsilonml import Extension, iter_level_extensions
from .model import Assignment, Network, NetworkError, Tally

__all__ = [
    "SearchResult",
    "EpsilonSchedule",
    "DEFAULT_SCHEDULE",
    "TraceRow",
    "ConvergenceTrace",
    "top_epsilon",
    "run_schedule",
    "format_accepted",
]


@dataclass
class SearchResult:
    """Outcome of one thresholded enumeration run."""

    epsilon_target: float
    mass_accumulated: float
    score: tuple[float, ...]
    states_explored: int
    accepted_count: int
    accepted: list[tuple[Assignment, float]] | None = None

    @property
    def posteriors(self) -> tuple[float, ...] | None:
        """Per-node present-probability estimates, or None when no mass was
        accumulated (nothing qualified, or the evidence is impossible)."""
        if self.mass_accumulated <= 0.0:
            return None
        m = self.mass_accumulated
        return tuple(s / m for s in self.score)


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing sequence of target thresholds."""

    values: tuple[float, ...]

    def __post_init__(self):
        for v in self.values:
            if v < 0 or not math.isfinite(v):
                raise NetworkError(f"schedule value {v!r} must be finite and >= 0")
        for a, b in zip(self.values, self.values[1:]):
            if not b < a:
                raise NetworkError("schedule values must be strictly decreasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


# 1e-2 down to 1e-20 by factors of 100
DEFAULT_SCHEDULE = EpsilonSchedule(tuple(float(f"1e-{k}") for k in range(2, 21, 2)))


@dataclass(frozen=True)
class TraceRow:
    epsilon: float
    states_explored: int
    accepted_count: int
    mass_accumulated: float
    elapsed_ms: float


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-threshold rows of one schedule run, in schedule order."""

    rows: tuple[TraceRow, ...]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


_DONE = object()


def top_epsilon(
    net: Network,
    evidence: Iterable[tuple[int, bool]],
    epsilon_target: float,
    keep_accepted: bool = False,
    on_extension: Callable[[Extension, float], None] | None = None,
) -> SearchResult:
    """Enumerate exactly the complete instantiations consistent with the
    evidence whose joint is >= ``epsilon_target``.

    The accepted set equals the brute-force filter at the same threshold; at
    zero the run is exhaustive.  Impossible evidence is not an error: the
    result simply carries zero mass and no posterior estimates.
    ``on_extension`` is a test hook called with every applied extension and
    the threshold it had to clear.
    """
    if epsilon_target < 0 or not math.isfinite(epsilon_target):
        raise NetworkError(
            f"epsilon_target must be a finite value >= 0, got {epsilon_target!r}"
        )
    a = Assignment.from_evidence(net, evidence)
    track_log = a.track_log
    log_eps = -math.inf if epsilon_target == 0.0 else math.log(epsilon_target)

    tally = Tally(len(net.nodes))
    accepted: list[tuple[Assignment, float]] | None = [] if keep_accepted else None
    accepted_count = 0
    states_explored = 0

    def prefix_qualifies() -> bool:
        if track_log:
            return a.log_known >= log_eps
        return a.known_factor_product >= epsilon_target

    def rescaled_epsilon() -> float | None:
        # None means no completion of this state can reach the target
        if epsilon_target == 0.0:
            return 0.0
        if track_log:
            x = log_eps - a.log_known
            if x > 0.0:
                return None
            return math.exp(x)
        p = a.known_factor_product
        if p < epsilon_target:  # covers p == 0
            return None
        return epsilon_target / p

    def accept() -> None:
        nonlocal accepted_count
        joint = a.known_factor_product
        accepted_count += 1
        tally.add(a.raw_values(), joint)
        if accepted is not None:
            accepted.append((a.copy(), joint))

    def expander() -> Iterator[None]:
        # Children of the current state; each child is applied to the shared
        # assignment before the yield and reverted after resumption.
        level = a.frontier_level()
        if level is not None:
            eps_new = rescaled_epsilon()
            if eps_new is None:
                return
            for ext in iter_level_extensions(net, a, level, eps_new):
                if on_extension is not None:
                    on_extension(ext, eps_new)
                tokens = [a.assign(p, s) for p, s in ext.parent_states]
                yield None
                while tokens:
                    a.undo(tokens.pop())
        else:
            # Unassigned nodes outside the evidence ancestry (retained query
            # nodes and their ancestors): branch on them directly, shallowest
            # first, pruning on the running known product.
            nid = a.next_forced_unassigned()
            for state in (True, False):
                token = a.assign(nid, state)
                if prefix_qualifies():
                    yield None
                a.undo(token)

    stack: list[Iterator[None]] = []
    states_explored += 1
    if a.unassigned_count == 0:
        if prefix_qualifies():
            accept()
    else:
        stack.append(expander())
    while stack:
        step = next(stack[-1], _DONE)
        if step is _DONE:
            stack.pop()
            continue
        states_explored += 1
        if a.unassigned_count == 0:
            if prefix_qualifies():
                accept()
        else:
            stack.append(expander())

    return SearchResult(
        epsilon_target=epsilon_target,
        mass_accumulated=tally.mass,
        score=tally.scores(),
        states_explored=states_explored,
        accepted_count=accepted_count,
        accepted=accepted,
    )


def run_schedule(
    net: Network,
    evidence: Iterable[tuple[int, bool]],
    schedule: EpsilonSchedule,
) -> ConvergenceTrace:
    """Run the engine once per threshold, independently, recording states
    explored, acceptances, mass, and wall time per row."""
    evidence = tuple(evidence)
    rows = []
    for eps in schedule:
        t0 = time.perf_counter()
        res = top_epsilon(net, evidence, eps)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            TraceRow(
                epsilon=eps,
                states_explored=res.states_explored,
                accepted_count=res.accepted_count,
                mass_accumulated=res.mass_accumulated,
                elapsed_ms=elapsed_ms,
            )
        )
    return ConvergenceTrace(tuple(rows))


def format_accepted(net: Network, accepted: list[tuple[Assignment, float]]) -> list[str]:
    """Dump lines `<joint> <name>=<p|a> ...` in node-id order, sorted by
    descending joint then lexicographic assignment."""
    entries = []
    for a, joint in accepted:
        values = a.raw_values()
        body = " ".join(
            f"{spec.name}={'p' if values[i] else 'a'}"
            for i, spec in enumerate(net.nodes)
        )
        entries.append((-joint, body, f"{joint:.17g} {body}".rstrip()))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [line for _, _, line in entries]
