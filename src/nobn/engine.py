"""Depth-first enumeration of every complete instantiation whose joint
probability clears a target threshold.

The driver starts from the evidence, repeatedly expands the deepest level
that still has assigned nodes with unassigned parents, and hands each such
level to the branching search with a rescaled threshold

    epsilon_new = epsilon_target / (product of already-known factors),

which is a necessary condition for any completion to reach the target.
The division, and the test that the known product reaches the target at
all, is :meth:`~nobn.model.Assignment.rescaled_threshold`, which hides how
the product is scaled.  Accepted instantiations add their joint to a
:class:`~nobn.model.Tally` of mass and per-node present-score, whose ratio is
the posterior estimate.  With a target of zero the run is exhaustive and the
mass equals the exact evidence probability.

The stack holds one lazy extension iterator per expansion, never a
materialized frontier, so memory stays linear in the search depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .epsilonml import Extension, iter_level_extensions
from .model import Assignment, Network, NetworkError, Tally, check_threshold

__all__ = [
    "SearchResult",
    "EpsilonSchedule",
    "DEFAULT_SCHEDULE",
    "top_epsilon",
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
    # per-node present-probability estimates, or None when no mass was
    # accumulated (nothing qualified, or the evidence is impossible)
    posteriors: tuple[float, ...] | None
    accepted: list[tuple[Assignment, float]] | None = None


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing sequence of target thresholds."""

    values: tuple[float, ...]

    def __post_init__(self):
        for v in self.values:
            check_threshold(v, "schedule value")
        for a, b in zip(self.values, self.values[1:]):
            if not b < a:
                raise NetworkError("schedule values must be strictly decreasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


# 1e-2 down to 1e-20 by factors of 100
DEFAULT_SCHEDULE = EpsilonSchedule(tuple(float(f"1e-{k}") for k in range(2, 21, 2)))


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

    The accepted set equals the brute-force filter at the same threshold,
    except at a threshold exactly equal to a joint: there the search's
    grouping of the factors and a direct product can differ in the last bit.
    At zero the run is exhaustive.  Impossible evidence is not an error: the
    result simply carries zero mass and no posterior estimates.
    ``on_extension`` is a test hook called with every applied extension and
    the threshold it had to clear.
    """
    check_threshold(epsilon_target, "epsilon_target")
    a = Assignment.from_evidence(net, evidence)
    tally = Tally(len(net.nodes))
    accepted: list[tuple[Assignment, float]] | None = [] if keep_accepted else None
    accepted_count = 0
    states_explored = 0

    def prefix_qualifies() -> bool:
        return a.rescaled_threshold(epsilon_target) is not None

    def accept() -> None:
        nonlocal accepted_count
        accepted_count += 1
        joint, exponent = a.known_factor_product, a.known_exponent
        tally.add(a.raw_values(), joint, exponent)
        if accepted is not None:
            accepted.append((a.copy(), math.ldexp(joint, exponent)))

    def expander() -> Iterator[None]:
        # Children of the current state; each child is applied to the shared
        # assignment before the yield and reverted after resumption.
        level = a.frontier_level()
        if level is not None:
            eps_new = a.rescaled_threshold(epsilon_target)
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
        posteriors=tally.posteriors(),
        accepted=accepted,
    )


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
