"""Depth-first enumeration of every complete instantiation whose joint
probability clears a target threshold.

The driver starts from the evidence, repeatedly expands the deepest level
that still has assigned nodes with unassigned parents, and hands each such
level to the branching search with a rescaled threshold

    epsilon_new = epsilon_target / (product of already-known factors),

which is a necessary condition for any completion to reach the target.
The division, and the test that the known product reaches the target at
all, is :meth:`~nobn.model.Assignment.rescaled_threshold`, which hides how
the product is scaled.  A *state* is every assignment the run applies, the
evidence state included, whether or not it reaches the target; each one is
counted, tested once against the target, and then accepted if complete or
expanded if not.  Once no level has anything to expand, the unassigned nodes
are those outside the evidence ancestry; the run lists them once, by level
then id, and branches on each in turn.  Accepted instantiations add their
joint to a :class:`~nobn.model.Tally` of mass and per-node present-score,
whose ratio is the posterior estimate, and are kept, when asked for, as
(node-state tuple, joint) pairs.  With a target of zero the run is
exhaustive and the mass equals the exact evidence probability.

The stack holds one extension iterator per expansion, never a materialized
frontier of states.  When level L is the frontier, every deeper node is
assigned and its factor known, so the level's subproblem and its extensions
depend only on the states at levels <= L, its *context*.  A call keeps the
extensions of recent contexts (context-based caching, as in recursive
conditioning, Darwiche, AIJ 2001, and AND/OR search, Dechter & Mateescu, AIJ
2007): a context that recurs at a threshold at or above the one it was solved
at filters the kept list instead of searching again; a level whose
contexts seldom recur gives its memo up.  Memory is linear in the search
depth plus that memo, which keeps at most ``_MEMO_CAP`` contexts per level
and at most ``_MEMO_CAP`` extensions per context.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
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
    # every assignment the run applies, the evidence state included, whether
    # or not it reaches the target
    states_explored: int
    accepted_count: int
    # per-node present-probability estimates, or None when no mass was
    # accumulated (nothing qualified, or the evidence is impossible)
    posteriors: tuple[float, ...] | None
    # (node states in id order, joint) of each accepted instantiation, when
    # asked for
    accepted: list[tuple[tuple[bool, ...], float]] | None = None


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

# The context memo of one call keeps at most _MEMO_CAP contexts per level, the
# oldest evicted first, and no extension list longer than _MEMO_CAP.  A level
# is searched directly for the rest of the call once _MEMO_TRIAL lookups have
# hit less than one time in _MEMO_HIT_RATIO.  On a seed-0 bn3-f83 round a
# lookup, with the store once its context is searched, costs 2.3-3.1 us, about
# a sixth of the mean level-1 search (14 us) and a 14th of the level-2 one
# (43-44 us, 44-47 us before the level search kept its explanation records;
# in-process timing around the lookup and each step of the search, 2-core VM,
# two runs each).  Level 1 hits 399 of 722 lookups and level 2 42 of 1,122
# (4%), under the one in 14 that would pay; the give-up rule stops level 2 in
# the 8 calls that reach _MEMO_TRIAL lookups, and the 610 lookups of the other
# calls cost about 2 ms a round: the ratio stays.  Both rules pay (alternating
# pairs, medians, 2-core VM).  With the memo off, exhaustive wall_s went from
# 1.61 to 2.20 s (+37%, 3 benchmark pairs), the three 26-finding bn3 cases at
# 1e-30 from 5.05 to 5.38 s together (+6%, slower in 7 of 8 pairs) and bn3-f26
# wall_s by 1.3%, while bn3-f83 moved +0.1% and wide-log -1.4%.  Without the
# give-up rule, bn3-f83 wall_s rose 5% and bn3-f26 3% (3 benchmark pairs each,
# slower in every pair).
_MEMO_CAP = 256
_MEMO_TRIAL = 64
_MEMO_HIT_RATIO = 8


def top_epsilon(
    net: Network,
    evidence: Iterable[tuple[int, bool]],
    epsilon_target: float,
    keep_accepted: bool = False,
) -> SearchResult:
    """Enumerate exactly the complete instantiations consistent with the
    evidence whose joint is >= ``epsilon_target``.

    The accepted set equals the brute-force filter at the same threshold,
    except at a threshold exactly equal to a joint: there the search's
    grouping of the factors and a direct product can differ in the last bit.
    At zero the run is exhaustive.  Impossible evidence is not an error: the
    result simply carries zero mass and no posterior estimates.
    ``keep_accepted`` keeps each accepted instantiation as a (node states in
    id order, joint) pair, as :func:`~nobn.oracle.instantiations_above` gives
    them.
    """
    check_threshold(epsilon_target, "epsilon_target")
    a = Assignment.from_evidence(net, evidence)
    tally = Tally(len(net.nodes))
    accepted: list[tuple[tuple[bool, ...], float]] | None = [] if keep_accepted else None
    accepted_count = 0
    states_explored = 0
    values = a.raw_values()
    contexts = _context_keys(net, a)
    memos = [OrderedDict() for _ in contexts]
    lookups = [0] * len(contexts)
    hits = [0] * len(contexts)
    # the nodes outside the evidence ancestry, in (level, id) order: the
    # unassigned nodes at the first forced expansion, which assigns them in
    # this order, so the next one is at len(forced) - a.unassigned_count
    forced: list[int] = []

    def expander(eps_new: float) -> Iterator[None]:
        # Children of the current state, whose rescaled threshold is eps_new;
        # each child is applied to the shared assignment before the yield and
        # reverted after resumption.
        level = a.frontier_level()
        if level is None:
            # Unassigned nodes outside the evidence ancestry (retained query
            # nodes and their ancestors): branch on them directly, shallowest
            # first, so that each one's parents are assigned before it.
            if not forced:
                forced.extend(sorted(
                    (i for i, v in enumerate(values) if v is None),
                    key=lambda i: (net.levels[i], i),
                ))
            nid = forced[len(forced) - a.unassigned_count]
            for state in (True, False):
                token = a.assign(((nid, state),))
                yield None
                a.undo(token)
            return
        # The level's extensions come from the context memo when the context
        # was solved at a threshold <= eps_new: the search yields exactly the
        # extensions that clear its threshold (see Extension.clears), and
        # neither their order, their products nor their charges depend on it.
        exts: Iterable[Extension] | None = None
        kept: list[Extension] | None = None
        context = contexts[level]
        if context is not None:
            lookups[level] += 1
            key = context(values)
            entry = memos[level].get(key)
            if entry is not None and entry[0] <= eps_new:
                hits[level] += 1
                lowest, exts = entry
                if eps_new != lowest:
                    exts = [ext for ext in exts if ext.clears(eps_new)]
            elif lookups[level] >= _MEMO_TRIAL and hits[level] * _MEMO_HIT_RATIO < lookups[level]:
                # too few hits to pay for the lookups: search the level directly
                contexts[level] = None
                memos[level].clear()
            else:
                kept = []
        if exts is None:
            exts = iter_level_extensions(net, a, level, eps_new)
        for ext in exts:
            if kept is not None and len(kept) <= _MEMO_CAP:
                kept.append(ext)
            token = a.assign(ext.parent_states)
            yield None
            a.undo(token)
        if kept is not None and len(kept) <= _MEMO_CAP:
            # A searched context keeps its extensions once the search ends; it
            # cannot recur before then, since below it every frontier is
            # shallower.  A list one longer than _MEMO_CAP is not kept.
            memo = memos[level]
            if entry is None and len(memo) >= _MEMO_CAP:
                memo.popitem(last=False)
            memo[key] = (eps_new, tuple(kept))

    # Every applied state, the evidence state first, is counted, tested once
    # against the target, and then accepted when complete or expanded.
    stack: list[Iterator[None]] = [iter((None,))]
    while stack:
        if next(stack[-1], _DONE) is _DONE:
            stack.pop()
            continue
        states_explored += 1
        eps_new = a.rescaled_threshold(epsilon_target)
        if eps_new is None:
            continue
        if a.unassigned_count:
            stack.append(expander(eps_new))
            continue
        accepted_count += 1
        joint, exponent = a.known_factor_product, a.known_exponent
        tally.add(values, joint, exponent)
        if accepted is not None:
            accepted.append((tuple(values), math.ldexp(joint, exponent)))

    return SearchResult(
        epsilon_target=epsilon_target,
        mass_accumulated=tally.mass,
        score=tally.scores(),
        states_explored=states_explored,
        accepted_count=accepted_count,
        posteriors=tally.posteriors(),
        accepted=accepted,
    )


def _context_keys(net: Network, a: Assignment) -> list[Callable | None]:
    """Per level L, a function of the state list giving the context of a
    level-L frontier: the states of the nodes at levels <= L outside the
    evidence of ``a`` (the evidence is the same in every state of a call).
    None where no context can recur: at the evidence's own frontier level F,
    which is expanded once, and at F - 1, whose contexts each hold a
    different extension of that one expansion."""
    values = a.raw_values()
    first = a.frontier_level()
    keys: list[Callable | None] = [None] * (net.max_level + 1)
    ids: list[int] = []
    for level in range(0 if first is None else first - 1):
        ids += [i for i in net.level_nodes[level] if values[i] is None]
        # level 0 holds the roots, which have no parents to expand; with
        # every node up to the level observed, the level is never expanded
        if level and ids:
            keys[level] = itemgetter(*ids)
    return keys


def format_accepted(
    net: Network, accepted: list[tuple[tuple[bool, ...], float]]
) -> list[str]:
    """Dump lines `<joint> <name>=<p|a> ...` in node-id order, sorted by
    descending joint then lexicographic assignment."""
    entries = []
    for values, joint in accepted:
        body = " ".join(
            f"{spec.name}={'p' if values[i] else 'a'}"
            for i, spec in enumerate(net.nodes)
        )
        entries.append((-joint, body, f"{joint:.17g} {body}".rstrip()))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [line for _, _, line in entries]
