"""Level-wise branching: enumerate assignments to the unassigned parents of a
level's findings whose newly-known factor product clears a threshold.

Each subproblem is effectively a two-level network: a set of assigned
"findings" with no arcs among them, and the parents still free.  The search
is depth-first over the free parents with an admissible per-node upper bound
(the one :func:`upper_bound` computes), so it returns exactly the set
{ parent assignment : product >= epsilon } while storing only the current
decision path.  Before it builds its tables, the search also checks a
cheapest-explanation bound on the whole subproblem (``_explanation_bound``):
it charges each present finding the cost of the free parent that would
explain it, and most subproblems that yield nothing fail it and end there.

The thresholded product multiplies every finding's conditional factor and the
true prior of every free root parent.  Free non-root parents contribute 1:
their own conditional factor is unknown until their level is expanded, and 1
is its only safe bound.  That keeps the threshold a necessary condition for
any completion of the joint, which is what the driving engine relies on.

There is one subproblem collector (``_collect``) and one search kernel
(``_search``).  :func:`build_subproblem` + :func:`iter_extensions` is the
inspectable two-step form; :func:`iter_level_extensions` is the engine's
one-call form over the same two pieces, so both yield the same extensions in
the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .model import Assignment, Network, NetworkError, check_threshold

__all__ = [
    "NoFindingsError",
    "Subproblem",
    "Extension",
    "build_subproblem",
    "epsilon_ml",
    "iter_extensions",
    "upper_bound",
]

# Pruning slack: the incrementally maintained bound may differ from the
# canonical one by regrouping rounding, so prune only with this much margin.
# Leaves are tested exactly; the margin can only retain extra branches.
_PRUNE_MARGIN = 1e-9


class NoFindingsError(NetworkError):
    """No assigned node with unassigned parents at the requested level."""


@dataclass(frozen=True)
class Subproblem:
    """One branching instance: findings at a level plus their free parents.

    ``findings`` are the assigned nodes at the level whose factor is not yet
    known (they still have unassigned parents); nodes whose parents are all
    assigned already contributed their factor to the driving state's product.
    ``free_parents`` is the deterministic search order.
    """

    findings: tuple[tuple[int, bool], ...]
    free_parents: tuple[int, ...]
    fixed_parents: dict[int, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class Extension:
    """One admissible assignment of the free parents."""

    parent_states: tuple[tuple[int, bool], ...]
    new_factor_product: float


def build_subproblem(net: Network, a: Assignment, level: int) -> Subproblem:
    """Collect the expandable findings at ``level`` and order their free
    parents for search.

    Parents are searched most-relevant first: descending maximum activation
    probability over the findings they feed, ties by node id.  Raises
    :class:`NoFindingsError` when the level has nothing to expand, which
    tells a driver to look at a shallower level.
    """
    if not 0 <= level <= net.max_level:
        raise NetworkError(f"level {level} out of range")
    findings, free = _collect(net, a, level)
    values = a.raw_values()
    fixed = {
        p: values[p]
        for nid, _ in findings
        for p, _ in net._links_omq[nid]
        if values[p] is not None
    }
    return Subproblem(tuple(findings), free, fixed)


def _collect(
    net: Network, a: Assignment, level: int
) -> tuple[list[tuple[int, bool]], tuple[int, ...]]:
    """The expandable findings at ``level`` and their free parents in search
    order (descending best activation probability, ties by id)."""
    values = a.raw_values()
    findings: list[tuple[int, bool]] = []
    for nid in net.level_nodes[level]:
        state = values[nid]
        if state is not None and a.unassigned_parent_count(nid):
            findings.append((nid, state))
    if not findings:
        raise NoFindingsError(f"no assigned node at level {level} has unassigned parents")
    # level labeling forbids arcs inside a level, so no finding feeds another
    best_q: dict[int, float] = {}
    for nid, _ in findings:
        for p, omq in net._links_omq[nid]:
            if values[p] is None:
                q = 1.0 - omq
                if q > best_q.get(p, -1.0):
                    best_q[p] = q
    return findings, tuple(sorted(best_q, key=lambda p: (-best_q[p], p)))


def iter_extensions(
    net: Network,
    sub: Subproblem,
    epsilon: float,
    stats: dict | None = None,
) -> Iterator[Extension]:
    """Yield every qualifying extension in depth-first discovery order.

    Branch order: non-root parents try present first; roots try their more
    probable state first.  ``stats``, when given, receives ``nodes`` (partial
    decisions expanded) and ``max_depth`` (peak stored decisions).
    """
    check_threshold(epsilon)
    return _search(
        net, sub.findings, sub.free_parents, sub.fixed_parents, epsilon, stats
    )


def iter_level_extensions(
    net: Network, a: Assignment, level: int, epsilon: float
) -> Iterator[Extension]:
    """build_subproblem + iter_extensions without the Subproblem object or
    its fixed-parent dict; the engine's per-state hot path.  Same results as
    the two-step form, same ordering."""
    findings, free = _collect(net, a, level)
    # assigned parents are read straight off the value list
    return _search(net, findings, free, a.raw_values(), epsilon, None)


def _search(net, findings, free, fixed, epsilon, stats) -> Iterator[Extension]:
    # `fixed` maps assigned parent id -> state; a dict or the raw value list
    track = stats is not None
    if track:
        stats.setdefault("nodes", 0)
        stats.setdefault("max_depth", 0)
    nfree = len(free)
    pos_of = {p: i for i, p in enumerate(free)}

    # per position: branch order, the two root factors (or None for non-roots)
    # and the explanation cost of setting it present (see _explanation_bound)
    branch: list[tuple[bool, ...]] = []
    root_fac: list[tuple[float, float] | None] = []
    cost = [1.0] * nfree
    for pos, p in enumerate(free):
        prior = net._priors[p]
        if prior is None:
            root_fac.append(None)
            branch.append((True, False))
        else:
            root_fac.append((prior, 1.0 - prior))
            branch.append((True, False) if prior >= 0.5 else (False, True))
            cost[pos] = prior / max(prior, 1.0 - prior)
    # suffix products of the best root factor; non-roots contribute exactly 1
    rsm = [1.0] * (nfree + 1)
    for d in range(nfree - 1, -1, -1):
        fac = root_fac[d]
        rsm[d] = rsm[d + 1] if fac is None else max(fac) * rsm[d + 1]

    nfind = len(findings)
    present = [False] * nfind
    w = [0.0] * nfind  # (1-leak) * prod(1-q) over fixed-present + decided-present parents
    links: list[list[tuple[int, float]]] = []  # per finding: (position, 1-q)
    for fi, (nid, state) in enumerate(findings):
        present[fi] = state
        base = net._leak_c[nid]
        lf: list[tuple[int, float]] = []
        for p, omq in net._links_omq[nid]:
            pos = pos_of.get(p)
            if pos is None:
                if fixed[p]:
                    base *= omq
            else:
                lf.append((pos, omq))
                if not state:
                    cost[pos] *= omq
        w[fi] = base
        links.append(lf)

    guard = epsilon - epsilon * _PRUNE_MARGIN
    # at guard 0 nothing can be pruned, so the bound is not worth computing
    if guard > 0 and _explanation_bound(present, w, links, cost) * rsm[0] < guard:
        return

    suffix: list[list[float]] = []  # per finding: tail products of the 1-q column
    adj: list[list[tuple[int, float, int]]] = [[] for _ in range(nfree)]
    for fi, lf in enumerate(links):
        lf.sort()
        suf = [1.0] * (len(lf) + 1)
        for j in range(len(lf) - 1, -1, -1):
            suf[j] = lf[j][1] * suf[j + 1]
        suffix.append(suf)
        for k, (pos, omq) in enumerate(lf):
            adj[pos].append((fi, omq, k + 1))

    terms = [
        (1.0 - w[fi] * suffix[fi][0]) if present[fi] else w[fi] for fi in range(nfind)
    ]
    prod = math.prod

    if nfree == 0:
        e = prod(terms)
        if e >= epsilon:
            yield Extension((), e)
        return

    decided = [False] * nfree
    root_prod = [1.0] * (nfree + 1)  # root factor product of the first d decisions
    undo: list[list | None] = [None] * nfree
    iters = [iter(branch[0])]
    while iters:
        d = len(iters) - 1
        state = next(iters[-1], None)
        saved = undo[d]
        if saved is not None:
            # revert the previous sibling's effect at this depth
            for fi, ow, ot in reversed(saved):
                w[fi] = ow
                terms[fi] = ot
            undo[d] = None
        if state is None:
            iters.pop()
            continue
        saved = []
        for fi, omq, nxt in adj[d]:
            ow = w[fi]
            saved.append((fi, ow, terms[fi]))
            if state:
                ow *= omq
                w[fi] = ow
            terms[fi] = 1.0 - ow * suffix[fi][nxt] if present[fi] else ow
        undo[d] = saved
        decided[d] = state
        fac = root_fac[d]
        rp = root_prod[d] if fac is None else root_prod[d] * (fac[0] if state else fac[1])
        root_prod[d + 1] = rp
        if track:
            stats["nodes"] += 1
            if d + 1 > stats["max_depth"]:
                stats["max_depth"] = d + 1
        if prod(terms) * rp * rsm[d + 1] < guard:
            continue
        if d + 1 == nfree:
            e = prod(terms) * rp
            if e >= epsilon:
                yield Extension(tuple(zip(free, decided)), e)
            continue
        iters.append(iter(branch[d + 1]))


def _explanation_bound(present, w, links, cost) -> float:
    """Cheapest-explanation bound on the findings' factor product over every
    assignment of the free parents; times the larger prior factor of every
    free root it bounds the extension product (after Henrion, UAI 1991, and
    Poole, IJCAI 1993).

    ``cost[pos]`` is what setting free parent ``pos`` present costs against
    the per-node bound: the 1-q of every absent finding it feeds, times
    prior / max(prior, 1-prior) for a root.  A present finding f is either
    unexplained by the free parents, factor 1-w, or has a present free parent
    p, factor at most plain (every free parent present) while p pays
    cost[p]; so h = max(1-w, plain * max cost) bounds f with its explainer's
    cost charged to it.  Findings picked with pairwise disjoint free-parent
    sets have distinct explainers, so their costs multiply and every picked
    finding may take h at once; the rest keep plain.  Greedy order: largest
    saving (h/plain ascending) first, ties by finding index; a finding with
    h == plain saves nothing and is left out of the picking.
    """
    bound = 1.0
    ranked = []
    for fi, lf in enumerate(links):
        wf = w[fi]
        if not present[fi]:
            bound *= wf
            continue
        free_omq = 1.0
        max_cost = 0.0
        for pos, omq in lf:
            free_omq *= omq
            if cost[pos] > max_cost:
                max_cost = cost[pos]
        plain = 1.0 - wf * free_omq
        h = max(1.0 - wf, plain * max_cost)
        if h < plain:
            ranked.append((h / plain, fi, h, plain))
        else:
            bound *= plain
    ranked.sort()
    taken: set[int] = set()
    for _, fi, h, plain in ranked:
        positions = [pos for pos, _ in links[fi]]
        if taken.isdisjoint(positions):
            taken.update(positions)
            bound *= h
        else:
            bound *= plain
    return bound


def epsilon_ml(net: Network, sub: Subproblem, epsilon: float) -> list[Extension]:
    """Exactly the extensions whose new factor product is >= epsilon."""
    return list(iter_extensions(net, sub, epsilon))


def upper_bound(
    net: Network, sub: Subproblem, decided: Mapping[int, bool]
) -> float:
    """Admissible bound: at least the new factor product of every completion
    of a prefix decision over ``free_parents``.

    This is the per-node bound the search prunes with.  Present findings are
    bounded by treating every undecided parent as present, absent findings by
    treating them as absent; undecided roots contribute their larger prior
    factor.  On a complete decision the bound equals the extension product
    exactly.  At entry (the empty decision) the search also applies the
    tighter cheapest-explanation bound, so a subproblem can end with no node
    expanded even though this bound clears epsilon.
    """
    free = sub.free_parents
    k = len(decided)
    if k > len(free) or any(p not in decided for p in free[:k]):
        raise NetworkError("decided states must cover a prefix of free_parents")
    pos_of = {p: i for i, p in enumerate(free)}
    nodes = net.nodes
    terms = []
    for nid, state in sub.findings:
        # fold fixed parents in link order, then free parents in search order,
        # mirroring the search's own accumulation so a complete decision
        # reproduces the extension product bit for bit
        w = net._leak_c[nid]
        free_links = []
        for p, omq in net._links_omq[nid]:
            pos = pos_of.get(p)
            if pos is None:
                if sub.fixed_parents[p]:
                    w *= omq
            else:
                free_links.append((pos, omq))
        free_links.sort()
        if state:
            for pos, omq in free_links:
                p = free[pos]
                if p not in decided or decided[p]:
                    w *= omq
            terms.append(1.0 - w)
        else:
            for pos, omq in free_links:
                if decided.get(free[pos], False):
                    w *= omq
            terms.append(w)
    bound = math.prod(terms)
    roots = 1.0
    for p in free:
        prior = nodes[p].prior
        if prior is None:
            continue
        if p in decided:
            roots *= prior if decided[p] else 1.0 - prior
        else:
            roots *= max(prior, 1.0 - prior)
    return bound * roots
