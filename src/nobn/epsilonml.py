"""Level-wise branching: enumerate assignments to the unassigned parents of a
level's findings whose newly-known factor product clears a threshold.

Each subproblem is effectively a two-level network: a set of assigned
"findings" with no arcs among them, and the parents still free.  The search
is depth-first over the free parents with an admissible per-node upper bound
(the one :func:`upper_bound` computes), so it returns exactly the set
{ parent assignment : product >= epsilon } while storing only the current
decision path.

Every subproblem starts with one pass over its findings' links (``_setup``).
The pass folds the assigned parents into each finding's factor, records the
free links, and prices each free parent as the explanation of a present
finding; a cheapest-explanation bound on the whole subproblem follows at
once.  Most subproblems that yield nothing fail that bound and end there,
before the free parents are ordered or any search table is built.  The rest
reuse the pass's factors and links for their tables (``_tables``) and the
depth-first search (``_dfs``).

The thresholded product multiplies every finding's conditional factor and the
true prior of every free root parent.  Free non-root parents contribute 1:
their own conditional factor is unknown until their level is expanded, and 1
is its only safe bound.  That keeps the threshold a necessary condition for
any completion of the joint, which is what the driving engine relies on.

:func:`build_subproblem` + :func:`iter_extensions` is the inspectable
two-step form; :func:`iter_level_extensions` is the engine's one-call form.
Both run the same three steps, so they yield the same extensions in the same
order.
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
    findings = _findings(net, a, level)
    values = a.raw_values()
    # epsilon 0 skips the entry check, so the kernel always picks its order
    free = _setup(net, findings, values, 0.0)[0]
    fixed = {
        p: values[p]
        for nid, _ in findings
        for p, _ in net._links_omq[nid]
        if values[p] is not None
    }
    return Subproblem(tuple(findings), free, fixed)


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
    values: list[bool | None] = [None] * len(net.nodes)
    for p, state in sub.fixed_parents.items():
        values[p] = state
    tables = _setup(net, sub.findings, values, epsilon, sub.free_parents)
    return _dfs(tables, stats)


def iter_level_extensions(
    net: Network, a: Assignment, level: int, epsilon: float
) -> Iterator[Extension]:
    """build_subproblem + iter_extensions without the Subproblem object or
    its fixed-parent dict; the engine's per-state hot path.  Same results as
    the two-step form, same ordering; a subproblem rejected at entry costs
    this one call and no generator."""
    # assigned parents are read straight off the value list
    tables = _setup(net, _findings(net, a, level), a.raw_values(), epsilon)
    return iter(()) if tables is None else _dfs(tables, None)


def _findings(net: Network, a: Assignment, level: int) -> list[tuple[int, bool]]:
    """The assigned nodes at ``level`` that still have unassigned parents."""
    if not 0 <= level <= net.max_level:
        raise NetworkError(f"level {level} out of range")
    values = a.raw_values()
    findings = [
        (nid, values[nid])
        for nid in net.level_nodes[level]
        if values[nid] is not None and a.unassigned_parent_count(nid)
    ]
    if not findings:
        raise NoFindingsError(f"no assigned node at level {level} has unassigned parents")
    return findings


def _setup(net, findings, values, epsilon, free=None):
    """One pass over the findings' links and the entry check; the search
    tables of :func:`_tables` when it passes, None when the subproblem is
    provably empty.

    ``values[p]`` is the state of an assigned parent and None for a free one.
    ``free`` is the search order, None for the default one.

    The entry check is a cheapest-explanation bound on the findings' factor
    product over every assignment of the free parents, times the larger
    prior factor of every free root (after Henrion, UAI 1991, and Poole,
    IJCAI 1993).  ``cost[p]`` is what setting free parent p present costs
    against the per-node bound: the 1-q of every absent finding it feeds,
    times prior / max(prior, 1-prior) for a root.  A present finding f is
    either unexplained by the free parents, factor 1-w, or has a present free
    parent p, factor at most plain (every free parent present) while p pays
    cost[p]; so h = max(1-w, plain * max cost) bounds f with its explainer's
    cost charged to it.  Findings picked with pairwise disjoint free-parent
    sets have distinct explainers, so their costs multiply and every picked
    finding may take h at once; the rest keep plain.  Greedy order: largest
    saving (h/plain ascending) first, ties by finding index; a finding with
    h == plain saves nothing and is left out of the picking.
    """
    leak_c = net._leak_c
    links_omq = net._links_omq
    priors = net._priors
    w = []  # (1-leak) * prod(1-q) over fixed-present parents
    links = []  # per finding: its free (parent, 1-q) links, in link order
    cost: dict[int, float] = {}
    roots = 1.0  # larger prior factor of every free root
    bound = 1.0
    present = []
    # level labeling forbids arcs inside a level, so no finding feeds another
    for fi, (nid, state) in enumerate(findings):
        base = leak_c[nid]
        lf = []
        for link in links_omq[nid]:
            p, omq = link
            fixed = values[p]
            if fixed is None:
                lf.append(link)
                c = cost.get(p)
                if c is None:
                    prior = priors[p]
                    if prior is None:
                        c = 1.0
                    else:
                        larger = max(prior, 1.0 - prior)
                        roots *= larger
                        c = prior / larger
                cost[p] = c if state else c * omq
            elif fixed:
                base *= omq
        w.append(base)
        links.append(lf)
        if state:
            present.append(fi)
        else:
            bound *= base

    guard = epsilon - epsilon * _PRUNE_MARGIN
    # at guard 0 nothing can be pruned, so the bound is not worth finishing
    if guard > 0:
        ranked = []
        for fi in present:  # every cost is final now
            free_omq = 1.0
            max_cost = 0.0
            for p, omq in links[fi]:
                free_omq *= omq
                if cost[p] > max_cost:
                    max_cost = cost[p]
            plain = 1.0 - w[fi] * free_omq
            h = max(1.0 - w[fi], plain * max_cost)
            if h < plain:
                ranked.append((h / plain, fi, h, plain))
            else:
                bound *= plain
        ranked.sort()
        taken: set[int] = set()
        for _, fi, h, plain in ranked:
            parents = [p for p, _ in links[fi]]
            if taken.isdisjoint(parents):
                taken.update(parents)
                bound *= h
            else:
                bound *= plain
        if bound * roots < guard:
            return None
    return _tables(net, findings, w, links, free, epsilon, guard)


def _tables(net, findings, w, links, free, epsilon, guard):
    """Order the free parents (unless ``free`` gives the order) and build the
    search's tables from the entry pass's ``w`` and free links."""
    if free is None:
        # descending best activation probability, ties by id:
        # 1 - min(1-q) == max(q) exactly (rounding is monotone), and
        # low - 1 == -(1 - low) exactly
        low: dict[int, float] = {}
        for lf in links:
            for p, omq in lf:
                if omq < low.get(p, 2.0):
                    low[p] = omq
        free = tuple(sorted(low, key=lambda p: (low[p] - 1.0, p)))
    nfree = len(free)
    pos_of = {p: i for i, p in enumerate(free)}
    priors = net._priors

    # per position: branch order and the (absent, present) root factors;
    # a non-root gets (1.0, 1.0), and x * 1.0 == x exactly
    branch: list[tuple[bool, bool]] = []
    root_fac: list[tuple[float, float]] = []
    for p in free:
        prior = priors[p]
        if prior is None:
            root_fac.append((1.0, 1.0))
            branch.append((True, False))
        else:
            root_fac.append((1.0 - prior, prior))
            branch.append((True, False) if prior >= 0.5 else (False, True))
    # suffix products of the best root factor
    rsm = [1.0] * (nfree + 1)
    for d in range(nfree - 1, -1, -1):
        rsm[d] = max(root_fac[d]) * rsm[d + 1]

    # per position, the findings it feeds: absent ones as (finding, 1-q),
    # present ones as (finding, 1-q, tail), tail the product of the 1-q of
    # the finding's parents later in the order; a present finding's term
    # treats those undecided parents as present, an absent one's as absent
    absent_adj: list[list[tuple[int, float]]] = [[] for _ in range(nfree)]
    present_adj: list[list[tuple[int, float, float]]] = [[] for _ in range(nfree)]
    terms = w.copy()
    for fi, lf in enumerate(links):
        if findings[fi][1]:
            tail = 1.0
            for pos, omq in sorted([(pos_of[p], omq) for p, omq in lf], reverse=True):
                present_adj[pos].append((fi, omq, tail))
                tail *= omq
            terms[fi] = 1.0 - w[fi] * tail
        else:
            for p, omq in lf:
                absent_adj[pos_of[p]].append((fi, omq))
    return free, branch, root_fac, rsm, w, absent_adj, present_adj, terms, epsilon, guard


def _dfs(tables, stats) -> Iterator[Extension]:
    """Depth-first search over the tables of :func:`_tables`; None tables
    (rejected at entry) yield nothing."""
    track = stats is not None
    if track:
        stats.setdefault("nodes", 0)
        stats.setdefault("max_depth", 0)
    if tables is None:
        return
    free, branch, root_fac, rsm, w, absent_adj, present_adj, terms, epsilon, guard = tables
    nfree = len(free)
    prod = math.prod

    if nfree == 0:
        e = prod(terms)
        if e >= epsilon:
            yield Extension((), e)
        return

    # w[f] also folds in the decided-present parents; an absent finding's
    # term is its w
    decided = [False] * nfree
    root_prod = [1.0] * (nfree + 1)  # root factor product of the first d decisions
    undo: list[list | None] = [None] * nfree
    iters = [iter(branch[0])]
    while iters:
        d = len(iters) - 1
        state = next(iters[-1], None)
        saved = undo[d]
        if saved:
            # revert the previous sibling's effect at this depth
            for fi, ow, ot in reversed(saved):
                w[fi] = ow
                terms[fi] = ot
            undo[d] = None
        if state is None:
            iters.pop()
            continue
        saved = []
        # an absent parent changes no w, so absent findings keep their term
        if state:
            for fi, omq in absent_adj[d]:
                ot = terms[fi]
                saved.append((fi, ot, ot))
                terms[fi] = w[fi] = ot * omq
        for fi, omq, tail in present_adj[d]:
            ow = w[fi]
            saved.append((fi, ow, terms[fi]))
            if state:
                ow *= omq
                w[fi] = ow
            terms[fi] = 1.0 - ow * tail
        undo[d] = saved
        decided[d] = state
        rp = root_prod[d] * root_fac[d][state]
        root_prod[d + 1] = rp
        if track:
            stats["nodes"] += 1
            if d + 1 > stats["max_depth"]:
                stats["max_depth"] = d + 1
        # at a leaf rsm[nfree] == 1.0, so e is the extension product itself
        e = prod(terms) * rp
        if e * rsm[d + 1] < guard:
            continue
        if d + 1 == nfree:
            if e >= epsilon:
                yield Extension(tuple(zip(free, decided)), e)
            continue
        iters.append(iter(branch[d + 1]))


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
