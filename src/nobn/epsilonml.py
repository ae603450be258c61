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
free links, looks up each free parent's factor pair, and prices each free
parent as the explanation of a present finding; a cheapest-explanation
bound on the whole subproblem follows at once.  Most subproblems that yield
nothing fail that bound and end there, before the free parents are ordered
or any search table is built.  The rest reuse the pass's factors, links and
factor pairs for their tables (``_tables``) and the depth-first search
(``_dfs``).

The thresholded product multiplies every finding's conditional factor and the
factor of every free parent whose own parents are all assigned: a root's
prior, or a *pseudo-root*'s noisy-OR conditional given its assigned parents
(both are known the moment the extension assigns the parent, and are the
very factors the engine folds in then).  Other free parents contribute 1:
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

from .model import Assignment, Network, NetworkError, check_threshold, noisy_or_absent

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

# a free parent not yet looked up in the factor table
_UNPRICED = object()


class NoFindingsError(NetworkError):
    """No assigned node with unassigned parents at the requested level."""


@dataclass(frozen=True)
class Subproblem:
    """One branching instance: findings at a level plus their free parents.

    ``findings`` are the assigned nodes at the level whose factor is not yet
    known (they still have unassigned parents); nodes whose parents are all
    assigned already contributed their factor to the driving state's product.
    ``free_parents`` is the deterministic search order.  ``factors`` is
    aligned with it: the (absent, present) factor pair a free parent adds to
    the joint once assigned, ``(1 - prior, prior)`` for a root and
    ``(w, 1 - w)`` for a pseudo-root (every parent assigned, ``w`` its
    noisy-OR absent probability), None while some parent of it is free.
    """

    findings: tuple[tuple[int, bool], ...]
    free_parents: tuple[int, ...]
    fixed_parents: dict[int, bool] = field(default_factory=dict)
    factors: tuple[tuple[float, float] | None, ...] = ()

    def __post_init__(self):
        if len(self.factors) != len(self.free_parents):
            raise NetworkError("factors must be aligned with free_parents")


@dataclass(frozen=True)
class Extension:
    """One admissible assignment of the free parents.

    ``new_factor_product`` multiplies the findings' factors and the factors
    of the free roots and pseudo-roots under this assignment."""

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
    pairs: dict = {}
    # epsilon 0 skips the entry check, so the kernel always picks its order
    free = _setup(net, findings, values, 0.0, pairs, a.unassigned_parent_count)[0]
    fixed = {
        p: values[p]
        for nid, _ in findings
        for p, _ in net._links_omq[nid]
        if values[p] is not None
    }
    return Subproblem(tuple(findings), free, fixed, tuple(pairs.get(p) for p in free))


def iter_extensions(
    net: Network,
    sub: Subproblem,
    epsilon: float,
    stats: dict | None = None,
) -> Iterator[Extension]:
    """Yield every qualifying extension in depth-first discovery order.

    Branch order: non-root parents, pseudo-roots included, try present
    first; roots try their more probable state first.  ``stats``, when
    given, receives ``nodes`` (partial decisions expanded) and ``max_depth``
    (peak stored decisions).
    """
    check_threshold(epsilon)
    values: list[bool | None] = [None] * len(net.nodes)
    for p, state in sub.fixed_parents.items():
        values[p] = state
    pairs = dict(zip(sub.free_parents, sub.factors))
    tables = _setup(net, sub.findings, values, epsilon, pairs, None, sub.free_parents)
    return _dfs(tables, stats)


def iter_level_extensions(
    net: Network, a: Assignment, level: int, epsilon: float
) -> Iterator[Extension]:
    """build_subproblem + iter_extensions without the Subproblem object or
    its fixed-parent dict; the engine's per-state hot path.  Same results as
    the two-step form, same ordering; a subproblem rejected at entry costs
    this one call and no generator."""
    # assigned parents are read straight off the value list; a free parent
    # none of whose own parents is unassigned is a root or pseudo-root
    tables = _setup(
        net, _findings(net, a, level), a.raw_values(), epsilon, {}, a.unassigned_parent_count
    )
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


def _setup(net, findings, values, epsilon, pairs, pending, free=None):
    """One pass over the findings' links and the entry check; the search
    tables of :func:`_tables` when it passes, None when the subproblem is
    provably empty.

    ``values[p]`` is the state of an assigned parent and None for a free one.
    ``pairs`` maps a free parent to its factor pair (see
    :class:`Subproblem`), and a missing entry reads as None.  A free parent
    missing from it is priced on first sight: a root by its prior, a
    pseudo-root (``pending(p)``, its count of unassigned parents, is 0) by
    ``values``; the pair is added, so the caller can read the table back.
    ``free`` is the search order, None for the default one.

    The entry check is a cheapest-explanation bound on the findings' factor
    product over every assignment of the free parents, times the larger
    factor of every free root or pseudo-root (after Henrion, UAI 1991, and
    Poole, IJCAI 1993).  ``cost[p]`` is what setting free parent p present
    costs against the per-node bound: the 1-q of every absent finding it
    feeds, times present / max(absent, present) for a root or pseudo-root.
    A present finding f is either unexplained by the free parents, factor
    1-w, or has a present free parent p, factor at most plain (every free
    parent present) while p pays cost[p]; so h = max(1-w, plain * max cost)
    bounds f with its explainer's cost charged to it.  Findings picked with
    pairwise disjoint free-parent sets have distinct explainers, so their
    costs multiply and every picked finding may take h at once; the rest
    keep plain.  Greedy order: largest
    saving (h/plain ascending) first, ties by finding index; a finding with
    h == plain saves nothing and is left out of the picking.
    """
    leak_c = net._leak_c
    links_omq = net._links_omq
    priors = net._priors
    w = []  # (1-leak) * prod(1-q) over fixed-present parents
    links = []  # per finding: its free (parent, 1-q) links, in link order
    cost: dict[int, float] = {}
    roots = 1.0  # larger factor of every free root and pseudo-root
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
                    pair = pairs.get(p, _UNPRICED)
                    if pair is _UNPRICED:
                        prior = priors[p]
                        if prior is not None:
                            pair = pairs[p] = (1.0 - prior, prior)
                        elif pending(p):
                            pair = None
                        else:
                            # the factor Assignment.assign folds in, bit for bit
                            a_p = noisy_or_absent(net, p, values)
                            pair = pairs[p] = (a_p, 1.0 - a_p)
                    if pair is None:
                        c = 1.0
                    else:
                        off, on = pair
                        larger = off if off > on else on
                        roots *= larger
                        c = on / larger
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
    return _tables(net, findings, w, links, pairs, free, epsilon, guard)


def _tables(net, findings, w, links, pairs, free, epsilon, guard):
    """Order the free parents (unless ``free`` gives the order) and build the
    search's tables from the entry pass's ``w``, free links and factor
    pairs."""
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

    # per position: branch order and the (absent, present) factor pair; an
    # unpriced parent gets (1.0, 1.0), and x * 1.0 == x exactly.  Only a
    # root may try absent first (prior < 0.5 exactly when absent > present)
    branch: list[tuple[bool, bool]] = []
    root_fac: list[tuple[float, float]] = []
    for p in free:
        pair = pairs.get(p)
        if pair is None:
            root_fac.append((1.0, 1.0))
            branch.append((True, False))
        else:
            root_fac.append(pair)
            absent_first = pair[0] > pair[1] and priors[p] is not None
            branch.append((False, True) if absent_first else (True, False))
    # suffix products of the best root or pseudo-root factor
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
    treating them as absent.  Roots and pseudo-roots contribute their factor
    from ``sub.factors`` (the larger one while undecided); the other free
    parents contribute 1.  On a complete decision the bound equals the
    extension product exactly.  At entry (the empty decision) the search also applies the
    tighter cheapest-explanation bound, so a subproblem can end with no node
    expanded even though this bound clears epsilon.
    """
    free = sub.free_parents
    k = len(decided)
    if k > len(free) or any(p not in decided for p in free[:k]):
        raise NetworkError("decided states must cover a prefix of free_parents")
    pos_of = {p: i for i, p in enumerate(free)}
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
    for p, pair in zip(free, sub.factors):
        if pair is not None:
            roots *= pair[decided[p]] if p in decided else max(pair)
    return bound * roots
