"""Level-wise branching: enumerate assignments to the unassigned parents of a
level's findings whose newly-known factor product clears a threshold.

Each subproblem is nearly a two-level network: a set of assigned "findings"
with no arcs among them, and the parents still free (in a multi-level net
these may have arcs among them, see below).  The search
is depth-first over the free parents with an admissible per-node upper bound,
so it returns exactly the set { parent assignment : product >= epsilon }
while storing only its tables and one copy of the assignment's state list,
which carries its current decision path.  :func:`upper_bound` folds
that bound from the search's own tables in the order of the leaf product;
the search keeps it incrementally, groups the products differently, and so
prunes only with a margin (``_PRUNE_MARGIN``).

Two orders of the free parents are kept apart.  The *emission order*,
descending best activation probability over the findings a parent feeds,
ties by id, is the order in which each extension lists its parents, so the
order in which the engine assigns them.  The *search order* is the order the
search decides them in: most children in the subproblem first, counting the
children that are assigned or free parents too, ties in emission order.  A
parent with many children completes or tightens many factors once decided,
so the bounds prune near the top of the tree (the fail-first idea of
Haralick and Elliott, AIJ 1980).  Both orders read only which nodes are
assigned, so the plan holds them.  The search yields each leaf that passes
as soon as it reaches it, so the extensions come in the search order's
lexicographic branch order, and when nothing is pruned the first one comes
after one decision per free parent.  An extension's product is folded in
search order, so it may differ from the emission order's fold in the last
bits.  Unless such a product lies within those bits of the threshold, the
same extensions qualify whichever order the search takes, each with the
same batch, so every joint the engine folds keeps its bits.  Only the order
in which the joints arrive depends on the search order, and the engine's
sums are exact (:class:`~nobn.model.Tally`), so they do not.

Every subproblem is set up in two parts.  Its plan (``_plan``) is the
structure that depends only on which nodes are assigned: the findings'
links to free parents, the free parents in search order, which of them are
roots or pseudo-roots, each finding's search table entries, per search
position the nodes whose factor deciding it completes, and the charged
search's open-factor tables (below).  Its value pass (``_bind``) does the
arithmetic that depends on the states: it starts each finding's factor
from its noisy-OR given the assigned parents, prices each free parent as
the explanation of a present finding, and checks a cheapest-explanation
bound on the whole subproblem.  Most subproblems that yield nothing fail
that bound and end there, before any search table is filled; the rest copy
the states into the search's state list and fill the tables from the plan
for the depth-first search (``_dfs``).  Within one engine call every state
whose frontier is level L has the same assigned nodes, and so do the
engine's calls on the same evidence, so both forms below take their plan
from ``_pose``, which keeps one per level for the network searched last
(``_plans``).  The value pass runs in the same order whichever search
built the plan, so every product keeps its bits.

The thresholded product multiplies every factor the extension completes,
which are the very factors the engine folds in when it applies the
extension: every finding's conditional factor; the factor of every free
parent whose own parents are all assigned, a root's prior or a
*pseudo-root*'s noisy-OR conditional given its assigned parents; and the
noisy-OR conditional of every other node, free parent or assigned node off
the level, whose unassigned parents are all free here.  Every such
completed factor follows one rule: it is :func:`~nobn.model.node_factor`
over the search's states, taken at the depth where its last free variable
is decided, and counts as 1 before it, which keeps the bounds admissible,
since no factor exceeds 1; it is the factor ``Assignment.assign`` folds in,
bit for bit.  A free parent with a parent outside
the subproblem contributes 1: its conditional factor is unknown until its
level is expanded, and 1 is its only safe bound.  That keeps the threshold a
necessary condition for any completion of the joint, which is what the
driving engine relies on, and no extension leaves the engine a child whose
known product already misses the target.

Every subproblem is posed from an assignment and a level and runs the same
``_pose`` -> ``_bind`` -> ``_dfs`` path.  :func:`build_subproblem` snapshots
the assignment's states and its kept plan into a :class:`Subproblem`, whose
plan :func:`iter_extensions` and :func:`upper_bound` bind later, with the
exact set semantics above.
:func:`iter_level_extensions`, the engine's one-call form, reads the live
assignment and adds one prune for the engine alone: it charges each
extension a bound on factors the extension leaves open, which the product
counts as 1.  A present free parent that is not a root and has a parent
outside the subproblem contributes 1 to the product, yet its own factor and
those of its unassigned ancestors are still to come; their product is at
most the parent's cheapest explanation (:func:`_explanation`, after Henrion
and Poole again), which also takes from each absent node that an outside
explainer feeds the 1-q of that link.  An outside explainer is priced by
the same bound in turn, so its own explainer pays for the absent nodes it
feeds too.  Only a parent assigned present, a free parent or an outside
node can explain: a parent assigned absent explains nothing, and with no
other candidate the explanation is the leak.  The search takes the
smallest such explanation among the present parents, never two of them,
since two parents may share an ancestor.  An absent node whose factor
stays open is at most its leak complement times the 1-q of
every parent already present, its noisy-OR absent probability over the
search's states (the plan's open-factor tables).  The search bounds two
kinds of such node: a free parent with a parent outside the subproblem,
once decided absent, and an assigned-absent node off the level that a free
parent feeds and that has a parent outside the subproblem.  These bounds
count only parents fixed or decided present, while an explanation covers a
present parent, its unassigned ancestors outside the subproblem and the
links from those ancestors to absent children, so no factor is bounded
twice and the charge is the explanation times every absent bound.
Both only shrink as the search goes deeper, an absent bound as it decides
parents present and an explanation as it decides the explainer's other free
children absent, so they prune inner nodes as well as leaves.  A dropped
extension therefore has no completion that reaches the engine's target, and
the engine's form yields the two-step form's extensions whose charged
product (:meth:`Extension.clears`) clears the threshold, in the same order
and with the same products: a subset, not the same set.  A charge depends
on the assignment and the extension alone, never on a positive threshold,
which is what lets the engine's context memo filter a kept list by it.  At
threshold 0 nothing can be pruned, so the search prices no charge and every
extension carries 1.0.  The memo never mixes the two: within one engine call
every rescaled threshold is 0 or every one is positive, since for a positive
target ``rescaled_threshold`` returns ``e / p`` with ``e`` at least the
target and ``p <= 1``.

An explanation reads the states of a few assigned nodes only: the free
parent's assigned parents and, for each outside ancestor reached through
unassigned parents outside the subproblem, that ancestor's assigned parents
and children (:func:`_read_set`).  Which nodes those are depends only on
which nodes are assigned, so each charged position of a plan keeps every
record it has priced, keyed by those nodes' states, a context in the sense
of recursive conditioning (Darwiche, AIJ 2001); a search takes a kept
record and prices only the records not seen yet (:func:`_recall`).  A
seed-0 ``bn3-f26`` benchmark round prices 208 records where it priced
8,672.  With pricing that cheap, the entry check also takes the search's
one charge, for one present finding whose free parents are all charged
(:func:`_bind`), and rejects 2,529 of that round's 4,762 searches before
any inner node, where it rejected 1,453.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple

from .model import Assignment, Network, NetworkError, check_threshold, node_factor, noisy_or_absent

__all__ = [
    "NoFindingsError",
    "Subproblem",
    "Extension",
    "build_subproblem",
    "iter_extensions",
    "upper_bound",
]

# Pruning slack.  _dfs keeps upper_bound's per-node bound incrementally, as
# 1 - w * tail per present finding (tail the product of its later parents'
# 1-q) and rp for the factors completed so far, where upper_bound folds
# every product left to right in the leaf's order.  The groupings can differ
# in the last bits, so prune only with this much margin.  Leaves are tested
# exactly; the margin can only retain extra branches.  This regrouped copy
# stays because it is cheaper: pruning with the exact left-to-right fold
# (each present finding's term refolded over its later parents) took a
# median 42% longer (per-pair IQR 34-49%, 19 of 20 pairs) over the 4,762
# iter_level_extensions calls of a seed-0 bn3-f26 benchmark round, set-up
# plus search, with the same 5,840 extensions and 107,628 inner nodes
# (in-process A/B replaying the recorded calls, 2-core VM, Python 3.11.7;
# measured while the bound still took each undecided root's larger factor).
_PRUNE_MARGIN = 1e-9


class NoFindingsError(NetworkError):
    """No assigned node with unassigned parents at the requested level."""


@dataclass(frozen=True)
class Subproblem:
    """One branching instance, a snapshot of the assignment it was posed from.

    ``values`` copies the assignment's state list and ``plan`` is the kept
    plan of its assigned nodes (see the module notes), never changed once
    built; the search reads only these and ``findings``, so later changes
    to the assignment do not reach it.

    ``findings`` are the assigned nodes at the level whose factor is not
    yet known (they still have unassigned parents); nodes whose parents are
    all assigned already contributed their factor to the driving state's
    product.  ``free_parents`` lists the free parents in search order (see
    the module notes), the order :func:`upper_bound`'s prefixes follow; an
    extension lists them in emission order.
    """

    findings: tuple[tuple[int, bool], ...]
    free_parents: tuple[int, ...]
    values: tuple[bool | None, ...]
    plan: _Plan = field(compare=False, repr=False)


class Extension(NamedTuple):
    """One admissible assignment of the free parents.

    ``parent_states`` holds (id, state) pairs in emission order (see the
    module notes), the batch the engine applies; the extensions themselves
    come in the order the search finds them.

    ``new_factor_product`` multiplies every factor this assignment
    completes: the findings', the free roots' and pseudo-roots', and that
    of every free parent or assigned node whose unassigned parents are all
    free parents.  It is the factor by which applying the extension moves
    the assignment's known product, up to rounding.

    ``charge`` is what the engine's search (:func:`iter_level_extensions`)
    charged this extension for the factors it leaves open (see the module
    notes): the smallest cheapest-explanation bound (:func:`_explanation`)
    of a present free parent with a parent outside the subproblem, priced
    with the free parents absent in this extension and each outside
    explainer priced by the same bound, 1.0 when there is none, times the
    bound (see :func:`_plan`) of every absent free parent with such a
    parent and of every assigned-absent node off the level that a free
    parent feeds and that has one.  The explanation takes from an absent
    node only the 1-q of its links from outside explainers, which no
    absent bound counts, so the two parts bound
    disjoint sets of factors and their product bounds what the open
    factors can add together.  That search yields exactly the
    extensions that :meth:`clears` its threshold, and a charge does not
    depend on the threshold as long as it is positive.  At threshold 0
    that search prices nothing and its extensions carry 1.0, as do those
    of :func:`iter_extensions`, which charges nothing; for a positive
    target every rescaled threshold is positive too (module notes), so the
    engine never filters a list found at 0 by a positive threshold.

    A named tuple, so the search builds each one at the cost of a tuple."""

    parent_states: tuple[tuple[int, bool], ...]
    new_factor_product: float
    charge: float = 1.0

    def clears(self, epsilon: float) -> bool:
        """The search's leaf test: the charged product reaches ``epsilon``."""
        return self.new_factor_product * self.charge >= epsilon


def build_subproblem(net: Network, a: Assignment, level: int) -> Subproblem:
    """Snapshot the subproblem :func:`iter_level_extensions` would search at
    ``level``: the expandable findings and their free parents in search
    order.

    Parents are searched with the most children in the subproblem first,
    ties by descending maximum activation probability over the findings they
    feed, then by node id; extensions list them in that tie order, the
    emission order (see the module notes).  Raises :class:`NoFindingsError`
    when the level has nothing to expand, which tells a driver to look at a
    shallower level.
    """
    plan = _pose(net, a, level)
    values = tuple(a.raw_values())
    return Subproblem(
        tuple((rec[0], values[rec[0]]) for rec in plan.findings), plan.free, values, plan
    )


def iter_extensions(
    net: Network,
    sub: Subproblem,
    epsilon: float,
    stats: dict | None = None,
) -> Iterator[Extension]:
    """Yield every qualifying extension as soon as the search reaches it,
    in the search order's lexicographic branch order (see the module notes).

    Branch order: non-root parents, pseudo-roots included, try present
    first; roots try their more probable state first.  The generator holds
    the search tables and one copy of the state list, which carries the
    decision path, never the extensions found so far.  ``stats``, when
    given, receives ``nodes`` (partial decisions expanded).
    """
    check_threshold(epsilon)
    return _dfs(_bind(net, sub.plan, sub.values, epsilon), stats)


# The plans of the network searched last: a weak reference to it and one
# (assigned-node flags, plan) slot per level.  Within one top_epsilon call
# every state whose frontier is level L has the same assigned nodes, and so
# has every call on the same evidence (a property test walks the search tree
# to check it), so a seed-0 benchmark round builds 10 plans for the 4,919
# bn3-f26 subproblems it poses.  Keyed to the last network only: a slot on
# each Network would keep the plans of every live case net (twelve in a
# wide-log round) and took its peak_rss_mb from 24.8 to 26.6 MB (+7.5%,
# over the benchmark's 5% bound), and a cache per call (a slot on the
# Assignment) would build again the plans of every later call on the same
# evidence: wide-log wall_s 0.339 -> 0.438 s (+29%) and search_ms_p50 +67%,
# bn3-f83 wall_s +4% (3 alternating benchmark pairs each, medians, 2-core
# VM).  The plans go with their network: keeping the network alive after
# its caller dropped it slowed the benchmark's set-up between rounds by 5-9%
# (setup_s, bn3-f26 and bn3-f83).  A slot is an immutable tuple replaced
# whole, so threads sharing it at worst rebuild a plan.
_plans: tuple[weakref.ref | None, list] = (None, [])


def _drop_plans(owner: weakref.ref) -> None:
    """Forget the kept plans once their network is gone."""
    global _plans
    if _plans[0] is owner:
        _plans = (None, [])


def iter_level_extensions(
    net: Network, a: Assignment, level: int, epsilon: float
) -> Iterator[Extension]:
    """build_subproblem + iter_extensions on the live assignment, without
    the snapshot, charged for the factors an extension leaves open (see
    the module notes); the engine's per-state hot path.  It yields the
    two-step form's extensions whose charged product clears ``epsilon``,
    each with its charge, in the same order and as soon as found; a
    subproblem rejected at entry costs this one call and no generator.

    Charges are priced while the search runs and read ``a``, so ``a`` must
    be as it was at the call whenever the generator resumes, as the engine
    leaves it (it undoes each extension before taking the next)."""
    tables = _bind(net, _pose(net, a, level), a.raw_values(), epsilon, charged=True)
    return iter(()) if tables is None else _dfs(tables, None)


def _pose(net, a, level):
    """The plan of the subproblem at ``level`` of ``a``: the kept one when
    ``a`` has the nodes assigned that it was built for, else a new one,
    kept in its place.  The findings are the assigned nodes at the level
    that still have unassigned parents; raises :class:`NoFindingsError`
    when there are none."""
    global _plans
    # ahead of the slots, where a negative level would wrap
    if not 0 <= level <= net.max_level:
        raise NetworkError(f"level {level} out of range")
    owner, slots = _plans
    if owner is None or owner() is not net:
        slots = [None] * (net.max_level + 1)
        _plans = (weakref.ref(net, _drop_plans), slots)
    slot = slots[level]
    if slot is not None and slot[0] == a._assigned:
        return slot[1]
    values = a.raw_values()
    pending = a.raw_unassigned_parent_counts()
    findings = [
        nid for nid in net.level_nodes[level] if values[nid] is not None and pending[nid]
    ]
    if not findings:
        raise NoFindingsError(f"no assigned node at level {level} has unassigned parents")
    plan = _plan(net, findings, values, pending)
    slots[level] = (bytes(a._assigned), plan)
    return plan


class _Plan(NamedTuple):
    """What a subproblem's search tables need that depends only on which
    nodes are assigned (see :func:`_plan`); never changed once built, but
    for ``explained``, which keeps the charged positions' explanation
    records as they are priced (see :func:`_recall`).
    Every completed factor is :func:`~nobn.model.node_factor` over the
    search's states, taken at its last free variable's position."""

    findings: tuple  # (id, free links, present entries, tail)
    free: tuple[int, ...]
    pos_of: dict[int, int]
    branch: tuple[tuple[bool, bool], ...]
    emission: tuple[int, ...]
    priced: tuple[int, ...]  # positions of the free roots and pseudo-roots
    done: tuple[tuple[int, ...], ...]  # per position, the nodes it completes
    opens: tuple[bool, ...]  # per position, whether absent opens a factor
    reopens: tuple[tuple[tuple[int, float], ...], ...]  # per position, (id, 1-q)
    open_assigned: tuple[int, ...]  # assigned nodes off the findings, factor open
    # per charged position, None until first priced, then (None, (states,
    # first record)), then (key, records) from the second pricing on: key
    # reads the states of the assigned nodes its explanation can read,
    # records maps them to (record, watched positions); see _recall
    explained: list


def _plan(net, findings, values, pending):
    """The :class:`_Plan` of the subproblem posed by ``findings`` (node ids,
    from :func:`_pose`).  It reads ``values`` and ``pending`` only for
    which nodes are assigned, so it holds for every assignment of the same
    nodes.

    A finding's record holds its (position, 1-q) links to free parents, in
    link order, and its search table entries as a present finding,
    ``(position, (finding, 1-q, tail))`` by descending position,
    tail the product of the 1-q of its later parents, and the final tail,
    that product over every free link.
    Positions follow the search order (:func:`_search_order`); the emission
    order is descending best activation probability, ties by id, and
    ``emission`` lists the free parents in it, the order an extension lists
    them in.  ``done[pos]`` holds the nodes whose factor, besides the
    findings', is complete once position pos is decided: a free root's or
    pseudo-root's own first, then every free parent or assigned node off the
    findings whose unassigned parents are all free and last decided at pos.

    The last three table the open absent factors the charged search bounds
    (see the module notes): ``open_assigned`` the assigned nodes off the
    findings that a free parent feeds and that have a parent outside the
    subproblem, open when absent; ``opens[pos]`` whether the free parent at
    pos has such a parent and no factor completed here, open once decided
    absent; ``reopens[q]`` the (id, 1-q) of each of these nodes that the
    free parent at q feeds, assigned ones first as found, then free parents
    by position, for the search to fold in when it decides q present and
    the node is absent.  ``explained`` starts empty, one slot per position,
    and :func:`_recall` fills the charged positions' slots."""
    links_omq = net._links_omq
    priors = net._priors
    # 1 - min(1-q) == max(q) exactly (rounding is monotone), and
    # low - 1 == -(1 - low) exactly
    low: dict[int, float] = {}  # first seen first
    split = []
    for nid in findings:
        lf = []
        for link in links_omq[nid]:
            p, omq = link
            if values[p] is None:
                lf.append(link)
                if omq < low.get(p, 2.0):
                    low[p] = omq
        split.append((nid, lf))
    emission = tuple(sorted(low, key=lambda p: (low[p] - 1.0, p)))
    free = tuple(_search_order(net, emission, values))
    pos_of = {p: i for i, p in enumerate(free)}

    records = []
    for fi, (nid, lf) in enumerate(split):
        plinks = tuple((pos_of[p], omq) for p, omq in lf)
        present = []
        tail = 1.0
        for pos, omq in sorted(plinks, reverse=True):
            present.append((pos, (fi, omq, tail)))
            tail *= omq
        records.append((nid, plinks, tuple(present), tail))

    # only a root may try absent first (prior < 0.5 exactly when absent >
    # present)
    branch = tuple(
        (False, True) if priors[p] is not None and 1.0 - priors[p] > priors[p]
        else (True, False)
        for p in free
    )
    priced = tuple(pos for pos, p in enumerate(free) if not pending[p])
    done = [[p] if not pending[p] else [] for p in free]

    # the factors whose last free variable a position decides: a free parent
    # whose unassigned parents are all free, or an assigned node off the
    # findings with that property.  An assigned node with a parent outside
    # the subproblem is an open absent factor if it is absent.
    open_assigned = []
    seen = set(findings)  # their factors are the terms
    completed_at = set()
    for p in free:
        for c in net.children[p]:
            if c in seen:
                continue
            seen.add(c)
            at = pos_of.get(c, -1)
            if at < 0 and values[c] is None:
                continue  # free, but no finding's parent
            depth = at
            for g, _ in links_omq[c]:
                if values[g] is None:
                    q = pos_of.get(g)
                    if q is None:
                        break  # a parent outside the subproblem
                    if q > depth:
                        depth = q
            else:
                done[depth].append(c)
                completed_at.add(at)
                continue
            if at < 0:
                open_assigned.append(c)
    # a free parent neither priced (a root or pseudo-root) nor completed
    # here has a parent outside the subproblem
    opens = tuple(pending[p] > 0 and pos not in completed_at for pos, p in enumerate(free))
    reopens = [[] for _ in free]
    for n in open_assigned + [p for pos, p in enumerate(free) if opens[pos]]:
        at = pos_of.get(n, -1)
        for g, omq in links_omq[n]:
            q = pos_of.get(g, -1)
            if q > at:
                reopens[q].append((n, omq))
    return _Plan(
        tuple(records), free, pos_of, branch, emission, priced,
        tuple(map(tuple, done)), opens, tuple(map(tuple, reopens)), tuple(open_assigned),
        [None] * len(free),
    )


def _search_order(net, emit, values):
    """The free parents ``emit``, given in emission order, in search order:
    most children in the subproblem first, counting the children that are
    assigned or are free parents too, ties in emission order.  It reads
    ``values`` only for which nodes are assigned, as a plan may."""
    here = set(emit)
    return sorted(
        emit,
        key=lambda p: -sum(values[c] is not None or c in here for c in net.children[p]),
    )


def _bind(net, plan, values, epsilon, charged=False):
    """The entry check and, when it passes, the search tables of ``plan``
    under the states ``values``; None when the subproblem is provably empty.
    The state-dependent arithmetic only, in a fixed order, so every product
    keeps its bits whichever search built the plan.

    Each finding's ``w`` starts as its noisy-OR absent probability given
    ``values``.  The search's state list is a copy of ``values`` that
    :func:`_dfs` writes its decisions into.

    The entry check is a cheapest-explanation bound on the product of the
    findings' factors and the free roots' and pseudo-roots' over every
    assignment of the free parents (after Henrion, UAI 1991, and Poole,
    IJCAI 1993).  A root's or pseudo-root's factor counts as 1, its bound
    when absent, unless it explains a finding.  ``cost[p]`` is what setting
    free parent p present costs against that bound: the 1-q of every absent
    finding it feeds, times its present factor for a root or pseudo-root.
    A present finding f is either unexplained by the free parents, factor
    1-w, or has a present free parent p, factor at most plain (every free
    parent present, f's first search term) while p pays cost[p]; so h =
    max(1-w, plain * max cost) bounds f with its explainer's cost charged
    to it.  Findings picked with pairwise disjoint free-parent sets have
    distinct explainers, so their costs multiply and every picked finding
    may take h at once; the rest keep plain.  Greedy order: largest saving
    (h/plain ascending) first, ties by finding index; a finding with h ==
    plain saves nothing and is left out of the picking.

    When ``charged`` at a positive threshold, the entry check also takes
    the one charge the search applies (see :func:`_dfs`), the smallest
    explanation h' of a present charged parent, for one present finding f
    whose free parents are all charged: either none of them is present, and
    f keeps 1-w, or one is, and the extension's charge is at most that
    parent's h' over the assignment's states (:func:`_path_charge` of its
    record, its loosest value).  So f's term becomes max(1-w, plain * max
    cost[p] * h'(p)) if f was picked, max(1-w, plain * max h'(p)) if not,
    and the bound may take the smallest ratio of such a term to f's old one.
    The charge applies once, and its factors are disjoint from the
    findings' and the priced parents', so the bound stays admissible.  A
    finding whose 1-w alone leaves the bound at the guard cannot reject and
    is skipped before any pricing; what the check prices is kept for the
    search.  Also take the plan's open-factor tables (see :func:`_plan`),
    start their bound from the absent assigned nodes and mark the free
    parents whose explanation the search charges; otherwise every charge
    is 1.0."""
    records = plan.findings
    free = plan.free
    nfree = len(free)
    w = []  # (1-leak) * prod(1-q) over fixed-present parents
    bound = 1.0
    present = []
    # level labeling forbids arcs inside a level, so no finding feeds another
    for fi, (nid, _, _, _) in enumerate(records):
        base = noisy_or_absent(net, nid, values)
        w.append(base)
        if values[nid]:
            present.append(fi)
        else:
            bound *= base
    states = list(values)

    guard = epsilon - epsilon * _PRUNE_MARGIN
    # nor can a charge prune at guard 0, so none is priced (see Extension)
    charged = charged and guard > 0
    explain = paths = watchers = None
    # at guard 0 nothing can be pruned, so the bound is not worth finishing
    if guard > 0:
        cost = [1.0] * nfree
        for pos in plan.priced:
            p = free[pos]
            states[p] = True
            cost[pos] = node_factor(net, p, states)
            states[p] = None
        for nid, plinks, _, _ in records:
            if not values[nid]:
                for pos, omq in plinks:
                    cost[pos] *= omq
        ranked = []
        olds = []  # (finding, its term in the bound, picked)
        for fi in present:  # every cost is final now
            _, plinks, _, tail = records[fi]
            max_cost = 0.0
            for pos, _ in plinks:
                if cost[pos] > max_cost:
                    max_cost = cost[pos]
            plain = 1.0 - w[fi] * tail
            h = max(1.0 - w[fi], plain * max_cost)
            if h < plain:
                ranked.append((h / plain, fi, h, plain))
            else:
                bound *= plain
                olds.append((fi, plain, False))
        ranked.sort()
        taken: set[int] = set()
        for _, fi, h, plain in ranked:
            parents = [pos for pos, _ in records[fi][1]]
            if taken.isdisjoint(parents):
                taken.update(parents)
                bound *= h
                olds.append((fi, h, True))
            else:
                bound *= plain
                olds.append((fi, plain, False))
        if bound < guard:
            return None
        # the charged positions' h' records (see _recall), priced when the
        # entry check or the search first needs one, and per position the
        # earlier positions whose records deciding this one absent shrinks
        if charged and any(plan.opens):
            opens = plan.opens
            paths = [None] * nfree
            watchers = [()] * nfree
            explain = partial(_recall, net, values, plan, {}, watchers)
            for fi, old, picked in olds:
                _, plinks, _, tail = records[fi]
                # f's new term is at least 1-w, so only a finding whose 1-w
                # alone takes the bound below the guard can reject
                if bound * (1.0 - w[fi]) / old >= guard or not all(
                    opens[pos] for pos, _ in plinks
                ):
                    continue
                best = 0.0
                for pos, _ in plinks:
                    path = paths[pos]
                    if path is None:
                        path = paths[pos] = explain(free[pos], pos)
                    h = _path_charge(path, values)
                    if picked:
                        h *= cost[pos]
                    if h > best:
                        best = h
                # the smallest ratio rejects if any ratio does
                if bound * (1.0 - w[fi] * tail) * best / old < guard:
                    return None

    # per position, the findings it feeds: absent ones as (finding, 1-q),
    # present ones as (finding, 1-q, tail); a present finding's term treats
    # its undecided parents as present, an absent one's as absent
    absent_adj: list[list[tuple[int, float]]] = [[] for _ in range(nfree)]
    present_adj: list[list[tuple[int, float, float]]] = [[] for _ in range(nfree)]
    terms = w.copy()
    for fi, (nid, plinks, as_present, tail) in enumerate(records):
        if values[nid]:
            for pos, entry in as_present:
                present_adj[pos].append(entry)
            terms[fi] = 1.0 - w[fi] * tail
        else:
            for pos, omq in plinks:
                absent_adj[pos].append((fi, omq))

    # when charged, the product of the open factors' bounds before any
    # decision (see _plan)
    absent0 = 1.0
    if charged:
        opens, reopens = plan.opens, plan.reopens
        for n in plan.open_assigned:
            if values[n] is False:  # an assigned node's factor is open only if absent
                absent0 *= noisy_or_absent(net, n, values)
    else:
        opens = (False,) * nfree
        reopens = ((),) * nfree
    return (
        free, plan.branch, plan.emission, plan.done, states, w, absent_adj, present_adj,
        terms, explain, paths, watchers, absent0, opens, reopens, net, epsilon, guard,
    )


def _read_set(net, values, pos_of, n):
    """The ids, ascending, of the assigned nodes that :func:`_explanation`
    can read when it prices the free parent ``n``: n's assigned parents
    and, for every outside ancestor reached through unassigned parents
    outside the subproblem, that ancestor's assigned parents and assigned
    children.  It reads ``values`` only for which nodes are assigned, so it
    holds for the plan."""
    links_omq = net._links_omq
    children = net.children
    read = set()
    seen = {n}
    stack = [n]
    while stack:
        for g, _ in links_omq[stack.pop()]:
            if values[g] is not None:
                read.add(g)
            elif g not in seen and g not in pos_of:
                seen.add(g)
                stack.append(g)
                for a in children[g]:
                    if values[a] is not None:
                        read.add(a)
    return sorted(read)


def _recall(net, values, plan, memo, watchers, n, pos):
    """The record of :func:`_explanation` for the free parent ``n`` at the
    charged position ``pos``, listing pos in ``watchers[s]`` for each
    position s whose decision absent shrinks it.  A record depends only on
    the states of the few assigned nodes it can read (:func:`_read_set`),
    so the plan keeps each one with its positions, keyed by those states:
    a hit is taken as kept, a miss is priced with ``memo`` and kept.  The
    first record of a position is kept with a copy of the states it was
    priced under, and the read set, a walk of the outside ancestry, is
    built only when the position is priced again: a chain poses a plan per
    level and prices each position once, and building every read set there
    added a fifth to the pricing time of a 1,200-node chain (cProfile).
    Threads sharing a plan at worst price a record twice, since a slot or a
    record is only added whole."""
    slot = plan.explained[pos]
    if slot is None:
        hit = _explanation(net, values, plan.pos_of, memo, n, pos)
        plan.explained[pos] = (None, (tuple(values), hit))
    else:
        key, kept = slot
        if key is None:
            first_values, first = kept
            read = _read_set(net, values, plan.pos_of, n)
            key = itemgetter(*read) if read else (lambda values: None)
            kept = {key(first_values): first}
            plan.explained[pos] = (key, kept)
        k = key(values)
        hit = kept.get(k)
        if hit is None:
            hit = kept[k] = _explanation(net, values, plan.pos_of, memo, n, pos)
    path, watched = hit
    for s in watched:
        watchers[s] += (pos,)
    return path


def _explanation(net, values, pos_of, memo, n, pos):
    """Bound h'(n), the charge for setting the free parent ``n`` at position
    ``pos`` present.  It is at least the product of n's conditional factor,
    the factors of its unassigned ancestors outside the subproblem, and the
    factors their presence takes from absent nodes, over every completion
    with n present and the free parents as decided.

    Either no parent of n is present, and its factor is its leak, 1 -
    leak_c; or some parent g is, and n's factor is at most ``plain``, its
    noisy-OR with every parent present.  An assigned-absent g is never
    present and is skipped; a g assigned present or free brings 1 (its
    factor is known or priced by the search).  An outside g brings its
    term from :func:`_conflicts`: its prior if it is a root and this same
    bound if not, for itself and its ancestry, times the 1-q of its link
    to every absent node a that it feeds, assigned absent or, for n, a free
    sibling decided absent; a's factor is its leak complement times the 1-q
    of every present parent.  The open absent bounds (see :func:`_plan`)
    count only parents fixed or decided present, never an outside g, and no
    finding or completed factor has an outside parent, so no factor is
    bounded twice:

        h'(n) = max(leak_n, plain_n * max over g of h'(g) * prod(1-q_{g,a}))

    Returns the record ``(leak, plain, best, terms)`` that
    :func:`_path_charge` prices: the leak, ``plain``, the best term that no
    sibling changes, and the terms of the gs that feed another free parent
    and may still win the max; and the positions after pos of those
    siblings, whose decision absent shrinks the record.  Only n keeps such
    terms, for :func:`_path_charge` to shrink by the siblings decided
    absent on the path; an outside node's explainers count their free
    children as 1.  ``memo`` holds the outside nodes' terms within one
    value pass.  An outside explainer not in it yet is priced first, on an
    explicit stack of the nodes waiting for it, so a long outside ancestry
    costs no call depth.  ``values`` are the assignment's states, never the
    search's, so the memo holds for the whole subproblem, and the record
    depends only on the states of the nodes :func:`_read_set` lists, which
    lets the plan keep it (:func:`_recall`).
    """
    links_omq = net._links_omq
    priors = net._priors
    stack = [n]
    while True:
        m = stack[-1]
        top = len(stack) == 1
        links = links_omq[m]
        best = 0.0
        terms = []
        waiting = None
        for g, _ in links:
            fixed = values[g]
            if fixed is False:
                continue  # an absent parent explains nothing
            if fixed or g in pos_of:
                best = 1.0
                break
            term = memo.get(g)
            if term is None:
                t = priors[g]
                if t is None:
                    waiting = g
                    break
                term = memo[g] = _conflicts(net, values, pos_of, g, t)
            if top and len(term[1]) > 1:  # g feeds a free parent besides n
                terms.append(term)
            elif term[0] > best:
                best = term[0]
        if waiting is not None:
            stack.append(waiting)  # then scan m again
            continue
        w = leak_c = net._leak_c[m]
        for _, omq in links:
            w *= omq
        leak = 1.0 - leak_c
        plain = 1.0 - w
        if not top:
            stack.pop()
            t = _path_charge((leak, plain, best, terms), values)
            memo[m] = _conflicts(net, values, pos_of, m, t)
            continue
        # a term at most the best static one, or whose h' is the leak, never wins
        shrinking = []
        watched = []
        for term in terms:
            if term[0] > best and plain * term[0] > leak:
                shrinking.append(term)
                for a, _ in term[1]:
                    s = pos_of[a]
                    if s > pos and s not in watched:
                        watched.append(s)
        return (leak, plain, best, shrinking), tuple(watched)


def _conflicts(net, values, pos_of, g, t):
    """For an outside node g priced ``t`` (see :func:`_explanation`): t
    times the 1-q of g's link to every assigned-absent child, and the
    (id, 1-q) of g's link to every free child."""
    kids = []
    links_omq = net._links_omq
    for a in net.children[g]:
        state = values[a]
        if state is None:
            if a not in pos_of:
                continue
        elif state:
            continue
        for parent, omq in links_omq[a]:
            if parent == g:
                break
        if state is None:
            kids.append((a, omq))
        else:
            t *= omq
    return t, kids


def _path_charge(path, states):
    """h' from a record of :func:`_explanation`, each term shrunk by the
    free parents that ``states`` has decided absent; the parent itself is
    present."""
    leak, plain, best, terms = path
    for t, kids in terms:
        for a, omq in kids:
            if states[a] is False:
                t *= omq
        if t > best:
            best = t
    h = plain * best
    return h if h > leak else leak


def _dfs(tables, stats) -> Iterator[Extension]:
    """Depth-first search over the tables of :func:`_bind`, in search
    order, yielding each passing leaf as soon as it is reached, its parents
    in emission order; None tables (rejected at entry) yield nothing.

    Each decision is written into the tables' state list and set back to
    None once its branches are used up; every factor is priced from it."""
    track = stats is not None
    if track:
        stats.setdefault("nodes", 0)
    if tables is None:
        return
    (
        free, branch, emission, done, states, w, absent_adj, present_adj, terms,
        explain, paths, watchers, absent0, opens, reopens, net, epsilon, guard,
    ) = tables
    # every finding has a free parent (see _pose), so nfree >= 1
    nfree = len(free)
    prod = math.prod
    new = tuple.__new__

    # w[f] also folds in the decided-present parents; an absent finding's
    # term is its w.  Per depth, the completed factors of the first d
    # decisions, the smallest charge of a present parent among them, and the
    # product of the open absent factors' bounds after them
    done_prod = [1.0] * (nfree + 1)
    least = [1.0] * (nfree + 1)
    absent = [absent0] * (nfree + 1)
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
        p = free[d]
        if state is None:
            states[p] = None
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
        states[p] = state
        rp = done_prod[d]
        for n in done[d]:
            rp *= node_factor(net, n, states)
        c = least[d]
        # a parent decided present shrinks each open factor it feeds whose
        # node is absent, assigned so or decided so earlier on the path; a
        # parent decided absent opens its own, over its parents present so far
        ab = absent[d]
        if state:
            for n, omq in reopens[d]:
                if not states[n]:
                    ab *= omq
        elif opens[d]:
            ab *= noisy_or_absent(net, p, states)
        d += 1
        done_prod[d] = rp
        absent[d] = ab
        if track:
            stats["nodes"] += 1
        # every factor not yet complete counts as 1, so at a leaf e is the
        # extension product itself
        e = prod(terms) * rp
        bound = e * ab
        if bound * c < guard:
            continue
        if explain is not None:
            # the smallest charge of a present parent so far: a charged parent
            # set present is priced, one set absent shrinks the charges of the
            # present parents whose explainers feed it
            k = c
            if state:
                if opens[d - 1]:
                    path = paths[d - 1]
                    if path is None:
                        # priced at entry, or once a node that sets it
                        # present survives
                        path = paths[d - 1] = explain(p, d - 1)
                    k = _path_charge(path, states)
            else:
                for at in watchers[d - 1]:
                    if states[free[at]]:
                        h = _path_charge(paths[at], states)
                        if h < k:
                            k = h
            if k < c:
                c = k
                if bound * c < guard:
                    continue
        least[d] = c
        if d == nfree:
            # Extension.clears, before the tuple is built
            c *= ab
            if e * c >= epsilon:
                yield new(Extension, (tuple([(q, states[q]) for q in emission]), e, c))
            continue
        iters.append(iter(branch[d]))


def upper_bound(
    net: Network, sub: Subproblem, decided: Mapping[int, bool]
) -> float:
    """Admissible bound: at least the new factor product of every completion
    of a prefix decision over ``free_parents``.

    This is the per-node bound the search prunes with, folded in the order
    of the leaf product from the tables that the search's plan and value
    pass (``_plan``, ``_bind``) fill from the same snapshot, so on a
    complete decision it equals the extension product exactly.  Present
    findings are bounded by treating every undecided parent as present,
    absent findings by treating them as absent.  Every other factor the
    extension completes, a root's or pseudo-root's included, is
    :func:`~nobn.model.node_factor` over the decided states once the
    decision covers its last free variable, and 1 before.
    At entry (the empty decision) the search also applies the tighter
    cheapest-explanation bound, so a subproblem can end with no node
    expanded even though this bound clears epsilon.
    """
    # at epsilon 0 the entry check never rejects
    free, _, _, done, states, w, absent_adj, present_adj, *_ = _bind(
        net, sub.plan, sub.values, 0.0
    )
    k = len(decided)
    if k > len(free) or any(p not in decided for p in free[:k]):
        raise NetworkError("decided states must cover a prefix of free_parents")
    for p in free[:k]:
        states[p] = decided[p]
    # _bind folded the fixed parents into w; the free ones follow in search
    # order, a present one into every finding it feeds, an undecided one into
    # the present findings only
    rp = 1.0
    for pos, p in enumerate(free):
        state = states[p]
        if state is not None:
            for n in done[pos]:
                rp *= node_factor(net, n, states)
        if state:
            for fi, omq in absent_adj[pos]:
                w[fi] *= omq
        if state is not False:
            for fi, omq, _ in present_adj[pos]:
                w[fi] *= omq
    terms = [1.0 - wf if present else wf for wf, (_, present) in zip(w, sub.findings)]
    return math.prod(terms) * rp
