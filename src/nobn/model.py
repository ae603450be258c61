"""Noisy-OR belief network model: text formats, validation, levels, factor arithmetic.

A network is an immutable DAG of binary (present/absent) nodes. Root nodes
carry a prior; every other node is a leaky noisy-OR over its parents: the node
stays absent only if the leak and every present parent's activation all fail,

    P(present | parents) = 1 - (1 - leak) * prod(1 - q_p : parent p present)

Each node is labeled with its level, the largest number of arcs on any
directed path from a root to it.  Arcs therefore always go strictly level-up,
which is what lets the search modules expand assignments level by level.

The building blocks every inference module shares live here, once each:
every fold of a node's factor from its parents' states goes through
:func:`noisy_or_absent` and :func:`node_factor`.  Two kinds of fold stay
elsewhere on purpose, in the level search (:mod:`nobn.epsilonml`): its
incremental finding terms (``w`` and ``tail``) and ``reopens``, which
fold in one parent's 1-q at a time as the search decides it, and
``_explanation``'s ``plain``, a bound with every parent present rather than
a fold over states.  :class:`Tally` is the only accumulator of
probability mass and per-node present-score; its sums are exact, so they do
not depend on the order in which the joints arrive.

Probabilities are doubles multiplied in linear space.  An assignment keeps
its product scaled by a power of two, so deep joints never underflow, and
:class:`Tally` sums such scaled joints, so posteriors stay defined.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Sequence

__all__ = [
    "NetworkError",
    "NetParseError",
    "NodeSpec",
    "Network",
    "Assignment",
    "Tally",
    "parse_network",
    "print_network",
    "parse_evidence",
    "validate_evidence",
    "check_threshold",
    "noisy_or_absent",
    "node_factor",
    "prune_barren",
]

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")


class NetworkError(ValueError):
    """Invalid network structure, parameters, evidence, or assignment use."""


class NetParseError(NetworkError):
    """Malformed NET or EVIDENCE text; carries the offending line/column."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class NodeSpec:
    """One binary node: a root with a prior, or a leaky noisy-OR child.

    ``links`` pairs each parent id with its activation probability q, the
    chance that this parent alone turns the node present.
    """

    name: str
    prior: float | None = None
    leak: float | None = None
    links: tuple[tuple[int, float], ...] = ()

    @property
    def is_root(self) -> bool:
        return self.prior is not None

    def parent_ids(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.links)


class Network:
    """Immutable DAG of binary noisy-OR nodes with precomputed level labels.

    Node ids are indices into ``nodes`` (declaration order).  Construction
    validates the whole structure; instances are safe to share read-only
    across threads.  So are the subproblem plans that both forms of the
    level search take from one kept slot per level for the network searched
    last, as long as that network lives (``epsilonml._plans``): each slot is
    an immutable tuple replaced whole, so threads searching at once at worst
    build a plan again.  A plan's explanation records (``_Plan.explained``)
    are the one part that grows in place, a whole slot or a whole record
    added at a time, so the worst a race can do is price a record twice.
    """

    __slots__ = (
        "nodes",
        "name_index",
        "levels",
        "max_level",
        "children",
        "level_nodes",
        "arc_count",
        "_priors",
        "_leak_c",
        "_links_omq",
        "__weakref__",
    )

    def __init__(self, nodes: Sequence[NodeSpec]):
        nodes = tuple(nodes)
        n = len(nodes)
        name_index: dict[str, int] = {}
        for i, spec in enumerate(nodes):
            if not _NAME_RE.match(spec.name):
                raise NetworkError(f"invalid node name {spec.name!r}")
            if spec.name in name_index:
                raise NetworkError(f"duplicate node name {spec.name!r}")
            name_index[spec.name] = i
            if spec.is_root:
                if spec.leak is not None or spec.links:
                    raise NetworkError(
                        f"node {spec.name!r} has both a prior and noisy-OR parameters"
                    )
                _check_prob(spec.prior, f"prior of {spec.name!r}")
            else:
                if spec.leak is None:
                    raise NetworkError(f"node {spec.name!r} has neither prior nor leak")
                if not spec.links:
                    raise NetworkError(f"non-root node {spec.name!r} has no parents")
                _check_prob(spec.leak, f"leak of {spec.name!r}")
                seen: set[int] = set()
                for p, q in spec.links:
                    if not 0 <= p < n:
                        raise NetworkError(f"node {spec.name!r} links to unknown id {p}")
                    if p in seen:
                        raise NetworkError(
                            f"node {spec.name!r} lists parent {nodes[p].name!r} twice"
                        )
                    seen.add(p)
                    _check_prob(q, f"link {nodes[p].name!r}->{spec.name!r}")

        children: list[list[int]] = [[] for _ in range(n)]
        for i, spec in enumerate(nodes):
            for p, _ in spec.links:
                children[p].append(i)

        levels, max_level = _longest_path_levels(
            [spec.parent_ids() for spec in nodes], children
        )

        self.nodes = nodes
        self.name_index = name_index
        self.children = tuple(tuple(c) for c in children)
        self.levels = levels
        self.max_level = max_level
        self.arc_count = sum(len(spec.links) for spec in nodes)
        by_level: list[list[int]] = [[] for _ in range(max_level + 1)]
        for i, lvl in enumerate(levels):
            by_level[lvl].append(i)
        self.level_nodes = tuple(tuple(v) for v in by_level)
        # flat per-node parameter arrays for the inference hot paths
        self._priors = tuple(spec.prior for spec in nodes)
        self._leak_c = tuple(
            1.0 - spec.leak if spec.leak is not None else 1.0 for spec in nodes
        )
        # per node: (parent id, 1 - q) in link order
        self._links_omq = tuple(
            tuple((p, 1.0 - q) for p, q in spec.links) for spec in nodes
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Network) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self) -> str:
        return f"<Network {len(self.nodes)} nodes, {self.arc_count} arcs, {self.max_level + 1} levels>"

    def node_id(self, name: str) -> int:
        try:
            return self.name_index[name]
        except KeyError:
            raise NetworkError(f"unknown node name {name!r}") from None


def _check_prob(p, what: str) -> None:
    if not isinstance(p, (int, float)) or not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise NetworkError(f"{what}: probability {p!r} out of [0, 1]")


def check_threshold(value: float, what: str = "epsilon") -> float:
    """Return ``value`` if it is a finite number >= 0, else raise
    :class:`NetworkError`; nan and inf are rejected, not passed on."""
    if not 0.0 <= value < math.inf:
        raise NetworkError(f"{what} must be a finite value >= 0, got {value!r}")
    return value


def _longest_path_levels(parents, children) -> tuple[tuple[int, ...], int]:
    """Longest root-to-node path length per node via Kahn's algorithm.

    Raises on cycles, which is also the construction-time acyclicity check.
    """
    n = len(parents)
    indeg = [len(ps) for ps in parents]
    levels = [0] * n
    queue = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while queue:
        nxt: list[int] = []
        for u in queue:
            done += 1
            for v in children[u]:
                if levels[u] + 1 > levels[v]:
                    levels[v] = levels[u] + 1
                indeg[v] -= 1
                if indeg[v] == 0:
                    nxt.append(v)
        queue = nxt
    if done != n:
        stuck = [i for i in range(n) if indeg[i] > 0]
        raise NetworkError(
            "cycle detected involving: " + ", ".join(str(i) for i in stuck)
        )
    return tuple(levels), max(levels, default=-1)


# ---------------------------------------------------------------------------
# NET / EVIDENCE text formats
# ---------------------------------------------------------------------------
#
# NET, line oriented, '#' starts a comment, tokens whitespace-separated:
#     node <name> prior <p>
#     node <name> leak <l> parents <parent>:<q> [<parent>:<q> ...]
# EVIDENCE:
#     <name> <present|absent>


def _line_tokens(line: str) -> list[tuple[str, int]]:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_prob(tok: str, lineno: int, col: int, what: str) -> float:
    try:
        p = float(tok)
    except ValueError:
        raise NetParseError(f"{what}: {tok!r} is not a number", lineno, col) from None
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise NetParseError(f"{what}: probability {tok} out of [0, 1]", lineno, col)
    return p


def parse_network(text: str) -> Network:
    """Parse NET-format text into a validated Network.

    Node ids follow declaration order.  Parent references are resolved over
    the whole file, so cyclic inputs reach the cycle check instead of being
    reported as unknown names.
    """
    # pass 1: split declarations and register names
    decls: list[tuple[int, list[tuple[str, int]]]] = []
    declared: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _line_tokens(line)
        if not toks:
            continue
        if toks[0][0] != "node":
            raise NetParseError(f"expected 'node', got {toks[0][0]!r}", lineno, toks[0][1])
        if len(toks) < 2:
            raise NetParseError("missing node name", lineno)
        name, col = toks[1]
        if not _NAME_RE.match(name):
            raise NetParseError(f"invalid node name {name!r}", lineno, col)
        if name in declared:
            raise NetParseError(f"duplicate node name {name!r}", lineno, col)
        declared[name] = len(decls)
        decls.append((lineno, toks))

    # pass 2: build specs with parent names resolved against the full file
    specs: list[NodeSpec] = []
    for lineno, toks in decls:
        name = toks[1][0]
        if len(toks) < 3:
            raise NetParseError(f"node {name!r}: expected 'prior' or 'leak'", lineno)
        kind, kcol = toks[2]
        if kind == "prior":
            if len(toks) != 4:
                raise NetParseError(f"node {name!r}: expected 'prior <p>'", lineno, kcol)
            prior = _parse_prob(toks[3][0], lineno, toks[3][1], f"prior of {name!r}")
            specs.append(NodeSpec(name, prior=prior))
        elif kind == "leak":
            if len(toks) < 6 or toks[4][0] != "parents":
                raise NetParseError(
                    f"node {name!r}: expected 'leak <l> parents <parent>:<q> ...'",
                    lineno,
                    kcol,
                )
            leak = _parse_prob(toks[3][0], lineno, toks[3][1], f"leak of {name!r}")
            links: list[tuple[int, float]] = []
            seen: set[int] = set()
            for tok, col in toks[5:]:
                pname, sep, qtok = tok.partition(":")
                if not sep or not qtok:
                    raise NetParseError(
                        f"malformed parent link {tok!r} (expected <parent>:<q>)", lineno, col
                    )
                pid = declared.get(pname)
                if pid is None:
                    raise NetParseError(f"unknown parent name {pname!r}", lineno, col)
                if pid in seen:
                    raise NetParseError(f"parent {pname!r} listed twice", lineno, col)
                seen.add(pid)
                q = _parse_prob(qtok, lineno, col, f"link {pname!r}->{name!r}")
                links.append((pid, q))
            specs.append(NodeSpec(name, leak=leak, links=tuple(links)))
        else:
            raise NetParseError(
                f"node {name!r}: expected 'prior' or 'leak', got {kind!r}", lineno, kcol
            )
    return Network(specs)


def _fmt_prob(p: float) -> str:
    return format(p, ".17g")


def print_network(net: Network) -> str:
    """Canonical NET text: one node per line in id order, 17-significant-digit
    probabilities (exact round-trip for doubles)."""
    lines = []
    for spec in net.nodes:
        if spec.is_root:
            lines.append(f"node {spec.name} prior {_fmt_prob(spec.prior)}")
        else:
            links = " ".join(
                f"{net.nodes[p].name}:{_fmt_prob(q)}" for p, q in spec.links
            )
            lines.append(f"node {spec.name} leak {_fmt_prob(spec.leak)} parents {links}")
    return "".join(line + "\n" for line in lines)


def validate_evidence(net: Network, evidence: Iterable[tuple[int, bool]]) -> None:
    """Raise unless every (node id, state) pair is valid and ids are unique."""
    seen: set[int] = set()
    for nid, state in evidence:
        if not 0 <= nid < len(net.nodes):
            raise NetworkError(f"evidence references unknown node id {nid}")
        if nid in seen:
            raise NetworkError(f"node {net.nodes[nid].name!r} observed twice")
        if not isinstance(state, bool):
            raise NetworkError(f"evidence state for id {nid} must be a bool")
        seen.add(nid)


def parse_evidence(text: str, net: Network) -> tuple[tuple[int, bool], ...]:
    """Parse EVIDENCE-format text (`<name> <present|absent>` per line)."""
    out: list[tuple[int, bool]] = []
    seen: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _line_tokens(line)
        if not toks:
            continue
        if len(toks) != 2:
            raise NetParseError("expected '<name> <present|absent>'", lineno, toks[0][1])
        name, col = toks[0]
        nid = net.name_index.get(name)
        if nid is None:
            raise NetParseError(f"unknown node name {name!r}", lineno, col)
        if nid in seen:
            raise NetParseError(f"node {name!r} observed twice", lineno, col)
        seen.add(nid)
        word, wcol = toks[1]
        if word == "present":
            out.append((nid, True))
        elif word == "absent":
            out.append((nid, False))
        else:
            raise NetParseError(
                f"state must be 'present' or 'absent', got {word!r}", lineno, wcol
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# Probability factors
# ---------------------------------------------------------------------------


def noisy_or_absent(net: Network, node: int, states: Sequence[bool | None]) -> float:
    """P(node absent | parents) = (1 - leak) * prod(1 - q_p : parent p present).

    ``states`` is indexed by node id.  A root has no links and a unit leak
    complement, so it gets 1.
    """
    w = net._leak_c[node]
    for p, omq in net._links_omq[node]:
        if states[p]:
            w *= omq
    return w


def node_factor(net: Network, node: int, values: Sequence[bool | None]) -> float:
    """The factor node contributes to the joint: its prior for roots, its
    noisy-OR conditional otherwise.  Requires node and its parents assigned."""
    prior = net._priors[node]
    state = values[node]
    if prior is not None:
        return prior if state else 1.0 - prior
    w = noisy_or_absent(net, node, values)
    return 1.0 - w if state else w


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


class Assignment:
    """Partial or complete node-state assignment with cached factor product.

    ``known_factor_product * 2**known_exponent`` is the product of every
    factor whose node and parents are all assigned.  :meth:`assign` sets a
    batch of nodes and :meth:`undo` reverts it; batches nest in strict LIFO
    order.  Which factors a batch completes, and the counters it leaves
    (the per-node counts of unassigned parents and the per-level counts of
    assigned nodes with unassigned parents), depend only on which nodes are
    assigned and on the batch's node order, not on any state.  So an
    instance keeps one *schedule* per (assigned nodes, batch order) pair it
    has met: the factors each pair completes, and the counter lists after
    the batch as read-only snapshots, shared by every later batch of that
    shape.  The first such batch walks its nodes' children and copies the
    counter lists; the others fold the scheduled factors and swap the
    snapshots in, and :meth:`undo` swaps the previous ones back.  A
    ``top_epsilon`` call makes one instance, which keeps at most one
    schedule per expanded level (every state whose frontier is level L has
    the same assigned nodes and applies the same batch order), plus one per
    node outside the evidence ancestry, plus one for the evidence.

    The lift is checked after each node's new factors: a scaled product
    below ``2**-512`` is multiplied by ``2**512``, which keeps every bit
    while one node's new factors multiply to ``2**-510`` or more, so a batch
    matches its pairs assigned one by one.  Every instance is the empty one
    changed only by :meth:`assign` and :meth:`undo`, so the lift holds
    throughout.
    ``_assigned`` holds a 1 for each assigned node and a 0 for each free
    one, the key under which the level search keeps a subproblem's plan.
    One search worker at a time.
    """

    __slots__ = (
        "net",
        "_values",
        "known_factor_product",
        "known_exponent",
        "_unassigned_parents",
        "_level_active",
        "_n_unassigned",
        "_assigned",
        "_schedules",
    )

    def __init__(self, net: Network):
        self.net = net
        n = len(net.nodes)
        self._values: list[bool | None] = [None] * n
        self.known_factor_product = 1.0
        self.known_exponent = 0
        # shared snapshots, replaced whole and never changed in place
        self._unassigned_parents = [len(spec.links) for spec in net.nodes]
        self._level_active = [0] * (net.max_level + 1)
        self._n_unassigned = n
        self._assigned = bytearray(n)
        # (bytes(_assigned), batch node ids) -> (steps, counts, active)
        self._schedules: dict[tuple[bytes, tuple[int, ...]], tuple] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_evidence(cls, net: Network, evidence: Iterable[tuple[int, bool]]) -> "Assignment":
        """All evidence nodes assigned, everything else free."""
        evidence = tuple(evidence)
        validate_evidence(net, evidence)
        a = cls(net)
        a.assign(sorted(evidence))
        return a

    # -- accessors ----------------------------------------------------------

    @property
    def values(self) -> tuple[bool | None, ...]:
        return tuple(self._values)

    def state(self, nid: int) -> bool | None:
        return self._values[nid]

    def raw_values(self) -> list[bool | None]:
        """The live state list; callers must not mutate it."""
        return self._values

    @property
    def unassigned_count(self) -> int:
        return self._n_unassigned

    def raw_unassigned_parent_counts(self) -> list[int]:
        """The per-node counts of unassigned parents, a read-only snapshot
        shared with the kept schedules; callers must not mutate it.  It
        does not follow later changes to the assignment: each batch and
        each undo puts another snapshot in its place."""
        return self._unassigned_parents

    def frontier_level(self) -> int | None:
        """Deepest level holding an assigned node with unassigned parents."""
        active = self._level_active
        for lvl in range(self.net.max_level, -1, -1):
            if active[lvl]:
                return lvl
        return None

    def rescaled_threshold(self, epsilon: float) -> float | None:
        """Epsilon over the known product: what the unknown factors must
        reach together.  None when the product is already below epsilon.
        The only threshold test on the product; epsilon is lifted to the
        product's scale exactly, and a lift that overflows is out of reach."""
        try:
            e = math.ldexp(epsilon, -self.known_exponent)
        except OverflowError:
            return None
        p = self.known_factor_product
        if p < e:  # covers p == 0 < e
            return None
        return e / p if e else 0.0

    # -- mutation (LIFO) -----------------------------------------------------

    def assign(self, pairs: Iterable[tuple[int, bool]]):
        """Set each ``(node id, state)`` pair in order, folding in every factor
        that becomes known, and return one undo token for the batch.  The
        factors come from the schedule of the assigned nodes and the
        batch's node order, built on the first batch of that shape; the
        token holds the counter snapshots the batch replaces, by reference.
        A pair naming an assigned node, or a node named earlier in the
        batch, raises :class:`NetworkError` and changes nothing."""
        pairs = tuple(pairs)
        values = self._values
        key = (bytes(self._assigned), tuple([nid for nid, _ in pairs]))
        entry = self._schedules.get(key)
        if entry is None:
            entry = self._schedule(pairs, key)
        else:
            assigned = self._assigned
            for nid, state in pairs:
                values[nid] = state
                assigned[nid] = 1
        prod = self.known_factor_product
        exponent = self.known_exponent
        token = (pairs, prod, exponent, self._unassigned_parents, self._level_active)
        steps, self._unassigned_parents, self._level_active = entry
        net = self.net
        for nid, completed in steps:
            if nid is not None:
                prod *= node_factor(net, nid, values)
            for c in completed:
                w = noisy_or_absent(net, c, values)
                prod *= 1.0 - w if values[c] else w
            if prod < 2.0 ** -512 and prod:
                # exact power-of-two lift; the constants fold at compile time
                prod *= 2.0 ** 512
                exponent -= 512
        self._n_unassigned -= len(pairs)
        self.known_factor_product = prod
        self.known_exponent = exponent
        return token

    def _schedule(self, pairs: tuple[tuple[int, bool], ...], key) -> tuple:
        """Set the batch's states and flags, and keep and return its schedule
        under ``key``: per pair that completes a factor, the node id when its
        own factor completes (else None) and the children whose factors
        complete, in the order :meth:`assign` folds them; then the counter
        lists after the batch.  The only walk over the batch nodes'
        children, on copies of the counter lists.  A rejected batch clears
        the flags it set and keeps nothing."""
        net = self.net
        values = self._values
        assigned = self._assigned
        counts = self._unassigned_parents[:]
        active = self._level_active[:]
        levels = net.levels
        steps = []
        for done, (nid, state) in enumerate(pairs):
            if values[nid] is not None:
                for prev, _ in pairs[:done]:
                    values[prev] = None
                    assigned[prev] = 0
                raise NetworkError(f"node {net.nodes[nid].name!r} is already assigned")
            values[nid] = state
            assigned[nid] = 1
            own = counts[nid] == 0
            if not own:
                active[levels[nid]] += 1
            completed = ()
            for c in net.children[nid]:
                k = counts[c] - 1
                counts[c] = k
                if k == 0 and values[c] is not None:
                    completed += (c,)
                    active[levels[c]] -= 1
            # a pair that completes nothing leaves the product, and so its
            # lift, as it was
            if own or completed:
                steps.append((nid if own else None, completed))
        entry = self._schedules[key] = (tuple(steps), counts, active)
        return entry

    def undo(self, token) -> None:
        """Reverse the matching :meth:`assign` batch; calls must nest LIFO.
        Frees the batch's own nodes and puts back the counter snapshots the
        token holds, so no child of a batch node is visited and no list is
        copied."""
        pairs, old_prod, old_exponent, old_counts, old_active = token
        values = self._values
        assigned = self._assigned
        for nid, _ in pairs:
            values[nid] = None
            assigned[nid] = 0
        self._unassigned_parents = old_counts
        self._level_active = old_active
        self._n_unassigned += len(pairs)
        self.known_factor_product = old_prod
        self.known_exponent = old_exponent


# ---------------------------------------------------------------------------
# Exact accumulation
# ---------------------------------------------------------------------------


class Tally:
    """Exact sums of the joints of complete instantiations: the total mass,
    and per node the mass of the instantiations where it is present, each
    rounded once when read.  :meth:`posteriors` is the only ``score / mass``
    division.

    A joint comes scaled, as ``joint * 2**exponent`` like an
    :class:`Assignment`'s product, and is never negative.  Each sum is an
    int counting units of ``2**-_bits``, the finest ulp of the nonzero
    joints so far, so no addition rounds and no sum depends on the order of
    the joints (exact summation, as in Shewchuk, DCG 1997, with Python ints
    in place of float expansions).  Reading a sum divides it by the unit, an
    int true division, which rounds once.  The mass is kept in the extra
    slot after the ``n`` node slots, so one loop serves both.
    """

    __slots__ = ("_sums", "_ids", "_mass_slot", "_bits")

    def __init__(self, n: int):
        self._sums = [0] * (n + 1)
        self._ids = range(n)
        self._mass_slot = (n,)
        self._bits = 0

    def add(self, values: Sequence[bool | None], joint: float, exponent: int = 0) -> None:
        """Count one complete instantiation (``values`` in node-id order)."""
        if not joint:
            return
        num, den = joint.as_integer_ratio()
        # den is a power of two, so the joint is num units of 2**-bits
        bits = den.bit_length() - 1 - exponent
        if bits > self._bits:
            # a finer unit: every sum so far counts units of it from now on
            self._sums = [s << bits - self._bits for s in self._sums]
            self._bits = bits
        else:
            num <<= self._bits - bits
        sums = self._sums
        for i in chain(compress(self._ids, values), self._mass_slot):
            sums[i] += num

    @property
    def mass(self) -> float:
        return self._sums[-1] / (1 << self._bits)

    def scores(self) -> tuple[float, ...]:
        unit = 1 << self._bits
        return tuple(s / unit for s in self._sums[:-1])

    def posteriors(self) -> tuple[float, ...] | None:
        """Per node, score over mass, both rounded at the power-of-two scale
        that puts the mass in [0.5, 1); None when no mass was counted."""
        m = self._sums[-1]
        if not m:
            return None
        unit = 1 << m.bit_length()
        mass = m / unit
        return tuple(s / unit / mass for s in self._sums[:-1])


# ---------------------------------------------------------------------------
# Barren-node pruning
# ---------------------------------------------------------------------------


def prune_barren(
    net: Network, evidence: Iterable[tuple[int, bool]], query: Iterable[int] = ()
) -> Network:
    """Subnetwork restricted to the ancestral closure of evidence and query
    nodes.  Dropping the rest leaves every retained posterior unchanged."""
    evidence = tuple(evidence)
    validate_evidence(net, evidence)
    roots = {nid for nid, _ in evidence}
    for nid in query:
        if not 0 <= nid < len(net.nodes):
            raise NetworkError(f"query references unknown node id {nid}")
        roots.add(nid)
    keep: set[int] = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if nid in keep:
            continue
        keep.add(nid)
        stack.extend(p for p, _ in net.nodes[nid].links)
    kept = sorted(keep)
    remap = {old: new for new, old in enumerate(kept)}
    specs = []
    for old in kept:
        spec = net.nodes[old]
        if spec.is_root:
            specs.append(spec)
        else:
            links = tuple((remap[p], q) for p, q in spec.links)
            specs.append(NodeSpec(spec.name, leak=spec.leak, links=links))
    return Network(specs)
