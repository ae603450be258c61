"""Noisy-OR belief network model: text formats, validation, levels, factor arithmetic.

A network is an immutable DAG of binary (present/absent) nodes. Root nodes
carry a prior; every other node is a leaky noisy-OR over its parents: the node
stays absent only if the leak and every present parent's activation all fail,

    P(present | parents) = 1 - (1 - leak) * prod(1 - q_p : parent p present)

Each node is labeled with its level, the largest number of arcs on any
directed path from a root to it.  Arcs therefore always go strictly level-up,
which is what lets the search modules expand assignments level by level.

The building blocks every inference module shares live here, once each:
:func:`noisy_or_absent` is the only place the noisy-OR product over present
parents is written out, and :class:`Tally` is the only compensated
(Neumaier) accumulator of probability mass and per-node present-score.

Probabilities are doubles multiplied in linear space.  Assignments over more
than ``LOG_TRACK_MIN_NODES`` nodes additionally maintain a log-space product
so threshold comparisons survive linear underflow on very deep networks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Mapping, Sequence

__all__ = [
    "LOG_TRACK_MIN_NODES",
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
    "cpt_probability",
    "noisy_or_absent",
    "node_factor",
    "nps_holds",
    "partial_probability",
    "joint_probability",
    "prune_barren",
]

# Node count above which Assignment also tracks a log-space factor product.
LOG_TRACK_MIN_NODES = 200

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
    across threads.
    """

    __slots__ = (
        "nodes",
        "name_index",
        "levels",
        "max_level",
        "children",
        "level_nodes",
        "topo_order",
        "arc_count",
        "_priors",
        "_leak_c",
        "_links_omq",
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
        self.topo_order = tuple(sorted(range(n), key=lambda i: (levels[i], i)))
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


def cpt_probability(
    net: Network, node: int, node_state: bool, parent_states: Mapping[int, bool]
) -> float:
    """Noisy-OR conditional probability of one node state given all parents."""
    spec = net.nodes[node]
    if spec.is_root:
        raise NetworkError(f"node {spec.name!r} is a root; use its prior directly")
    try:
        w = noisy_or_absent(net, node, parent_states)
    except KeyError as e:
        raise NetworkError(
            f"missing state for parent {net.nodes[e.args[0]].name!r} of {spec.name!r}"
        ) from None
    return 1.0 - w if node_state else w


def noisy_or_absent(
    net: Network, node: int, states: Sequence[bool | None] | Mapping[int, bool]
) -> float:
    """P(node absent | parents) = (1 - leak) * prod(1 - q_p : parent p present).

    ``states`` is indexed by parent id (a value list or a mapping).  A root
    has no links and a unit leak complement, so it gets 1.
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


def nps_holds(p_ab: float, p_notab_notb: float, p_a_notb: float, p_nota_b: float) -> bool:
    """Negative product synergy test over the four restricted table entries
    for a parent pair: strict inequality of the cross products."""
    return p_ab * p_notab_notb < p_a_notb * p_nota_b


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


class Assignment:
    """Partial or complete node-state assignment with cached factor product.

    ``known_factor_product`` is the product of every factor whose node and
    parents are all assigned; it always agrees with a from-scratch
    :func:`partial_probability` recomputation (up to multiplication-order
    rounding).  The object is value-like: it belongs to one search worker at
    a time, and ``assign``/``undo`` must nest in strict LIFO order.
    """

    __slots__ = (
        "net",
        "_values",
        "known_factor_product",
        "log_known",
        "_unassigned_parents",
        "_level_active",
        "_n_unassigned",
        "track_log",
    )

    def __init__(self, net: Network):
        self.net = net
        n = len(net.nodes)
        self._values: list[bool | None] = [None] * n
        self.known_factor_product = 1.0
        self.log_known = 0.0
        self._unassigned_parents = [len(spec.links) for spec in net.nodes]
        self._level_active = [0] * (net.max_level + 1)
        self._n_unassigned = n
        self.track_log = n > LOG_TRACK_MIN_NODES

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_evidence(cls, net: Network, evidence: Iterable[tuple[int, bool]]) -> "Assignment":
        """All evidence nodes assigned, everything else free."""
        evidence = tuple(evidence)
        validate_evidence(net, evidence)
        a = cls(net)
        for nid, state in sorted(evidence):
            a.assign(nid, state)
        return a

    @classmethod
    def _complete(cls, net: Network, values: Sequence[bool], joint: float) -> "Assignment":
        # trusted fast path for enumerators: every node assigned, product known
        a = cls(net)
        a._values = list(values)
        a._unassigned_parents = [0] * len(net.nodes)
        a._n_unassigned = 0
        a.known_factor_product = joint
        if a.track_log:
            total = 0.0
            for i in range(len(net.nodes)):
                f = node_factor(net, i, a._values)
                total += math.log(f) if f > 0.0 else -math.inf
            a.log_known = total
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

    def unassigned_parent_count(self, nid: int) -> int:
        return self._unassigned_parents[nid]

    def frontier_level(self) -> int | None:
        """Deepest level holding an assigned node with unassigned parents."""
        active = self._level_active
        for lvl in range(self.net.max_level, -1, -1):
            if active[lvl]:
                return lvl
        return None

    def copy(self) -> "Assignment":
        c = Assignment.__new__(Assignment)
        c.net = self.net
        c._values = self._values.copy()
        c.known_factor_product = self.known_factor_product
        c.log_known = self.log_known
        c._unassigned_parents = self._unassigned_parents.copy()
        c._level_active = self._level_active.copy()
        c._n_unassigned = self._n_unassigned
        c.track_log = self.track_log
        return c

    # -- mutation (LIFO) -----------------------------------------------------

    def assign(self, nid: int, state: bool):
        """Set an unassigned node, fold any newly-known factors into the cached
        product, and return an undo token.  Tokens must be undone LIFO."""
        values = self._values
        if values[nid] is not None:
            raise NetworkError(
                f"node {self.net.nodes[nid].name!r} is already assigned"
            )
        net = self.net
        token = (nid, self.known_factor_product, self.log_known)
        values[nid] = state
        self._n_unassigned -= 1
        counts = self._unassigned_parents
        prod = self.known_factor_product
        track = self.track_log
        log_total = self.log_known
        absent = noisy_or_absent
        if counts[nid] == 0:
            prior = net._priors[nid]
            if prior is not None:
                f = prior if state else 1.0 - prior
            else:
                w = absent(net, nid, values)
                f = 1.0 - w if state else w
            prod *= f
            if track:
                log_total += math.log(f) if f > 0.0 else -math.inf
        else:
            self._level_active[net.levels[nid]] += 1
        for c in net.children[nid]:
            k = counts[c] - 1
            counts[c] = k
            if k == 0 and values[c] is not None:
                w = absent(net, c, values)
                f = 1.0 - w if values[c] else w
                prod *= f
                if track:
                    log_total += math.log(f) if f > 0.0 else -math.inf
                self._level_active[net.levels[c]] -= 1
        self.known_factor_product = prod
        if track:
            self.log_known = log_total
        return token

    def undo(self, token) -> None:
        """Reverse the matching :meth:`assign`; calls must nest LIFO."""
        nid, old_prod, old_log = token
        net = self.net
        values = self._values
        counts = self._unassigned_parents
        if counts[nid] > 0:
            self._level_active[net.levels[nid]] -= 1
        for c in net.children[nid]:
            if counts[c] == 0 and values[c] is not None:
                self._level_active[net.levels[c]] += 1
            counts[c] += 1
        values[nid] = None
        self._n_unassigned += 1
        self.known_factor_product = old_prod
        self.log_known = old_log

    def extended(self, pairs: Iterable[tuple[int, bool]]) -> "Assignment":
        """A copy with the given nodes assigned (value-style extension)."""
        c = self.copy()
        for nid, state in pairs:
            c.assign(nid, state)
        return c

    def next_forced_unassigned(self) -> int | None:
        """Unassigned node whose parents are all assigned, smallest
        (level, id) first; None when the assignment is complete."""
        best = None
        levels = self.net.levels
        counts = self._unassigned_parents
        for i, v in enumerate(self._values):
            if v is None and counts[i] == 0:
                key = (levels[i], i)
                if best is None or key < best:
                    best = key
        return None if best is None else best[1]


def partial_probability(net: Network, a: Assignment) -> float:
    """Product of the known factors of the joint: a node's factor is known
    once the node and all of its parents are assigned.  Empty product is 1."""
    values = a.raw_values()
    prod = 1.0
    for i, spec in enumerate(net.nodes):
        if values[i] is None:
            continue
        if any(values[p] is None for p, _ in spec.links):
            continue
        prod *= node_factor(net, i, values)
    return prod


def joint_probability(net: Network, a: Assignment) -> float:
    """Full joint probability of a complete assignment."""
    if a.unassigned_count:
        raise NetworkError(
            f"assignment is incomplete ({a.unassigned_count} nodes unassigned)"
        )
    return partial_probability(net, a)


# ---------------------------------------------------------------------------
# Compensated accumulation
# ---------------------------------------------------------------------------


class Tally:
    """Neumaier-compensated sums of the joints of complete instantiations:
    the total mass, and per node the mass of the instantiations where it is
    present.  Posterior estimates are ``scores()[i] / mass``.

    The mass is kept in the extra slot after the ``n`` node slots, so one
    compensated step serves both.  Joints are never negative.
    """

    __slots__ = ("_sums", "_comps", "_ids", "_mass_slot")

    def __init__(self, n: int):
        self._sums = [0.0] * (n + 1)
        self._comps = [0.0] * (n + 1)
        self._ids = range(n)
        self._mass_slot = (n,)

    def add(self, values: Sequence[bool | None], joint: float) -> None:
        """Count one complete instantiation (``values`` in node-id order)."""
        sums = self._sums
        comps = self._comps
        for i in chain(compress(self._ids, values), self._mass_slot):
            s = sums[i]
            t = s + joint
            if abs(s) >= joint:
                comps[i] += (s - t) + joint
            else:
                comps[i] += (joint - t) + s
            sums[i] = t

    @property
    def mass(self) -> float:
        return self._sums[-1] + self._comps[-1]

    def scores(self) -> tuple[float, ...]:
        return tuple(s + c for s, c in zip(self._sums[:-1], self._comps[:-1]))


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
