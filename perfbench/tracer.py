"""In-memory tracer for the traced benchmark run.

The tracer replaces public functions of the ``nobn`` package with timing
wrappers at the module where each one is called, and puts the originals back
on exit.  Nothing under ``src/`` changes.

Two kinds of wrapper:

* span wrappers, for calls made at most a few thousand times per run
  (``top_epsilon``, ``make_case``, ``prune_barren``, ...).  Each call records
  a span ``(id, name, parent id, start, end)``.
* aggregate wrappers, for calls made 10^5-10^6 times (``Assignment.assign``
  and ``undo``, ``iter_level_extensions`` and ``next()`` on the iterator it
  returns).  Each call only adds to a count and a total time.

Every wrapped call also adds its duration to the enclosing span's child time,
so a span's self time is its duration minus the wrapped calls made directly
inside it.

To count inner search nodes, the ``iter_level_extensions`` wrapper replays
each subproblem through the public ``build_subproblem`` and
``iter_extensions(stats=...)``.  The replay runs off the clock: every span
and the traced round's wall time are measured with :meth:`Tracer.now`, which
leaves out whatever runs through :meth:`Tracer.off_clock`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from nobn import cli, engine, epsilonml
from nobn.model import Assignment


class _TimedExtensions:
    """Iterator proxy that times each ``next()`` into an aggregate."""

    __slots__ = ("_it", "_tracer", "_yielded")

    def __init__(self, it, tracer):
        self._it = it
        self._tracer = tracer
        self._yielded = 0

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        t0 = perf_counter()
        try:
            ext = next(self._it)
        except StopIteration:
            tr._add_agg(tr._search, perf_counter() - t0)
            if self._yielded == 0:
                tr.empty_subproblems += 1
            raise
        tr._add_agg(tr._search, perf_counter() - t0)
        self._yielded += 1
        tr.extensions += 1
        return ext


class Tracer:
    """Spans, aggregates and exact counters of one traced round."""

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._paused = 0.0
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self._assign = self._agg("model.assign")
        self._undo = self._agg("model.undo")
        self._setup = self._agg("epsilonml.setup")
        self._search = self._agg("epsilonml.search")
        self.extensions = 0
        self.empty_subproblems = 0
        self.inner_nodes = 0
        self.engine_states = 0
        self.engine_accepted = 0
        self.oracle_instantiations = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- clock and bookkeeping ----------------------------------------------

    def now(self) -> float:
        """Tracer clock: real time minus the time spent off the clock."""
        return perf_counter() - self._paused

    def off_clock(self, fn, *args):
        """Call ``fn(*args)`` without its time counting in any span."""
        t0 = perf_counter()
        result = fn(*args)
        self._paused += perf_counter() - t0
        return result

    def _agg(self, name):
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _add_agg(self, rec, dt):
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt
        if self._stack:
            self._stack[-1][3] += dt

    def calls(self, name) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        stack = self._stack

        def wrapped(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            entry = [sid, name, self.now(), 0.0]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = self.now()
                dur = end - entry[2]
                self.spans.append((sid, name, parent, entry[2], end))
                rec = self._agg(name)
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - entry[3]
                if stack:
                    stack[-1][3] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def aggregate(self, rec, fn):
        add = self._add_agg

        def wrapped(*args):
            t0 = perf_counter()
            result = fn(*args)
            add(rec, perf_counter() - t0)
            return result

        return wrapped

    def _replay(self, net, a, level, epsilon):
        stats: dict = {}
        sub = epsilonml.build_subproblem(net, a, level)
        for _ in epsilonml.iter_extensions(net, sub, epsilon, stats):
            pass
        self.inner_nodes += stats["nodes"]

    def _level_extensions(self, fn):
        def wrapped(net, a, level, epsilon):
            self.off_clock(self._replay, net, a, level, epsilon)
            t0 = perf_counter()
            it = fn(net, a, level, epsilon)
            self._add_agg(self._setup, perf_counter() - t0)
            return _TimedExtensions(it, self)

        return wrapped

    def _on_search(self, res):
        self.engine_states += res.states_explored
        self.engine_accepted += res.accepted_count

    def _on_exact(self, res):
        self.oracle_instantiations += res.instantiation_count

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self, bench_module):
        """Wrap every traced name; ``bench_module`` is the benchmark's own
        module that calls the public functions directly."""
        span = self.span
        names = {
            "gen_network": "netgen.gen_network",
            "print_network": "model.print_network",
            "parse_network": "model.parse_network",
            "make_case": "netgen.make_case",
            "prune_barren": "model.prune_barren",
        }
        try:
            for attr, name in names.items():
                self._patch(bench_module, attr, span(name, getattr(bench_module, attr)))
            self._patch(bench_module, "top_epsilon",
                        span("engine.top_epsilon", bench_module.top_epsilon, self._on_search))
            self._patch(bench_module, "exact_inference", span(
                "oracle.exact_inference", bench_module.exact_inference, self._on_exact))
            self._patch(bench_module, "cli_main", span("cli.main", bench_module.cli_main))
            for attr in ("parse_network", "make_case", "prune_barren"):
                self._patch(cli, attr, span(names[attr], getattr(cli, attr)))
            self._patch(cli, "top_epsilon",
                        span("engine.top_epsilon", cli.top_epsilon, self._on_search))
            self._patch(engine, "iter_level_extensions",
                        self._level_extensions(engine.iter_level_extensions))
            from_evidence = Assignment.__dict__["from_evidence"].__func__
            self._patch(Assignment, "from_evidence",
                        classmethod(span("model.from_evidence", from_evidence)))
            self._patch(Assignment, "assign", self.aggregate(self._assign, Assignment.assign))
            self._patch(Assignment, "undo", self.aggregate(self._undo, Assignment.undo))
            yield self
        finally:
            while self._restore:
                owner, attr, value = self._restore.pop()
                setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write spans and aggregates as one JSON document."""
        doc = dict(header)
        doc["spans"] = [
            {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
            for sid, name, parent, start, end in sorted(self.spans)
        ]
        doc["aggregates"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.totals.items())
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
