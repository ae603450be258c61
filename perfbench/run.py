#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bn3-f26 --seed 0 --seconds 24 --trace 0

Run it from the root of a checkout: it imports ``nobn`` from ``src/``.  With
``--trace 0`` the timed phase repeats rounds (set-up, one pass over the
workload's problems, checks) until the next round would pass ``--seconds``,
and the end-to-end metrics are medians over the rounds, scaled to a reference
machine speed (see Pacer).  With ``--trace 1`` it
runs one plain round, then the same round with every layer wrapped, and
prints the per-layer metrics; spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat each metric with its unit, plus the ones not in the JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up takes milliseconds and the machine's speed swings within a second,
# so each round repeats set-up for this long and setup_s is the median over
# every repeat of every round.
SETUP_SECONDS = 0.5
# About the median time of one calibration slice on the machine the first
# numbers came from; see Pacer.
REFERENCE_SLICE_S = 3.0e-3


def _calibration_slice() -> float:
    # A fixed piece of interpreter work like the engine's: tuple unpacking,
    # float arithmetic, dict and list indexing, a keyed sort, a comprehension.
    xs = [float(i) for i in range(300)]
    d = {i: (i, i * 0.5) for i in range(300)}
    acc = 1.0
    for _ in range(50):
        for i in range(300):
            a, b = d[i]
            acc = acc * 0.9999 + xs[a] * b * 1e-12
        ys = sorted(xs, key=lambda v: -v)
        acc += len([(i, v) for i, v in enumerate(ys) if i & 1])
    return acc


class Pacer:
    """Samples the machine's speed between timed calls.

    This machine's speed swings by 20-40% from one minute to the next, and
    the swings move whole runs.  So each round runs a fixed calibration slice
    before every search call (and every set-up), keeps the slices off its
    clock, and scales the round's wall and set-up times by REFERENCE_SLICE_S
    over the mean slice time.  Each call's latency is scaled by the slices
    just before and just after it, which track the speed at that moment
    better.  Times then read as seconds on a machine where the slice takes
    REFERENCE_SLICE_S; the report lines also give the unscaled values.  The
    slices run with the garbage collector off, so their time does not depend
    on the size of the program's heap, only on the machine's speed.
    """

    def __init__(self):
        self._slices: list[float] = []
        self._paused = 0.0

    def now(self) -> float:
        return perf_counter() - self._paused

    def tick(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _calibration_slice()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self._slices.append(dt)
        self._paused += dt

    def call_factors(self) -> list[float]:
        """Scale for each call timed since the last take_factor, from the
        slices on either side of it; tick once more after the last call."""
        s = self._slices
        return [2.0 * REFERENCE_SLICE_S / (a + b) for a, b in zip(s, s[1:])]

    def take_factor(self) -> float:
        """Scale for the times measured since the last call."""
        factor = REFERENCE_SLICE_S * len(self._slices) / sum(self._slices)
        self._slices.clear()
        return factor


def _untraced(workloads, w, seed: int, seconds: float, refs: dict):
    setups, walls, totals, latencies = [], [], [], []
    raw_walls, factors = [], []
    accepted = attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    pacer = Pacer()
    while True:
        r0 = perf_counter()
        burst = []
        while perf_counter() - r0 < SETUP_SECONDS:
            pacer.tick()
            s0 = pacer.now()
            inputs = workloads.setup(w, seed, OUT)
            burst.append(pacer.now() - s0)
        factor = pacer.take_factor()
        setups += [s * factor for s in burst]
        rnd = workloads.run_round(w, inputs, clock=pacer.now, tick=pacer.tick)
        pacer.tick()
        call_factors = pacer.call_factors()
        factor = pacer.take_factor()
        a, f, p = workloads.check(w, rnd, refs)
        attempted += a
        failed += f
        problems += p
        raw_walls.append(rnd.wall_s)
        factors.append(factor)
        walls.append(rnd.wall_s * factor)
        latencies.append([t * g for t, g in zip(rnd.latencies_s, call_factors, strict=True)])
        accepted += rnd.accepted
        totals.append(perf_counter() - r0)
        if perf_counter() - start + statistics.median(totals) > seconds:
            break
    metrics = end_to_end_metrics(setups, walls, latencies, accepted)
    notes = [
        f"rounds {len(walls)}, search calls {len(latencies[0])} per round",
        f"ops_failed_frac {failed / attempted!r} ({failed} of {attempted} search calls)",
        f"unscaled wall_s {statistics.median(raw_walls)!r} s, "
        f"speed factors {', '.join(f'{x:.3f}' for x in factors)}",
    ]
    return metrics, notes, attempted, failed, problems


def end_to_end_metrics(setups, walls, latencies, accepted):
    """Medians over the rounds' set-ups and walls, and latency percentiles
    over the workload's search calls.

    ``latencies`` holds one list per round.  Every round makes the same calls
    in the same order, so each call's latency is its median over the rounds,
    and the percentiles are taken over those: one slow round of a call does
    not decide a percentile.
    """
    per_call = [statistics.median(samples) for samples in zip(*latencies)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "search_ms_p50": (statistics.median(per_call) * 1000.0, "ms"),
        "search_ms_p90": (
            statistics.quantiles(per_call, n=10, method="inclusive")[8] * 1000.0, "ms"
        ),
        "accepted_per_s": (accepted / sum(walls), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _traced(workloads, w, seed: int, refs: dict):
    from tracer import Tracer

    pacer = Pacer()
    inputs = workloads.setup(w, seed, OUT)
    plain = workloads.run_round(w, inputs, clock=pacer.now, tick=pacer.tick)
    plain_factor = pacer.take_factor()
    attempted, failed, problems = workloads.check(w, plain, refs)
    tr = Tracer()
    with tr.installed(workloads):
        inputs = workloads.setup(w, seed, OUT)
        traced = workloads.run_round(
            w, inputs, clock=tr.now, tick=lambda: tr.off_clock(pacer.tick)
        )
    factor = pacer.take_factor()
    a, f, p = workloads.check(w, traced, refs)
    attempted += a
    failed += f
    problems += p
    if (traced.states, traced.accepted) != (plain.states, plain.accepted):
        failed += 1
        problems.append(
            f"traced states/accepted {traced.states}/{traced.accepted} != "
            f"plain {plain.states}/{plain.accepted}"
        )
    tr.write(OUT / f"trace-{w.name}-seed{seed}.json", {
        "workload": w.name, "seed": seed, "speed_factor": factor,
        "clock": "seconds, unscaled, without replays and calibration slices",
    })
    metrics, notes = layer_metrics(
        tr, factor, plain.wall_s * plain_factor, traced.wall_s * factor
    )
    notes.append(f"speed factors: untraced round {plain_factor!r}, traced round {factor!r}")
    return metrics, notes, attempted, failed, problems


def layer_metrics(tr, factor: float, plain_wall_s: float, traced_wall_s: float):
    """Per-layer metrics of one traced round, and report-only lines.

    Times are scaled by the traced round's speed factor (see Pacer); the two
    walls come scaled by their own rounds' factors.
    """

    def ratio(num, den):
        return num / den if den else 0.0

    def total_s(name):
        return tr.total_s(name) * factor

    def self_s(name):
        return tr.self_s(name) * factor

    assign_calls = tr.calls("model.assign")
    search_s = total_s("epsilonml.search")
    top_s = total_s("engine.top_epsilon")
    oracle_s = total_s("oracle.exact_inference")
    metrics = {
        "model.parse_network_s": (total_s("model.parse_network"), "s"),
        "model.print_network_s": (total_s("model.print_network"), "s"),
        "netgen.gen_network_s": (total_s("netgen.gen_network"), "s"),
        "model.prune_barren_s": (total_s("model.prune_barren"), "s"),
        "model.from_evidence_s": (total_s("model.from_evidence"), "s"),
        "netgen.make_case_s": (total_s("netgen.make_case"), "s"),
        "model.assign_calls": (assign_calls, "count"),
        "model.undo_calls": (tr.calls("model.undo"), "count"),
        "model.assign_self_s": (self_s("model.assign"), "s"),
        "model.undo_self_s": (self_s("model.undo"), "s"),
        "model.assign_ns": (ratio(total_s("model.assign"), assign_calls) * 1e9, "ns"),
        "epsilonml.subproblems": (tr.calls("epsilonml.setup"), "count"),
        "epsilonml.empty_subproblems": (tr.empty_subproblems, "count"),
        "epsilonml.extensions": (tr.extensions, "count"),
        "epsilonml.inner_nodes": (tr.inner_nodes, "count"),
        "epsilonml.setup_s": (total_s("epsilonml.setup"), "s"),
        "epsilonml.search_s": (search_s, "s"),
        "epsilonml.extensions_per_inner_node": (ratio(tr.extensions, tr.inner_nodes), "ratio"),
        "epsilonml.inner_nodes_per_s": (ratio(tr.inner_nodes, search_s), "1/s"),
        "engine.calls": (tr.calls("engine.top_epsilon"), "count"),
        "engine.states": (tr.engine_states, "count"),
        "engine.accepted": (tr.engine_accepted, "count"),
        "engine.accept_ratio": (ratio(tr.engine_accepted, tr.engine_states), "ratio"),
        "engine.states_per_s": (ratio(tr.engine_states, top_s), "1/s"),
        "engine.self_s": (self_s("engine.top_epsilon"), "s"),
        "oracle.calls": (tr.calls("oracle.exact_inference"), "count"),
        "oracle.instantiations": (tr.oracle_instantiations, "count"),
        "trace.overhead_frac": ((traced_wall_s - plain_wall_s) / plain_wall_s, "ratio"),
    }
    # Times of layers that only some workloads call: in the report, not the JSON
    notes = [
        f"oracle.exact_s {oracle_s!r} s",
        f"oracle.instantiations_per_s {ratio(tr.oracle_instantiations, oracle_s)!r} 1/s",
        f"cli.bench_s {total_s('cli.main')!r} s",
        f"cli.self_s {self_s('cli.main')!r} s",
        f"untraced wall_s {plain_wall_s!r} s, traced wall_s {traced_wall_s!r} s",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nobn" / "__init__.py").is_file():
        print(f"error: no nobn package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    refs = workloads.load_references().get(w.name, {})
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, notes, attempted, failed, problems = _traced(workloads, w, args.seed, refs)
    else:
        metrics, notes, attempted, failed, problems = _untraced(
            workloads, w, args.seed, args.seconds, refs
        )
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    for line in notes:
        print(f"  {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
