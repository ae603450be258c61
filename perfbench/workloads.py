"""The benchmark's workloads: their inputs, one round of work, and its checks.

A round is one pass over a workload's fixed problem set.  The benchmark calls
the public functions of ``nobn`` through the names imported below, so the
tracer can wrap them here, at the benchmark's own call sites.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from nobn import cli
from nobn.cli import main as cli_main
from nobn.engine import DEFAULT_SCHEDULE, top_epsilon
from nobn.model import Network, NodeSpec, parse_network, print_network, prune_barren
from nobn.netgen import NetShape, SplitMix64, bn3_shape, derive_seed, gen_network, make_case
from nobn.oracle import ExactResult, exact_inference

# `nobn bench` derives case i from derive_seed(seed, 0x04, i); the benchmark
# uses the same tag so its cases are the CLI's cases for --seed 0
CASE_TAG = 0x04
RELABEL_TAG = 0xB5
GOLD_EPSILON = 1e-30
# Masses are compared with this relative tolerance, so a change that only
# reorders floating-point sums still passes; accepted counts must match exactly.
MASS_RTOL = 1e-9
POSTERIOR_ATOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    # "schedule": top_epsilon per threshold; "cli": nobn bench;
    # "exhaustive": exact_inference, then top_epsilon at 0
    kind: str
    shape: NetShape
    findings: int
    cases: int
    schedule: tuple[float, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload is here: perfbench/README.md and BENCHMARK.json.
        Workload("bn3-f26", "schedule", bn3_shape(0), 26, 3, DEFAULT_SCHEDULE.values),
        Workload("bn3-f83", "cli", bn3_shape(0), 83, 8, DEFAULT_SCHEDULE.values),
        Workload(
            "wide-log", "schedule",
            dataclasses.replace(bn3_shape(0), nodes_per_level=(4, 16, 30, 50, 200)),
            160, 12, DEFAULT_SCHEDULE.values + (1e-22,),
        ),
        Workload(
            "exhaustive", "exhaustive",
            NetShape(levels=4, nodes_per_level=(3, 5, 8, 12), max_parents=3,
                     parent_locality=0.8, seed=3),
            10, 4, (0.0,),
        ),
    )
}


@dataclass
class Inputs:
    cases: list[tuple[str, Network, tuple[tuple[int, bool], ...]]]
    net_path: Path | None = None


@dataclass
class CaseResult:
    case_id: str
    rows: list[tuple[float, int, float]]  # (epsilon, accepted_count, mass) in schedule order
    gold: float | None = None  # the CLI's own gold mass
    exact: ExactResult | None = None  # the oracle's answer (exhaustive)
    posteriors: tuple[float, ...] | None = None  # the engine's, at epsilon 0 (exhaustive)


@dataclass
class Round:
    wall_s: float
    latencies_s: list[float]
    accepted: int
    states: int
    cases: list[CaseResult]


def load_references() -> dict:
    """Reference results by workload and case id; see make_references.py."""
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"]


def case_ids(w: Workload) -> list[str]:
    return [f"case-{derive_seed(0, CASE_TAG, i):016x}" for i in range(w.cases)]


def relabel(net: Network, seed: int) -> Network:
    """Renumber the nodes by a seeded interleaving of the levels.

    Nodes of one level keep their relative order and every node keeps its
    name, links and parameters, so the same case seeds sample the same cases
    and the engine does the same arithmetic.  Only the node ids and the NET
    line order change (and with them the oracle's enumeration order, so its
    sums may differ in the last bits).  Seed 0 keeps the generated order.
    """
    if seed == 0:
        return net
    slots = list(net.levels)
    SplitMix64(derive_seed(seed, RELABEL_TAG)).shuffle(slots)
    per_level = [iter(ids) for ids in net.level_nodes]
    order = [next(per_level[lvl]) for lvl in slots]
    new_id = {old: new for new, old in enumerate(order)}
    specs = []
    for old in order:
        spec = net.nodes[old]
        if not spec.is_root:
            links = tuple((new_id[p], q) for p, q in spec.links)
            spec = NodeSpec(spec.name, leak=spec.leak, links=links)
        specs.append(spec)
    return Network(specs)


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the net, print and parse its NET text, and sample and prune
    the cases.  The CLI workload samples its own cases, so its set-up writes
    the NET file instead."""
    text = print_network(relabel(gen_network(w.shape), seed))
    net = parse_network(text)
    if w.kind == "cli":
        path = workdir / f"{w.name}.net"
        path.write_text(text, encoding="utf-8")
        return Inputs([], path)
    return Inputs(sample_cases(w, net))


def sample_cases(w: Workload, net: Network) -> list:
    """The workload's cases as (case id, pruned net, re-indexed evidence)."""
    cases = []
    for i in range(w.cases):
        case = make_case(net, derive_seed(0, CASE_TAG, i), w.findings)
        pruned = prune_barren(net, case.evidence)
        evidence = tuple(
            (pruned.node_id(net.nodes[nid].name), state) for nid, state in case.evidence
        )
        cases.append((case.case_id, pruned, evidence))
    return cases


def run_round(w: Workload, inputs: Inputs, clock=perf_counter, tick=None) -> Round:
    """One closed-loop pass: each search starts when the previous returns.

    ``tick``, when given, is called before every search call; ``clock`` must
    leave its time out (see ``run.Pacer``).
    """
    if w.kind == "cli":
        return _run_cli(w, inputs, clock, tick)
    lat: list[float] = []
    results = []
    accepted = states = 0
    t0 = clock()
    for case_id, net, evidence in inputs.cases:
        result = CaseResult(case_id, [])
        if w.kind == "exhaustive":
            if tick is not None:
                tick()
            s = clock()
            result.exact = exact_inference(net, evidence)
            lat.append(clock() - s)
            accepted += result.exact.instantiation_count
        for eps in w.schedule:
            if tick is not None:
                tick()
            s = clock()
            res = top_epsilon(net, evidence, eps)
            lat.append(clock() - s)
            accepted += res.accepted_count
            states += res.states_explored
            result.rows.append((eps, res.accepted_count, res.mass_accumulated))
        if w.kind == "exhaustive":
            result.posteriors = res.posteriors
        results.append(result)
    return Round(clock() - t0, lat, accepted, states, results)


def _run_cli(w: Workload, inputs: Inputs, clock, tick) -> Round:
    # The CLI makes its own top_epsilon calls; time each one at that call site.
    lat: list[float] = []
    counts = [0, 0]
    inner = cli.top_epsilon

    def timed(*args, **kwargs):
        if tick is not None:
            tick()
        s = clock()
        res = inner(*args, **kwargs)
        lat.append(clock() - s)
        counts[0] += res.accepted_count
        counts[1] += res.states_explored
        return res

    argv = [
        "bench", str(inputs.net_path), "--cases", str(w.cases),
        "--findings", str(w.findings), "--seed", "0",
        "--gold", repr(GOLD_EPSILON), "--jobs", "1",
    ]
    out, err = io.StringIO(), io.StringIO()
    cli.top_epsilon = timed
    try:
        with redirect_stdout(out), redirect_stderr(err):
            t0 = clock()
            code = cli_main(argv)
            wall = clock() - t0
    finally:
        cli.top_epsilon = inner
    by_case: dict[str, list] = {}
    gold: dict[str, float] = {}
    if code == 0:
        for row in csv.DictReader(io.StringIO(out.getvalue())):
            case_id = row["case_id"]
            by_case.setdefault(case_id, []).append(
                (float(row["epsilon"]), int(row["accepted_count"]),
                 float(row["mass_accumulated"]))
            )
            if row["gold_mass"]:
                gold[case_id] = float(row["gold_mass"])
    results = [CaseResult(cid, by_case.get(cid, []), gold.get(cid)) for cid in case_ids(w)]
    return Round(wall, lat, counts[0], counts[1], results)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= MASS_RTOL * abs(ref)


def check(w: Workload, rnd: Round, refs: dict) -> tuple[int, int, list[str]]:
    """Count the round's search calls and those whose output is wrong.

    With a reference for the case, accepted counts must match exactly and
    masses to ``MASS_RTOL``.  Always: within a case, accepted count and mass
    do not fall as epsilon falls, and mass never exceeds the gold; on
    ``exhaustive`` the engine's mass, count and posteriors equal the oracle's.
    States explored are never checked, since a better bound may lower them.
    """
    attempted = failed = 0
    problems: list[str] = []
    for case in rnd.cases:
        case_id, rows, exact = case.case_id, case.rows, case.exact
        ref = refs.get(case_id, {})
        ref_rows = ref.get("rows", {})
        gold = float(ref["gold"]) if "gold" in ref else None
        if w.kind == "cli":
            attempted += 1  # the CLI's own gold run
            bad = []
            if case.gold is None:
                bad.append("no output")
            elif gold is not None and not _close(case.gold, gold):
                bad.append(f"gold {case.gold!r} != reference {gold!r}")
            if case.gold is not None:
                gold = case.gold
            failed += _note(problems, case_id, "gold", bad)
        if w.kind == "exhaustive":
            attempted += 1  # the oracle call
            bad = []
            if "evidence_probability" in ref and not _close(
                exact.evidence_probability, float(ref["evidence_probability"])
            ):
                bad.append("oracle mass differs from reference")
            if "instantiations" in ref and exact.instantiation_count != ref["instantiations"]:
                bad.append("oracle instantiation count differs from reference")
            failed += _note(problems, case_id, "exact", bad)
        missing = set(w.schedule) - {eps for eps, _, _ in rows}
        attempted += len(missing)
        for eps in sorted(missing, reverse=True):
            failed += _note(problems, case_id, repr(eps), ["no output"])
        prev = None
        for eps, acc, mass in rows:
            attempted += 1
            bad = []
            r = ref_rows.get(repr(eps))
            if r is not None:
                if acc != r[0]:
                    bad.append(f"accepted {acc} != reference {r[0]}")
                if not _close(mass, float(r[1])):
                    bad.append(f"mass {mass!r} != reference {r[1]}")
            if prev is not None and (acc < prev[0] or mass < prev[1] * (1.0 - MASS_RTOL)):
                bad.append("accepted count or mass fell as epsilon fell")
            if gold is not None and mass > gold * (1.0 + MASS_RTOL):
                bad.append(f"mass {mass!r} exceeds gold {gold!r}")
            if w.kind == "exhaustive":
                if acc != exact.instantiation_count:
                    bad.append("accepted count differs from the oracle's instantiations")
                if not _close(mass, exact.evidence_probability):
                    bad.append("mass differs from the oracle's")
                if case.posteriors is None or any(
                    not math.isclose(p, q, rel_tol=0.0, abs_tol=POSTERIOR_ATOL)
                    for p, q in zip(case.posteriors, exact.posteriors)
                ):
                    bad.append("posteriors differ from the oracle's")
            failed += _note(problems, case_id, repr(eps), bad)
            prev = (acc, mass)
    return attempted, failed, problems


def _note(problems: list[str], case_id: str, what: str, bad: list[str]) -> int:
    if not bad:
        return 0
    problems.append(f"{case_id} {what}: " + "; ".join(bad))
    return 1
