"""Command-line front end: validation, exact inference, threshold search,
case generation, and the benchmark harness behind the convergence CSVs.

Exit codes: 0 success, 1 usage, 2 invalid input, 3 resource cap exceeded.
All randomness is seeded; outputs are byte-identical across runs except for
the elapsed_ms column, which is a wall-clock measurement.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .engine import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    format_accepted,
    top_epsilon,
)
from .epsilonml import build_subproblem, iter_extensions
from .model import (
    Assignment,
    Network,
    NetworkError,
    check_threshold,
    parse_evidence,
    parse_network,
    print_network,
    prune_barren,
)
from .netgen import NetShape, derive_seed, gen_network, make_case
from .oracle import (
    DEFAULT_FREE_NODE_CAP,
    FreeNodeCapError,
    ImpossibleEvidenceError,
    exact_inference,
)

CSV_HEADER = [
    "case_id",
    "epsilon",
    "states_explored",
    "accepted_count",
    "mass_accumulated",
    "gold_mass",
    "mass_fraction",
    "elapsed_ms",
]

_BENCH_CASE_TAG = 0x04


class _ArgParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # invalid input files, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_eps(eps: float) -> str:
    mantissa, _, exponent = format(eps, "e").partition("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{exponent}"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise NetworkError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_network(path: str) -> Network:
    return parse_network(_read(path))


def _load_case(net: Network, evidence_path: str):
    return parse_evidence(_read(evidence_path), net)


def _int_at_least(lo: int):
    """argparse type: an integer >= lo (violations are usage errors, exit 1)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= lo:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _probability(text: str) -> float:
    """argparse type: a number in [0, 1] (nan exits 1)."""
    try:
        value = float(text)
        if 0.0 <= value <= 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def _prob_range(text: str) -> tuple[float, float]:
    """argparse type: 'lo,hi' with 0 <= lo <= hi <= 1."""
    try:
        lo, hi = (float(tok) for tok in text.split(","))
        if 0.0 <= lo <= hi <= 1.0:
            return lo, hi
    except ValueError:  # also a wrong number of fields
        pass
    raise argparse.ArgumentTypeError(
        f"expected 'lo,hi' with 0 <= lo <= hi <= 1, got {text!r}"
    )


def _threshold(text: str) -> float:
    """argparse type: a finite number >= 0 (nan, inf and negatives exit 1)."""
    try:
        return check_threshold(float(text))
    except ValueError:  # also NetworkError, a ValueError
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}"
        ) from None


def _schedule(text: str) -> EpsilonSchedule:
    """argparse type: comma-separated, strictly decreasing thresholds."""
    try:
        return EpsilonSchedule(tuple(float(tok) for tok in text.split(",")))
    except ValueError as e:  # also NetworkError, a ValueError
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: {e}") from None


def _gold_spec(text: str) -> str:
    """argparse type: 'none', 'exact', or a deep-run threshold, kept as typed."""
    if text not in ("none", "exact"):
        _threshold(text)
    return text


def _pruned_for(net: Network, evidence):
    """Ancestral closure of the evidence, with the evidence re-indexed."""
    pruned = prune_barren(net, evidence)
    remapped = tuple(
        (pruned.node_id(net.nodes[nid].name), state) for nid, state in evidence
    )
    return pruned, remapped


def _schedule_rows(case_id, pruned, evidence, epsilons, gold, keep_last=False):
    """Search once per threshold, in order; yields each result with its CSV
    row.  ``keep_last`` keeps the accepted set of the last run only.  The
    search is looked up as this module's ``top_epsilon`` on every call, so a
    benchmark can time each one by replacing that name."""
    last = len(epsilons) - 1
    for i, eps in enumerate(epsilons):
        t0 = time.perf_counter()
        res = top_epsilon(pruned, evidence, eps, keep_accepted=keep_last and i == last)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        yield res, _csv_row(case_id, eps, res, gold, elapsed_ms)


def _csv_row(case_id, eps, res, gold, elapsed_ms):
    if gold is None:
        gold_s = frac_s = ""
    else:
        gold_s = _fmt(gold)
        if gold > 0.0:
            frac_s = _fmt(min(res.mass_accumulated / gold, 1.0))
        else:
            frac_s = ""
    return [
        case_id,
        _fmt_eps(eps),
        str(res.states_explored),
        str(res.accepted_count),
        _fmt(res.mass_accumulated),
        gold_s,
        frac_s,
        f"{elapsed_ms:.3f}",
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    net = _load_network(args.network)
    print(f"{len(net)} nodes, {net.arc_count} arcs, {net.max_level + 1} levels")
    print(f"max level {net.max_level}")
    for lvl, ids in enumerate(net.level_nodes):
        print(f"level {lvl}: {len(ids)} nodes")
    return 0


def _cmd_exact(args) -> int:
    net = _load_network(args.network)
    evidence = _load_case(net, args.evidence)
    result = exact_inference(net, evidence, cap=args.cap)
    print(f"P(evidence) = {_fmt(result.evidence_probability)}")
    print(f"instantiations = {result.instantiation_count}")
    for i, spec in enumerate(net.nodes):
        print(f"posterior {spec.name} = {_fmt(result.posteriors[i])}")
    return 0


def _cmd_eml(args) -> int:
    net = _load_network(args.network)
    if net.max_level != 1:
        print(
            f"error: eml needs a two-level network, got {net.max_level + 1} levels",
            file=sys.stderr,
        )
        return 2
    evidence = _load_case(net, args.evidence)
    a = Assignment.from_evidence(net, evidence)
    sub = build_subproblem(net, a, 1)
    count = 0
    for ext in iter_extensions(net, sub, args.epsilon):
        count += 1
        body = " ".join(
            f"{net.nodes[nid].name}={'p' if state else 'a'}"
            for nid, state in sorted(ext.parent_states)
        )
        print(f"{_fmt(ext.new_factor_product)} {body}")
    print(f"{count} extensions at epsilon {_fmt_eps(args.epsilon)}", file=sys.stderr)
    return 0


def _infer_gold(pruned, evidence, cap):
    try:
        return exact_inference(pruned, evidence, cap=cap).evidence_probability
    except ImpossibleEvidenceError:
        return 0.0
    except FreeNodeCapError as e:
        print(f"warning: {e}; gold columns left empty", file=sys.stderr)
        return None


def _cmd_infer(args) -> int:
    net = _load_network(args.network)
    evidence = _load_case(net, args.evidence)
    pruned, pev = _pruned_for(net, evidence)
    case_id = Path(args.evidence).stem

    epsilons = args.schedule.values if args.epsilon is None else (args.epsilon,)

    gold = _infer_gold(pruned, pev, args.cap) if args.gold else None

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    keep = args.dump_accepted is not None
    for last, row in _schedule_rows(case_id, pruned, pev, epsilons, gold, keep):
        writer.writerow(row)

    post_path = Path(args.post) if args.post else Path(args.evidence + ".post")
    posteriors = last.posteriors
    if posteriors is None:
        print(
            "warning: no mass accumulated; posterior estimates are undefined",
            file=sys.stderr,
        )
        post_path.write_text("", encoding="utf-8")
    else:
        lines = [
            f"{spec.name},{_fmt(posteriors[i])}\n"
            for i, spec in enumerate(pruned.nodes)
        ]
        post_path.write_text("".join(lines), encoding="utf-8")

    if args.dump_accepted is not None:
        lines = format_accepted(pruned, last.accepted or [])
        Path(args.dump_accepted).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    return 0


def _bench_case(job):
    """Run one case through the schedule; returns its rows and summary."""
    net, seed, findings, schedule_values, gold_spec, cap = job
    case = make_case(net, seed, findings)
    pruned, pev = _pruned_for(net, case.evidence)
    if gold_spec == "none":
        gold = None
    elif gold_spec == "exact":
        gold = _infer_gold(pruned, pev, cap)
    else:
        gold = top_epsilon(pruned, pev, float(gold_spec)).mass_accumulated
    rows = []
    states = []
    convergence_eps = None
    for res, row in _schedule_rows(case.case_id, pruned, pev, schedule_values, gold):
        rows.append(row)
        states.append(res.states_explored)
        if (
            convergence_eps is None
            and gold
            and res.mass_accumulated / gold >= 0.99
        ):
            convergence_eps = res.epsilon_target
    return case.case_id, rows, gold, convergence_eps, states


def _cmd_bench(args) -> int:
    net = _load_network(args.network)
    jobs = []
    for i in range(args.cases):
        seed = derive_seed(args.seed, _BENCH_CASE_TAG, i)
        jobs.append(
            (net, seed, args.findings, args.schedule.values, args.gold, args.cap)
        )

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_case, jobs))
    else:
        results = [_bench_case(job) for job in jobs]

    all_rows = [row for _, rows, _, _, _ in results for row in rows]
    all_rows.sort(key=lambda r: (r[0], -float(r[1])))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(all_rows)

    out = open(args.summary, "w", encoding="utf-8") if args.summary else sys.stderr
    try:
        results.sort(key=lambda r: r[0])
        out.write(f"# convergence summary (gold: {args.gold})\n")
        for case_id, _, gold, conv_eps, _ in results:
            gold_s = _fmt(gold) if gold is not None else "unknown"
            conv_s = _fmt_eps(conv_eps) if conv_eps is not None else "none"
            out.write(
                f"case {case_id} findings {args.findings} "
                f"gold_mass {gold_s} convergence_eps {conv_s}\n"
            )
        out.write("# states explored by epsilon\n")
        out.write("# epsilons: " + " ".join(_fmt_eps(e) for e in args.schedule) + "\n")
        for case_id, _, _, _, states in results:
            out.write(f"states {case_id} " + " ".join(map(str, states)) + "\n")
        points = [c for _, _, _, c, _ in results if c is not None]
        if points:
            out.write(f"median-convergence-eps {_fmt_eps(statistics.median(points))}\n")
    finally:
        if args.summary:
            out.close()
    return 0


def _cmd_gen(args) -> int:
    counts = args.nodes_per_level
    shape = NetShape(
        levels=len(counts),
        nodes_per_level=counts,
        max_parents=args.max_parents,
        parent_locality=args.locality,
        prior_range=args.prior_range,
        q_range=args.q_range,
        leak_range=args.leak_range,
        finding_leak_range=args.finding_leak_range,
        seed=args.seed,
    )
    net = gen_network(shape)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net_path = out / "network.net"
    net_path.write_text(print_network(net), encoding="utf-8")
    print(net_path)
    for i in range(args.cases):
        seed = derive_seed(args.seed, _BENCH_CASE_TAG, i)
        case = make_case(net, seed, args.findings)
        ev_lines = "".join(
            f"{net.nodes[nid].name} {'present' if state else 'absent'}\n"
            for nid, state in case.evidence
        )
        ev_path = out / f"case-{i:03d}.ev"
        ev_path.write_text(ev_lines, encoding="utf-8")
        side_path = out / f"case-{i:03d}.case"
        side_path.write_text(
            f"case {case.case_id} seed {seed}\n" + ev_lines, encoding="utf-8"
        )
        print(ev_path)
        print(side_path)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _ArgParser:
    parser = _ArgParser(prog="nobn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a NET file and print its summary")
    p.add_argument("network")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("exact", help="brute-force exact inference")
    p.add_argument("network")
    p.add_argument("evidence")
    p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_FREE_NODE_CAP,
                   help="max free nodes to enumerate (default %(default)s)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("eml", help="one-level parent search on a two-level network")
    p.add_argument("network")
    p.add_argument("evidence")
    p.add_argument("--epsilon", type=_threshold, required=True)
    p.set_defaults(func=_cmd_eml)

    p = sub.add_parser("infer", help="threshold search; CSV row(s) on stdout")
    p.add_argument("network")
    p.add_argument("evidence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=_threshold)
    group.add_argument("--schedule", type=_schedule,
                       help="comma-separated decreasing thresholds")
    p.add_argument("--gold", action="store_true",
                   help="also run the exact oracle and fill the gold columns")
    p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_FREE_NODE_CAP)
    p.add_argument("--dump-accepted", metavar="PATH",
                   help="write accepted instantiations of the last run to PATH")
    p.add_argument("--post", metavar="PATH",
                   help="posterior output path (default: <evidence>.post)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("bench", help="run sampled cases through a schedule")
    p.add_argument("network")
    p.add_argument("--cases", type=_int_at_least(0), required=True)
    p.add_argument("--findings", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", type=_schedule, default=DEFAULT_SCHEDULE,
                   help="comma-separated decreasing thresholds")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--gold", type=_gold_spec, default="none",
                   help="'none', 'exact', or a deep-run epsilon (default %(default)s)")
    p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_FREE_NODE_CAP)
    p.add_argument("--summary", metavar="PATH",
                   help="write the per-case summary to PATH instead of stderr")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="generate a seeded network and optional cases")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes-per-level", type=_int_list, default="3,10,15,20,97")
    p.add_argument("--max-parents", type=_int_at_least(1), default=3)
    p.add_argument("--locality", type=_probability, default=0.8)
    p.add_argument("--prior-range", type=_prob_range, default="0.001,0.1")
    p.add_argument("--q-range", type=_prob_range, default="0.2,0.95")
    p.add_argument("--leak-range", type=_prob_range, default="0.0,0.05")
    p.add_argument("--finding-leak-range", type=_prob_range, default=None,
                   help="override the leak range on the deepest level")
    p.add_argument("--cases", type=_int_at_least(0), default=0)
    p.add_argument("--findings", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FreeNodeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (NetworkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
