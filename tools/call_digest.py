#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over every search call of a round.

    python3 tools/call_digest.py --workload bn3-f26 --seed 0
    python3 tools/call_digest.py --seed 7            # all four workloads

Run it from the root of a checkout: it imports ``nobn`` from ``src/`` and the
workloads from ``perfbench/workloads.py``, which it only reads.  It runs one
round of each workload with every ``top_epsilon`` call made through
``workloads`` and through ``nobn.cli`` asked to keep its accepted set, and
hashes, per call in call order, the evidence, the threshold, the states
explored, the accepted count, the accepted set sorted by node states with
each joint in hex, the mass in hex and the posteriors in hex.  Two checkouts
whose lines match made the same calls and got every answer bit for bit,
which is what a speed-up must keep.  Each line reads
``<workload> seed <seed> calls <n> <sha256>``.

    python3 tools/call_digest.py --workload bn3-f26 --counts

With ``--counts`` each workload's line is followed by the exact work the
engine's level search did in that round: ``searches`` (its
``iter_level_extensions`` calls; context-memo hits make none), ``rejects``
(searches rejected at entry, before any inner node), ``nodes`` (inner nodes
of its ``_dfs``) and ``explanations`` (``_explanation`` calls, the charges
priced from scratch).  They are counted by wrapping those functions for the
round, so the digest is the same with or without the option.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import nobn.engine  # noqa: E402
import nobn.epsilonml  # noqa: E402
from nobn import cli  # noqa: E402
from nobn.engine import SearchResult, top_epsilon  # noqa: E402
from nobn.model import Network  # noqa: E402


def _hex(x: float | None) -> str:
    return "none" if x is None else float(x).hex()


def call_record(evidence: Iterable[tuple[int, bool]], epsilon: float, res: SearchResult) -> bytes:
    """The canonical text of one call's inputs and answers.  ``res`` must
    hold its accepted set (``keep_accepted=True``)."""
    if res.accepted is None:
        raise ValueError("the call did not keep its accepted set")
    lines = [
        "evidence " + " ".join(f"{nid}={int(state)}" for nid, state in evidence),
        f"epsilon {_hex(epsilon)}",
        f"states {res.states_explored} accepted {res.accepted_count}",
        f"mass {_hex(res.mass_accumulated)}",
        "posteriors "
        + ("none" if res.posteriors is None else " ".join(map(_hex, res.posteriors))),
    ]
    lines += sorted(
        "".join("1" if v else "0" for v in values) + " " + _hex(joint)
        for values, joint in res.accepted
    )
    return ("\n".join(lines) + "\n\n").encode("ascii")


def case_digest(net: Network, evidence, schedule: Iterable[float]) -> str:
    """SHA-256 over ``top_epsilon`` at each threshold of ``schedule``."""
    evidence = tuple(evidence)
    h = hashlib.sha256()
    for eps in schedule:
        h.update(call_record(evidence, eps, top_epsilon(net, evidence, eps, keep_accepted=True)))
    return h.hexdigest()


@contextmanager
def _recorded(workloads, h):
    """Route the round's search calls through a recorder that keeps each
    accepted set and hashes each call as it returns."""
    calls = [0]

    def recording(net, evidence, epsilon_target, keep_accepted=False):
        evidence = tuple(evidence)
        res = top_epsilon(net, evidence, epsilon_target, keep_accepted=True)
        h.update(call_record(evidence, epsilon_target, res))
        calls[0] += 1
        if not keep_accepted:
            res.accepted = None
        return res

    saved = workloads.top_epsilon, cli.top_epsilon
    workloads.top_epsilon = cli.top_epsilon = recording
    try:
        yield calls
    finally:
        workloads.top_epsilon, cli.top_epsilon = saved


@contextmanager
def counted():
    """Count the engine's level-search work while the block runs: yields a
    dict of ``searches``, ``rejects``, ``nodes`` and ``explanations`` (see the
    module notes).  Only the engine's searches are counted, the ones its
    ``iter_level_extensions`` calls pose; the two-step form
    (``iter_extensions``) charges nothing and keeps its own stats."""
    counts = dict.fromkeys(("searches", "rejects", "nodes", "explanations"), 0)
    eml = nobn.epsilonml
    level_search, bind, dfs, explanation = (
        nobn.engine.iter_level_extensions, eml._bind, eml._dfs, eml._explanation
    )
    engine = [False]  # inside the engine's call, which creates its _dfs

    def searched(*args):
        counts["searches"] += 1
        engine[0] = True
        try:
            return level_search(*args)
        finally:
            engine[0] = False

    def bound(net, plan, values, epsilon, charged=False):
        tables = bind(net, plan, values, epsilon, charged)
        counts["rejects"] += engine[0] and tables is None
        return tables

    def walked(tables, stats):
        return dfs(tables, counts if engine[0] else stats)

    def explained(*args):
        counts["explanations"] += 1
        return explanation(*args)

    nobn.engine.iter_level_extensions = searched
    eml._bind, eml._dfs, eml._explanation = bound, walked, explained
    try:
        yield counts
    finally:
        nobn.engine.iter_level_extensions = level_search
        eml._bind, eml._dfs, eml._explanation = bind, dfs, explanation


def workload_digest(name: str, seed: int) -> tuple[int, str]:
    """(search calls, SHA-256) of one round of the named workload."""
    import workloads

    w = workloads.WORKLOADS[name]
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, _recorded(workloads, h) as calls:
        inputs = workloads.setup(w, seed, Path(tmp))
        workloads.run_round(w, inputs)
    return calls[0], h.hexdigest()


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--counts", action="store_true",
                    help="also print the engine's level-search work per workload")
    args = ap.parse_args(argv)
    for name in args.workload or list(workloads.WORKLOADS):
        # set-up poses no search, so the counts are the round's
        with counted() if args.counts else nullcontext() as counts:
            calls, digest = workload_digest(name, args.seed)
        print(f"{name} seed {args.seed} calls {calls} {digest}", flush=True)
        if counts is not None:
            print(f"{name} seed {args.seed} " + " ".join(f"{k} {v}" for k, v in counts.items()),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
