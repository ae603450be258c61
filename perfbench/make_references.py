#!/usr/bin/env python3
"""Regenerate perfbench/references.json, the reference results the
benchmark checks every search call against.

    python3 perfbench/make_references.py

For each workload's cases (seed 0) it calls top_epsilon and exact_inference
directly, not through the benchmark's rounds or the CLI, and records every
(case, epsilon) accepted count and mass, and for the bn3-shaped workloads the
gold mass at epsilon 1e-30.  Masses are written with 17 significant digits.
States explored are recorded for information only; the benchmark never fails
on them.  A full run takes a few minutes; the bn3-f26 gold runs dominate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nobn import exact_inference, parse_network, print_network, top_epsilon  # noqa: E402
from nobn.netgen import gen_network  # noqa: E402

import workloads  # noqa: E402

REFERENCES = HERE / "references.json"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def workload_references(w: workloads.Workload) -> dict:
    net = parse_network(print_network(gen_network(w.shape)))
    out = {}
    for case_id, pruned, evidence in workloads.sample_cases(w, net):
        entry: dict = {}
        if w.kind == "exhaustive":
            exact = exact_inference(pruned, evidence)
            entry["evidence_probability"] = _fmt(exact.evidence_probability)
            entry["instantiations"] = exact.instantiation_count
        else:
            gold = top_epsilon(pruned, evidence, workloads.GOLD_EPSILON)
            entry["gold"] = _fmt(gold.mass_accumulated)
            entry["gold_accepted"] = gold.accepted_count
            entry["gold_states"] = gold.states_explored
        rows = {}
        for eps in w.schedule:
            res = top_epsilon(pruned, evidence, eps)
            rows[repr(eps)] = [res.accepted_count, _fmt(res.mass_accumulated),
                               res.states_explored]
        entry["rows"] = rows
        out[case_id] = entry
        print(f"{w.name} {case_id} done", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    doc = {
        "format": ("workloads -> case id -> rows: epsilon -> "
                   "[accepted_count, mass (17 significant digits), states_explored]"),
        "workloads": {name: workload_references(w) for name, w in workloads.WORKLOADS.items()},
    }
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
