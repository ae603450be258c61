"""Tests of the benchmark itself, on reduced sizes of each workload.

    python3 -m pytest -q perfbench

The tracer must not change results and its exact counters must repeat, and
the output checks must accept correct runs and count a wrong output as a
failed call.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REDUCED = {
    "bn3-f26": dict(cases=1, schedule=workloads.WORKLOADS["bn3-f26"].schedule[:4]),
    "bn3-f83": dict(cases=2),
    "wide-log": dict(cases=1, schedule=workloads.WORKLOADS["wide-log"].schedule[:6]),
    "exhaustive": dict(cases=1),
}


def _reduced(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **REDUCED[name])


def _traced(w, seed, tmp_path):
    tr = Tracer()
    with tr.installed(workloads):
        rnd = workloads.run_round(w, workloads.setup(w, seed, tmp_path), clock=tr.now)
    return tr, rnd


def _traced_counters(w, seed, tmp_path):
    tr, rnd = _traced(w, seed, tmp_path)
    counters = {
        "engine.states": tr.engine_states,
        "engine.accepted": tr.engine_accepted,
        "epsilonml.inner_nodes": tr.inner_nodes,
        "epsilonml.subproblems": tr.calls("epsilonml.setup"),
        "model.assign_calls": tr.calls("model.assign"),
        "oracle.instantiations": tr.oracle_instantiations,
    }
    return rnd, counters


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_counters_repeat_and_match_untraced(name, tmp_path):
    w = _reduced(name)
    plain = workloads.run_round(w, workloads.setup(w, 0, tmp_path))
    first, counters = _traced_counters(w, 0, tmp_path)
    second, again = _traced_counters(w, 0, tmp_path)
    assert counters == again
    assert counters["engine.states"] == plain.states > 0
    assert counters["engine.accepted"] == plain.accepted - counters["oracle.instantiations"]
    assert counters["epsilonml.inner_nodes"] > 0
    assert (first.states, first.accepted) == (plain.states, plain.accepted)
    assert (second.states, second.accepted) == (plain.states, plain.accepted)
    # the wrappers are gone again
    assert workloads.top_epsilon.__module__ == "nobn.engine"
    assert workloads.cli.top_epsilon.__module__ == "nobn.engine"


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_relabelled_seed_passes_the_reference_checks(name, tmp_path):
    w = _reduced(name)
    refs = workloads.load_references().get(name, {})
    assert refs, "no references for the workload"
    for seed in (0, 5):
        rnd = workloads.run_round(w, workloads.setup(w, seed, tmp_path))
        attempted, failed, problems = workloads.check(w, rnd, refs)
        assert attempted == len(rnd.latencies_s) and failed == 0, problems


def test_relabel_keeps_names_and_parameters():
    net = workloads.gen_network(workloads.WORKLOADS["bn3-f26"].shape)
    moved = workloads.relabel(net, 5)
    assert [s.name for s in moved.nodes] != [s.name for s in net.nodes]
    named = {s.name: s for s in net.nodes}
    for spec in moved.nodes:
        orig = named[spec.name]
        assert spec.prior == orig.prior and spec.leak == orig.leak
        assert [(moved.nodes[p].name, q) for p, q in spec.links] == [
            (net.nodes[p].name, q) for p, q in orig.links
        ]
    assert workloads.relabel(net, 0) is net


def test_wrong_outputs_count_as_failed(tmp_path):
    w = _reduced("bn3-f26")
    refs = workloads.load_references()["bn3-f26"]
    rnd = workloads.run_round(w, workloads.setup(w, 0, tmp_path))
    rows = rnd.cases[0].rows
    eps, acc, mass = rows[-1]
    # a wrong count, caught by the reference
    rows[-1] = (eps, acc + 1, mass)
    assert workloads.check(w, rnd, refs)[1] == 1
    # a mass that falls as epsilon falls, caught without a reference
    rows[-1] = (eps, acc, rows[-2][2] * 0.5)
    assert workloads.check(w, rnd, {})[1] == 1
    rows[-1] = (eps, acc, mass)
    assert workloads.check(w, rnd, refs)[1] == 0


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = _reduced("bn3-f26")
    plain = workloads.run_round(w, workloads.setup(w, 0, tmp_path))
    e2e = run.end_to_end_metrics([0.01], [plain.wall_s], [plain.latencies_s], plain.accepted)
    tr, traced = _traced(w, 0, tmp_path)
    layers, _ = run.layer_metrics(tr, 1.0, plain.wall_s, traced.wall_s)
    for declared, measured in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit) in measured.items()
        }
    assert all(value > 0 for value, _ in e2e.values())
