"""``tools/call_digest.py``: its digest of search calls repeats, and moves
when an input of a call moves; ``--counts`` counts the engine's level-search
work without changing an answer; a round that calls the oracle adds a line
hashing each oracle answer."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

import nobn.engine
import nobn.epsilonml
from nobn import (
    Assignment, exact_inference, gen_network, parse_evidence, parse_network, top_epsilon,
)
from nobn.epsilonml import build_subproblem, iter_extensions

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def call_digest():
    spec = importlib.util.spec_from_file_location("call_digest", ROOT / "tools" / "call_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_case():
    net = parse_network((GOLDEN / "network.net").read_text(encoding="utf-8"))
    return net, parse_evidence((GOLDEN / "case-001.ev").read_text(encoding="utf-8"), net)


def test_digest_repeats_and_follows_the_thresholds(call_digest, golden_case):
    net, evidence = golden_case
    first = call_digest.case_digest(net, evidence, (1e-2, 1e-5, 0.0))
    assert len(first) == 64
    assert call_digest.case_digest(net, evidence, (1e-2, 1e-5, 0.0)) == first
    assert call_digest.case_digest(net, evidence, (1e-2, 1e-4, 0.0)) != first


def test_a_call_without_its_accepted_set_is_refused(call_digest, golden_case):
    net, evidence = golden_case
    with pytest.raises(ValueError, match="accepted set"):
        call_digest.call_record(evidence, 1e-5, top_epsilon(net, evidence, 1e-5))


def test_counts_change_no_answer_and_restore_the_search(call_digest, golden_case):
    net, evidence = golden_case
    eml = nobn.epsilonml
    wrapped = (nobn.engine.iter_level_extensions, eml._bind, eml._dfs, eml._explanation)
    plain = top_epsilon(net, evidence, 1e-5, keep_accepted=True)
    with call_digest.counted() as counts:
        res = top_epsilon(net, evidence, 1e-5, keep_accepted=True)
    assert (nobn.engine.iter_level_extensions, eml._bind, eml._dfs, eml._explanation) == wrapped
    assert call_digest.call_record(evidence, 1e-5, res) == call_digest.call_record(
        evidence, 1e-5, plain
    )
    assert list(counts) == ["searches", "rejects", "nodes", "explanations"]
    assert 0 < counts["searches"] and 0 <= counts["rejects"] <= counts["searches"]
    # the uncharged two-step form is not the engine's search
    a = Assignment.from_evidence(net, evidence)
    sub = build_subproblem(net, a, a.frontier_level())
    with call_digest.counted() as counts:
        assert list(iter_extensions(net, sub, 1e-5))
    assert counts == dict.fromkeys(counts, 0)


def test_counts_line_of_a_workload_round(call_digest, capsys):
    # one seed-0 bn3-f26 round: the digest line is the one printed without
    # --counts, and the counts are the engine's exact level-search work
    assert call_digest.main(["--workload", "bn3-f26", "--counts"]) == 0
    digest, work = capsys.readouterr().out.splitlines()
    calls, sha = call_digest.workload_digest("bn3-f26", 0)
    assert digest == f"bn3-f26 seed 0 calls {calls} {sha}"
    assert work == "bn3-f26 seed 0 searches 4762 rejects 2529 nodes 89872 explanations 208"


def test_oracle_record_follows_every_answer(call_digest, golden_case):
    net, evidence = golden_case
    exact = exact_inference(net, evidence)
    record = call_digest.oracle_record(evidence, exact)
    assert record == call_digest.oracle_record(iter(evidence), exact_inference(net, evidence))
    nudged = list(exact.posteriors)
    nudged[-1] = math.nextafter(nudged[-1], 0.0)
    for changed in (
        dataclasses.replace(exact, posteriors=tuple(nudged)),
        dataclasses.replace(exact, evidence_probability=math.nextafter(
            exact.evidence_probability, 1.0)),
        dataclasses.replace(exact, instantiation_count=exact.instantiation_count + 1),
    ):
        assert call_digest.oracle_record(evidence, changed) != record
    assert call_digest.oracle_record(evidence[1:], exact) != record


def test_oracle_line_of_an_exhaustive_round(call_digest, capsys):
    import workloads

    saved = workloads.exact_inference
    assert call_digest.main(["--workload", "exhaustive", "--seed", "7"]) == 0
    assert workloads.exact_inference is saved
    search, oracle = capsys.readouterr().out.splitlines()
    assert search.startswith("exhaustive seed 7 calls 4 ")
    # one record per case, in case order, computed here without the tool
    w = workloads.WORKLOADS["exhaustive"]
    h = hashlib.sha256()
    for _, net, evidence in workloads.sample_cases(w, workloads.relabel(gen_network(w.shape), 7)):
        h.update(call_digest.oracle_record(evidence, exact_inference(net, evidence)))
    assert oracle == f"exhaustive seed 7 oracle calls 4 {h.hexdigest()}"
