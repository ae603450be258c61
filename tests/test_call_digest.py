"""``tools/call_digest.py``: its digest of search calls repeats, and moves
when an input of a call moves."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from nobn import parse_evidence, parse_network, top_epsilon

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
