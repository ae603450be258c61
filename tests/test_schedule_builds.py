"""One ``top_epsilon`` call builds few batch schedules: at most one per
expanded level, one per node outside the evidence ancestry and one for the
evidence.  Every other batch is looked up.  A key that never hit would keep
every answer and build a schedule per batch, so only a count shows it."""

from __future__ import annotations

from pathlib import Path

import pytest

import nobn.engine
from nobn import (
    Assignment,
    bn3_shape,
    derive_seed,
    gen_network,
    make_case,
    parse_evidence,
    parse_network,
    prune_barren,
    top_epsilon,
)

GOLDEN = Path(__file__).parent / "golden"


def _golden_case():
    net = parse_network((GOLDEN / "network.net").read_text(encoding="utf-8"))
    return net, parse_evidence((GOLDEN / "case-001.ev").read_text(encoding="utf-8"), net)


def _first_bn3_f26_case():
    # the benchmark's bn3-f26 case 0, pruned to the evidence ancestry
    net = gen_network(bn3_shape(0))
    case = make_case(net, derive_seed(0, 0x04, 0), 26)
    pruned = prune_barren(net, case.evidence)
    evidence = tuple(
        (pruned.node_id(net.nodes[nid].name), state) for nid, state in case.evidence
    )
    return pruned, evidence


@pytest.mark.parametrize(
    "case, epsilon",
    [
        (_golden_case, 1e-5),
        (_golden_case, 0.0),
        (_first_bn3_f26_case, 1e-6),
        (_first_bn3_f26_case, 1e-20),
    ],
    ids=["golden-1e-5", "golden-0", "bn3-f26-case0-1e-6", "bn3-f26-case0-1e-20"],
)
def test_one_call_builds_one_schedule_per_batch_shape(monkeypatch, case, epsilon):
    net, evidence = case()
    builds, levels = [], set()
    build, extensions = Assignment._schedule, nobn.engine.iter_level_extensions

    def counted_build(self, *args):
        builds.append(id(self))
        return build(self, *args)

    def recorded_extensions(net, a, level, eps):
        levels.add(level)
        return extensions(net, a, level, eps)

    monkeypatch.setattr(Assignment, "_schedule", counted_build)
    monkeypatch.setattr(nobn.engine, "iter_level_extensions", recorded_extensions)
    top_epsilon(net, evidence, epsilon)
    forced = len(net) - len(prune_barren(net, evidence))
    assert len(set(builds)) == 1  # one Assignment per call
    assert len(builds) <= len(levels) + forced + 1
