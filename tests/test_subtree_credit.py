"""Scores are credited once per subtree: ``top_epsilon`` and
``exact_inference`` count each joint into the mass with ``Tally.count`` and
credit a batch's present nodes with ``Tally.credit`` when the batch's subtree
closes.  Each of the engine's batches credits at most once, and only when
its subtree counted a nonzero joint; the oracle credits each run of a free
node's presence once; both credit the evidence once at the end.  Both read their evidence twice, so a one-shot
iterator must give the same bits as a tuple."""

from __future__ import annotations

import math

import pytest

from nobn import (
    Assignment,
    NetShape,
    derive_seed,
    enumerate_consistent,
    exact_inference,
    gen_network,
    make_case,
    prune_barren,
    top_epsilon,
)
from nobn.model import Tally

# the benchmark's exhaustive workload and its first case: 15 free nodes once
# its 10 findings are set and the rest pruned
EXHAUSTIVE_SHAPE = NetShape(
    levels=4, nodes_per_level=(3, 5, 8, 12), max_parents=3, parent_locality=0.8, seed=3
)


@pytest.fixture(scope="module")
def exhaustive_case():
    net = gen_network(EXHAUSTIVE_SHAPE)
    case = make_case(net, derive_seed(0, 0x04, 0), 10)
    pruned = prune_barren(net, case.evidence)
    evidence = tuple((pruned.node_id(net.nodes[nid].name), state) for nid, state in case.evidence)
    return pruned, evidence


class _Recorder:
    """Wraps ``Tally.credit`` and ``Assignment.assign`` for one block: counts
    applied batches, credits, credited slots, and credits whose mark had not
    moved."""

    def __init__(self, monkeypatch):
        self.batches = self.credits = self.slots = 0
        self.unmoved: list[int] = []
        credit, assign = Tally.credit, Assignment.assign
        recorder = self

        def recorded_credit(tally, pairs, mark):
            pairs = tuple(pairs)
            recorder.credits += 1
            recorder.slots += sum(1 for _, state in pairs if state)
            if tally.mark is mark:
                recorder.unmoved.append(recorder.credits)
            return credit(tally, pairs, mark)

        def recorded_assign(a, pairs):
            recorder.batches += 1
            return assign(a, pairs)

        monkeypatch.setattr(Tally, "credit", recorded_credit)
        monkeypatch.setattr(Assignment, "assign", recorded_assign)


def test_search_at_zero_credits_once_per_batch_at_most(exhaustive_case, monkeypatch):
    net, evidence = exhaustive_case
    plain = top_epsilon(net, evidence, 0.0, keep_accepted=True)
    rec = _Recorder(monkeypatch)
    res = top_epsilon(net, evidence, 0.0)
    assert res.accepted_count == 2**15
    assert (res.mass_accumulated, res.score) == (plain.mass_accumulated, plain.score)
    # the evidence is one of the applied batches
    assert 0 < rec.credits <= rec.batches
    assert rec.unmoved == []
    # every accepted state credits each of its present nodes, one slot each
    per_instantiation = sum(sum(values) for values, _ in plain.accepted)
    assert rec.slots * 4 < per_instantiation


def test_oracle_credits_once_per_present_run(exhaustive_case, monkeypatch):
    net, evidence = exhaustive_case
    plain = exact_inference(net, evidence)
    rec = _Recorder(monkeypatch)
    exact = exact_inference(net, evidence)
    assert exact == plain
    # a free digit turns present once per counting step but the first, and
    # each is credited once, when the carry turns it absent again; the
    # evidence is credited once more
    assert rec.credits == exact.instantiation_count
    per_instantiation = sum(sum(values) for values, _ in enumerate_consistent(net, evidence))
    assert rec.slots * 4 < per_instantiation


@pytest.mark.parametrize("epsilon", [1e-4, 1e-6, "above"])
def test_no_credit_for_a_subtree_that_counted_nothing(exhaustive_case, monkeypatch, epsilon):
    net, evidence = exhaustive_case
    if epsilon == "above":
        # just above the largest joint: batches are applied, none accepted
        top = max(joint for _, joint in top_epsilon(net, evidence, 0.0, keep_accepted=True).accepted)
        epsilon = math.nextafter(top, math.inf)
    rec = _Recorder(monkeypatch)
    res = top_epsilon(net, evidence, epsilon)
    assert rec.batches > 1
    if res.accepted_count:
        assert rec.unmoved == []
    else:
        # only the evidence, credited once at the end with nothing counted
        assert rec.unmoved == [rec.credits] == [1]


def test_one_shot_evidence_gives_the_same_bits(exhaustive_case):
    net, evidence = exhaustive_case
    for epsilon in (0.0, 1e-5):
        tupled = top_epsilon(net, evidence, epsilon, keep_accepted=True)
        once = top_epsilon(net, iter(evidence), epsilon, keep_accepted=True)
        assert once.mass_accumulated.hex() == tupled.mass_accumulated.hex()
        assert [x.hex() for x in once.score] == [x.hex() for x in tupled.score]
        assert [x.hex() for x in once.posteriors] == [x.hex() for x in tupled.posteriors]
        assert once.accepted == tupled.accepted
    tupled, once = exact_inference(net, evidence), exact_inference(net, iter(evidence))
    assert once.evidence_probability.hex() == tupled.evidence_probability.hex()
    assert [x.hex() for x in once.posteriors] == [x.hex() for x in tupled.posteriors]
    assert once.instantiation_count == tupled.instantiation_count
