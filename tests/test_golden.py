"""Byte-identity of CLI outputs against checked-in golden files.

The files under ``tests/golden`` were produced by

    nobn gen --out DIR --seed 7 --nodes-per-level 2,4,10 --cases 2 --findings 5
    nobn bench DIR/network.net --cases 3 --findings 5 --seed 7 \
        --schedule 1e-2,1e-4,1e-6,0 --gold exact --summary bench.summary
    nobn infer DIR/network.net DIR/case-001.ev --schedule 1e-2,1e-5,0 --gold \
        --dump-accepted infer.accepted --post infer.post
    nobn exact DIR/network.net DIR/case-001.ev

with the wall-clock ``elapsed_ms`` column cut from the CSVs.  Every other
byte is pinned: a refactor of the search, the oracle or the generator that
changes a single rounding shows up here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from nobn.cli import main

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def drop_elapsed(csv_text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


@pytest.fixture
def generated(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen", "--out", str(out), "--seed", "7",
                 "--nodes-per-level", "2,4,10", "--cases", "2", "--findings", "5"]) == 0
    capsys.readouterr()
    return out


def test_generated_network_and_case(generated):
    for name in ("network.net", "case-001.ev", "case-001.case"):
        assert (generated / name).read_text(encoding="utf-8") == golden(name), name


def test_bench_csv_and_summary(generated, tmp_path, capsys):
    summary = tmp_path / "bench.summary"
    code = main(["bench", str(generated / "network.net"), "--cases", "3",
                 "--findings", "5", "--seed", "7", "--schedule", "1e-2,1e-4,1e-6,0",
                 "--gold", "exact", "--summary", str(summary)])
    out = capsys.readouterr().out
    assert code == 0
    assert drop_elapsed(out) == golden("bench.csv")
    assert summary.read_text(encoding="utf-8") == golden("bench.summary")


def test_infer_csv_posteriors_and_dump(generated, tmp_path, capsys):
    post = tmp_path / "infer.post"
    dump = tmp_path / "infer.accepted"
    code = main(["infer", str(generated / "network.net"), str(generated / "case-001.ev"),
                 "--schedule", "1e-2,1e-5,0", "--gold",
                 "--dump-accepted", str(dump), "--post", str(post)])
    out = capsys.readouterr().out
    assert code == 0
    assert drop_elapsed(out) == golden("infer.csv")
    assert post.read_text(encoding="utf-8") == golden("infer.post")
    assert dump.read_text(encoding="utf-8") == golden("infer.accepted")


def test_exact_output(generated, capsys):
    code = main(["exact", str(generated / "network.net"), str(generated / "case-001.ev")])
    assert code == 0
    assert capsys.readouterr().out == golden("exact.out")
