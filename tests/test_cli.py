"""CLI tests: every subcommand, the CSV contract, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nobn.cli
from nobn.cli import CSV_HEADER, _build_parser, main
from conftest import CHAIN3_TEXT

TWO_LEVEL_TEXT = """\
node d1 prior 0.05
node d2 prior 0.2
node f1 leak 0.02 parents d1:0.9 d2:0.4
node f2 leak 0.05 parents d2:0.7
"""


@pytest.fixture
def chain3_files(tmp_path):
    net = tmp_path / "chain3.net"
    net.write_text(CHAIN3_TEXT)
    ev = tmp_path / "c.ev"
    ev.write_text("C present\n")
    return str(net), str(ev)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    return rows[1:]


def strip_elapsed(text: str) -> str:
    # elapsed_ms is wall-clock measurement, excluded from determinism checks
    lines = text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


class TestValidate:
    def test_chain3_summary(self, capsys, chain3_files):
        code, out, _ = run_cli(capsys, "validate", chain3_files[0])
        assert code == 0
        assert "3 nodes, 2 arcs, 3 levels" in out

    def test_fig3_three_levels(self, capsys, tmp_path):
        p = tmp_path / "fig3.net"
        p.write_text(
            "node A prior 0.1\nnode B prior 0.3\n"
            "node C leak 0.05 parents B:0.6\n"
            "node E leak 0.02 parents A:0.5 C:0.7\n"
        )
        code, out, _ = run_cli(capsys, "validate", str(p))
        assert code == 0
        assert "4 nodes, 3 arcs, 3 levels" in out

    def test_cycle_exits_2(self, capsys, tmp_path):
        p = tmp_path / "cyclic.net"
        p.write_text("node A leak 0.1 parents B:0.5\nnode B leak 0.1 parents A:0.5\n")
        code, _, err = run_cli(capsys, "validate", str(p))
        assert code == 2
        assert "cycle" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/nonexistent.net")
        assert code == 2

    def test_usage_error_exits_1(self, capsys):
        assert main(["validate"]) == 1
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_python_dash_m_from_a_checkout(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "nobn", "validate", "tests/golden/network.net"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "16 nodes, 25 arcs, 3 levels" in done.stdout


class TestExact:
    def test_chain3(self, capsys, chain3_files):
        code, out, _ = run_cli(capsys, "exact", *chain3_files)
        assert code == 0
        lines = out.splitlines()
        p_ev = float(lines[0].split("=")[1])
        assert p_ev == pytest.approx(0.25862, abs=1e-12)
        assert "instantiations = 4" in lines[1]
        posts = dict(
            (ln.split()[1], float(ln.split("=")[1])) for ln in lines[2:]
        )
        assert posts["A"] == pytest.approx(0.15022 / 0.25862, abs=1e-9)
        assert posts["B"] == pytest.approx(0.22082 / 0.25862, abs=1e-9)
        assert posts["C"] == 1.0

    def test_cap_exceeded_exits_3(self, capsys, chain3_files):
        code, _, err = run_cli(capsys, "exact", *chain3_files, "--cap", "1")
        assert code == 3
        assert "cap" in err

    def test_impossible_evidence_exits_2(self, capsys, tmp_path):
        net = tmp_path / "z.net"
        net.write_text("node A prior 0\n")
        ev = tmp_path / "z.ev"
        ev.write_text("A present\n")
        code, _, err = run_cli(capsys, "exact", str(net), str(ev))
        assert code == 2
        assert "zero" in err


class TestEml:
    def test_two_level_extensions(self, capsys, tmp_path):
        net = tmp_path / "two.net"
        net.write_text(TWO_LEVEL_TEXT)
        ev = tmp_path / "two.ev"
        ev.write_text("f1 present\nf2 absent\n")
        code, out, err = run_cli(capsys, "eml", str(net), str(ev), "--epsilon", "1e-6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4  # all four disease assignments qualify at 1e-6
        for line in lines:
            product = float(line.split()[0])
            assert product >= 1e-6
            assert "d1=" in line and "d2=" in line
        assert "extensions" in err

    def test_threshold_filters(self, capsys, tmp_path):
        net = tmp_path / "two.net"
        net.write_text(TWO_LEVEL_TEXT)
        ev = tmp_path / "two.ev"
        ev.write_text("f1 present\nf2 absent\n")
        _, out_all, _ = run_cli(capsys, "eml", str(net), str(ev), "--epsilon", "0")
        _, out_cut, _ = run_cli(capsys, "eml", str(net), str(ev), "--epsilon", "0.05")
        assert len(out_cut.splitlines()) < len(out_all.splitlines())

    @pytest.mark.parametrize(
        "evidence",
        ["", "d1 present\nd2 absent\n", "d1 present\nd2 absent\nf1 present\nf2 absent\n"],
        ids=["empty", "roots", "every-node"],
    )
    def test_nothing_to_expand_yields_the_empty_extension(self, capsys, tmp_path, evidence):
        # no finding with a free parent: the empty extension completes no
        # factor, so its product is 1 and it qualifies exactly up to 1
        net = tmp_path / "two.net"
        net.write_text(TWO_LEVEL_TEXT)
        ev = tmp_path / "two.ev"
        ev.write_text(evidence)
        code, out, err = run_cli(capsys, "eml", str(net), str(ev), "--epsilon", "1")
        assert (code, out) == (0, "1\n")
        assert err == "1 extensions at epsilon 1e+00\n"
        code, out, err = run_cli(capsys, "eml", str(net), str(ev), "--epsilon", "1.5")
        assert (code, out) == (0, "")
        assert err.startswith("0 extensions")

    def test_rejects_multilevel(self, capsys, chain3_files):
        code, _, err = run_cli(capsys, "eml", *chain3_files, "--epsilon", "0.1")
        assert code == 2
        assert "two-level" in err


class TestInfer:
    def test_gold_run_at_zero(self, capsys, chain3_files):
        code, out, _ = run_cli(
            capsys, "infer", *chain3_files, "--epsilon", "0", "--gold"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = dict(zip(CSV_HEADER, rows[0]))
        assert row["case_id"] == "c"
        assert row["epsilon"] == "0e+00"
        assert float(row["mass_accumulated"]) == pytest.approx(0.25862, abs=1e-12)
        assert float(row["gold_mass"]) == pytest.approx(0.25862, abs=1e-12)
        assert float(row["mass_fraction"]) == pytest.approx(1.0, abs=1e-12)

    def test_schedule_fractions(self, capsys, chain3_files):
        code, out, _ = run_cli(
            capsys, "infer", *chain3_files, "--schedule", "1e-2,1e-4", "--gold"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r[1] for r in rows] == ["1e-02", "1e-04"]
        fractions = [float(r[6]) for r in rows]
        assert fractions[0] == pytest.approx(0.25682 / 0.25862, abs=1e-9)
        assert fractions[1] == pytest.approx(1.0, abs=1e-12)

    def test_posterior_file(self, capsys, tmp_path, chain3_files):
        post = tmp_path / "out.post"
        code, _, _ = run_cli(
            capsys, "infer", *chain3_files, "--epsilon", "0", "--post", str(post)
        )
        assert code == 0
        lines = post.read_text().splitlines()
        got = dict(line.split(",") for line in lines)
        assert float(got["A"]) == pytest.approx(0.15022 / 0.25862, abs=1e-9)
        assert float(got["C"]) == 1.0

    def test_posteriors_cover_retained_nodes_only(self, capsys, tmp_path):
        net = tmp_path / "wide.net"
        net.write_text(CHAIN3_TEXT + "node D leak 0.1 parents A:0.3\n")
        ev = tmp_path / "c.ev"
        ev.write_text("C present\n")
        post = tmp_path / "p.post"
        run_cli(capsys, "infer", str(net), str(ev), "--epsilon", "0", "--post", str(post))
        names = [line.split(",")[0] for line in post.read_text().splitlines()]
        assert names == ["A", "B", "C"]  # D is barren and pruned

    def test_posteriors_written_when_joints_underflow(self, capsys, tmp_path):
        # a 150-node chain whose joints are all below double range
        lines = ["node n0 prior 0.5"] + [
            f"node n{i} leak 0.001 parents n{i - 1}:0.999" for i in range(1, 150)
        ]
        net = tmp_path / "deep.net"
        net.write_text("\n".join(lines) + "\n")
        ev = tmp_path / "deep.ev"
        ev.write_text("".join(
            f"n{i} {'present' if i % 2 == 0 else 'absent'}\n" for i in range(4, 150)
        ))
        post = tmp_path / "deep.post"
        code, out, err = run_cli(
            capsys, "infer", str(net), str(ev), "--epsilon", "0", "--post", str(post)
        )
        assert code == 0
        assert "no mass" not in err
        assert float(parse_csv(out)[0][4]) == 0.0
        rows = [line.split(",") for line in post.read_text().splitlines()]
        assert len(rows) == 150
        assert 0.0 < float(rows[0][1]) < 1.0

    def test_impossible_evidence_warns(self, capsys, tmp_path):
        netp = tmp_path / "z.net"
        netp.write_text("node A prior 0\nnode B leak 0 parents A:0.5\n")
        evp = tmp_path / "z.ev"
        evp.write_text("A present\nB present\n")
        post = tmp_path / "z.post"
        code, out, err = run_cli(
            capsys, "infer", str(netp), str(evp), "--epsilon", "0.5",
            "--post", str(post),
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0][4]) == 0.0
        assert "no mass" in err
        assert post.read_text() == ""

    def test_dump_accepted(self, capsys, tmp_path, chain3_files):
        dump = tmp_path / "acc.txt"
        code, _, _ = run_cli(
            capsys, "infer", *chain3_files, "--epsilon", "0.01",
            "--dump-accepted", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("A=p B=p C=p")
        joints = [float(line.split()[0]) for line in lines]
        assert joints == sorted(joints, reverse=True)

    def test_epsilon_and_schedule_conflict(self, capsys, chain3_files):
        code = main(
            ["infer", *chain3_files, "--epsilon", "0.1", "--schedule", "1e-2"]
        )
        capsys.readouterr()
        assert code == 1

    def test_chain_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # 1,200 nodes N0 -> ... -> N1199: the level search prices each free
        # parent's outside ancestry, up to 1,198 nodes deep; no instantiation
        # reaches 1e-3
        net = tmp_path / "chain.net"
        net.write_text("node N0 prior 0.1\n" + "".join(
            f"node N{i} leak 0.01 parents N{i - 1}:0.9\n" for i in range(1, 1200)
        ))
        ev = tmp_path / "chain.ev"
        ev.write_text("N1199 present\n")
        code, out, err = run_cli(capsys, "infer", str(net), str(ev), "--epsilon", "1e-3")
        assert code == 0, err
        [row] = parse_csv(out)
        assert row[:4] == ["chain", "1e-03", "2657", "0"]

    def test_gold_cap_exceeded_warns_but_runs(self, capsys, chain3_files):
        code, out, err = run_cli(
            capsys, "infer", *chain3_files, "--epsilon", "0.1", "--gold",
            "--cap", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][5] == "" and rows[0][6] == ""
        assert "cap" in err


class TestThresholdText:
    @pytest.fixture
    def two_level_files(self, tmp_path):
        net = tmp_path / "two.net"
        net.write_text(TWO_LEVEL_TEXT)
        ev = tmp_path / "two.ev"
        ev.write_text("f1 present\nf2 absent\n")
        return str(net), str(ev)

    def test_close_schedule_values_print_apart(self, capsys, two_level_files):
        # each threshold prints as the shortest text that reads back as it
        code, out, _ = run_cli(
            capsys, "infer", *two_level_files,
            "--schedule", "1.2345674e-5,1.2345671e-5,1.23456705e-5",
        )
        assert code == 0
        assert [r[1] for r in parse_csv(out)] == [
            "1.2345674e-05", "1.2345671e-05", "1.23456705e-05",
        ]

    def test_eml_epsilon_prints_every_digit(self, capsys, two_level_files):
        code, _, err = run_cli(capsys, "eml", *two_level_files, "--epsilon", "0.123456789")
        assert code == 0
        assert err.endswith(" extensions at epsilon 1.23456789e-01\n")

    @pytest.mark.parametrize(
        "argv",
        [("infer", "--epsilon", "-0"), ("infer", "--schedule", "1e-3,-0")],
        ids=["epsilon", "schedule"],
    )
    def test_negative_zero_infer_prints_zero(self, capsys, two_level_files, argv):
        code, out, _ = run_cli(capsys, argv[0], *two_level_files, *argv[1:])
        assert code == 0
        assert parse_csv(out)[-1][1] == "0e+00"

    def test_negative_zero_eml_prints_zero(self, capsys, two_level_files):
        code, _, err = run_cli(capsys, "eml", *two_level_files, "--epsilon", "-0")
        assert code == 0
        assert err == "4 extensions at epsilon 0e+00\n"

    @pytest.mark.parametrize(
        "gold, header", [("-0", "0e+00"), ("1E-3", "1e-03")], ids=["negative-zero", "upper-e"]
    )
    def test_bench_gold_prints_as_read(self, capsys, two_level_files, gold, header):
        code, _, err = run_cli(
            capsys, "bench", two_level_files[0], "--cases", "1", "--findings", "1",
            "--schedule", "1e-2", "--gold", gold,
        )
        assert code == 0
        assert err.startswith(f"# convergence summary (gold: {header})\n")


class TestBadInput:
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, chain3_files):
        marked = tmp_path / "bom"
        marked.mkdir()
        for path in map(Path, chain3_files):
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        argv = ("--epsilon", "0", "--gold")
        code, plain, _ = run_cli(capsys, "infer", *chain3_files, *argv)
        assert code == 0
        code, out, err = run_cli(
            capsys, "infer", *(str(marked / Path(p).name) for p in chain3_files), *argv
        )
        assert (code, err) == (0, "")
        assert strip_elapsed(out) == strip_elapsed(plain)

    def test_non_utf8_network_exits_2(self, capsys, tmp_path):
        p = tmp_path / "latin1.net"
        p.write_bytes("node Ä prior 0.5\n".encode("latin-1"))
        code, _, err = run_cli(capsys, "validate", str(p))
        assert code == 2
        assert "UTF-8" in err

    def test_non_utf8_evidence_exits_2(self, capsys, tmp_path, chain3_files):
        ev = tmp_path / "latin1.ev"
        ev.write_bytes(b"C present \xe9\n")
        code, _, err = run_cli(capsys, "infer", chain3_files[0], str(ev), "--epsilon", "0")
        assert code == 2
        assert "UTF-8" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "{net}", "--cases", "1", "--findings", "1", "--summary", "{bad}"),
            ("infer", "{net}", "{ev}", "--epsilon", "0", "--post", "{bad}"),
            ("infer", "{net}", "{ev}", "--epsilon", "0", "--dump-accepted", "{bad}"),
        ],
        ids=["summary", "post", "dump-accepted"],
    )
    def test_unwritable_output_exits_2_before_any_search(
        self, capsys, tmp_path, chain3_files, monkeypatch, argv
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before opening the output")

        monkeypatch.setattr(nobn.cli, "top_epsilon", no_search)
        net, ev = chain3_files
        bad = str(tmp_path / "missing" / "out")
        code, out, err = run_cli(capsys, *(a.format(net=net, ev=ev, bad=bad) for a in argv))
        assert code == 2
        assert out == ""
        assert "missing" in err

    @pytest.mark.parametrize("spelling", ["same", "relative", "default-post"])
    def test_post_and_dump_naming_one_file_exit_1(
        self, capsys, tmp_path, chain3_files, monkeypatch, spelling
    ):
        # the posteriors would be overwritten by the accepted dump
        def no_search(*args, **kwargs):
            raise AssertionError("searched although both outputs name one file")

        monkeypatch.setattr(nobn.cli, "top_epsilon", no_search)
        monkeypatch.chdir(tmp_path)
        net, ev = chain3_files
        target = tmp_path / "out.txt"
        post = ["--post", str(target)]
        dump = str(target)
        if spelling == "relative":
            dump = "./out.txt"
        elif spelling == "default-post":
            target = Path(ev + ".post")
            post, dump = [], ev + ".post"
        target.write_text("kept\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "infer", net, ev, "--epsilon", "0", *post, "--dump-accepted", dump
        )
        assert code == 1
        assert out == ""
        assert "--dump-accepted" in err
        assert target.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("infer", "{net}", "{ev}", "--epsilon", "0", "--post", "{net}"),
            ("infer", "{net}", "{ev}", "--epsilon", "0", "--post", "{ev}"),
            ("infer", "{net}", "{ev}", "--epsilon", "0", "--dump-accepted", "{net}"),
            ("infer", "{net}", "{ev}", "--epsilon", "0", "--dump-accepted", "./c.ev"),
            ("bench", "{net}", "--cases", "1", "--findings", "1", "--summary", "{net}"),
        ],
        ids=["post-network", "post-evidence", "dump-network", "dump-evidence", "summary"],
    )
    def test_output_naming_an_input_exits_1(
        self, capsys, tmp_path, chain3_files, monkeypatch, argv
    ):
        # the output would overwrite the file the run reads its input from
        def no_search(*args, **kwargs):
            raise AssertionError("searched although an output names an input")

        monkeypatch.setattr(nobn.cli, "top_epsilon", no_search)
        monkeypatch.chdir(tmp_path)
        net, ev = chain3_files
        inputs = {path: Path(path).read_bytes() for path in (net, ev)}
        code, out, err = run_cli(capsys, *(a.format(net=net, ev=ev) for a in argv))
        assert code == 1
        assert out == ""
        assert "is also the" in err
        assert {path: Path(path).read_bytes() for path in inputs} == inputs

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("exact", "{net}", "{ev}", "--cap", "-1"), "--cap"),
            (("infer", "{net}", "{ev}", "--epsilon", "0", "--cap", "-1"), "--cap"),
            (("bench", "{net}", "--cases", "1", "--findings", "1", "--cap", "-1"), "--cap"),
            (("bench", "{net}", "--cases", "-2", "--findings", "1"), "--cases"),
            (("bench", "{net}", "--cases", "1", "--findings", "1", "--jobs", "0"), "--jobs"),
            (("gen", "--out", "{dir}", "--cases", "-2"), "--cases"),
            (("bench", "{net}", "--cases", "1", "--findings", "-1"), "--findings"),
            (("gen", "--out", "{dir}", "--max-parents", "0"), "--max-parents"),
            (("infer", "{net}", "{ev}", "--schedule", "1e-2,x"), "--schedule"),
            (("infer", "{net}", "{ev}", "--schedule", "1e-4,1e-2"), "--schedule"),
            (("bench", "{net}", "--cases", "1", "--findings", "1", "--schedule", "1e-2,x"),
             "--schedule"),
            (("infer", "{net}", "{ev}", "--epsilon", "nan"), "--epsilon"),
            (("infer", "{net}", "{ev}", "--epsilon", "inf"), "--epsilon"),
            (("infer", "{net}", "{ev}", "--epsilon", "-1"), "--epsilon"),
            (("eml", "{net}", "{ev}", "--epsilon", "nan"), "--epsilon"),
            (("bench", "{net}", "--cases", "1", "--findings", "1", "--gold", "nan"), "--gold"),
            (("bench", "{net}", "--cases", "1", "--findings", "1", "--gold", "inf"), "--gold"),
            (("bench", "{net}", "--cases", "1", "--findings", "1", "--gold", "-1"), "--gold"),
            (("gen", "--out", "{dir}", "--prior-range", "0.5,x"), "--prior-range"),
            (("gen", "--out", "{dir}", "--prior-range", "0.5"), "--prior-range"),
            (("gen", "--out", "{dir}", "--q-range", "0.9,0.2"), "--q-range"),
            (("gen", "--out", "{dir}", "--leak-range", "0.2"), "--leak-range"),
            (("gen", "--out", "{dir}", "--leak-range", "0.1,0.2,0.3"), "--leak-range"),
            (("gen", "--out", "{dir}", "--finding-leak-range", "0.01,1.5"),
             "--finding-leak-range"),
            (("gen", "--out", "{dir}", "--locality", "7"), "--locality"),
            (("gen", "--out", "{dir}", "--locality", "nan"), "--locality"),
            (("gen", "--out", "{dir}", "--nodes-per-level", "3,-1"), "--nodes-per-level"),
            (("gen", "--out", "{dir}", "--nodes-per-level", "0,5"), "--nodes-per-level"),
            (("gen", "--out", "{dir}", "--nodes-per-level", "3"), "--nodes-per-level"),
        ],
    )
    def test_out_of_range_counts_exit_1(self, capsys, tmp_path, chain3_files, argv, option):
        net, ev = chain3_files
        subst = {"net": net, "ev": ev, "dir": str(tmp_path / "g")}
        code, out, err = run_cli(capsys, *(a.format(**subst) for a in argv))
        assert code == 1
        assert f"argument {option}" in err
        assert out == ""
        assert not (tmp_path / "g").exists()


class TestBench:
    def test_tiny_net_converges(self, capsys, tmp_path):
        net = tmp_path / "chain3.net"
        net.write_text(CHAIN3_TEXT)
        code, out, err = run_cli(
            capsys, "bench", str(net), "--cases", "2", "--findings", "1",
            "--seed", "5", "--gold", "exact",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 20  # 2 cases x 10 default schedule steps
        by_case: dict[str, list] = {}
        for r in rows:
            by_case.setdefault(r[0], []).append(r)
        for case_rows in by_case.values():
            eps = [float(r[1]) for r in case_rows]
            assert eps == sorted(eps, reverse=True)
            assert float(case_rows[-1][6]) == pytest.approx(1.0, abs=1e-9)
            states = [int(r[2]) for r in case_rows]
            assert states == sorted(states)
        assert "convergence summary" in err
        assert "states " in err
        assert "median-convergence-eps" in err

    def test_deep_run_gold(self, capsys, tmp_path):
        net = tmp_path / "chain3.net"
        net.write_text(CHAIN3_TEXT)
        code, out, _ = run_cli(
            capsys, "bench", str(net), "--cases", "1", "--findings", "1",
            "--gold", "1e-12", "--schedule", "1e-2,1e-6",
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[-1][6]) <= 1.0

    def test_jobs_parallel_matches_serial(self, capsys, tmp_path):
        net = tmp_path / "chain3.net"
        net.write_text(CHAIN3_TEXT)
        args = [
            "bench", str(net), "--cases", "3", "--findings", "1",
            "--seed", "9", "--gold", "exact", "--schedule", "1e-2,1e-4,1e-8",
        ]
        code1, out1, err1 = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, err2 = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert strip_elapsed(out1) == strip_elapsed(out2)
        assert err1 == err2

    def test_summary_file(self, capsys, tmp_path):
        net = tmp_path / "chain3.net"
        net.write_text(CHAIN3_TEXT)
        summary = tmp_path / "s.txt"
        code, _, err = run_cli(
            capsys, "bench", str(net), "--cases", "1", "--findings", "0",
            "--schedule", "1e-2", "--summary", str(summary),
        )
        assert code == 0
        assert err == ""
        assert "convergence summary" in summary.read_text()


class TestGen:
    def test_generated_network_validates(self, capsys, tmp_path):
        out_dir = tmp_path / "g"
        code, out, _ = run_cli(
            capsys, "gen", "--out", str(out_dir), "--seed", "3",
            "--nodes-per-level", "2,3,4", "--cases", "2", "--findings", "2",
        )
        assert code == 0
        net_path = out_dir / "network.net"
        assert net_path.exists()
        code, vout, _ = run_cli(capsys, "validate", str(net_path))
        assert code == 0
        assert "9 nodes" in vout
        assert (out_dir / "case-000.ev").exists()
        case_text = (out_dir / "case-000.case").read_text()
        assert case_text.startswith("case case-")
        assert " seed " in case_text.splitlines()[0]
        ev_text = (out_dir / "case-000.ev").read_text()
        assert case_text.endswith(ev_text)

    def test_same_seed_identical_files(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            run_cli(
                capsys, "gen", "--out", str(d), "--seed", "77",
                "--nodes-per-level", "2,5", "--cases", "1", "--findings", "3",
            )
        assert (a / "network.net").read_bytes() == (b / "network.net").read_bytes()
        assert (a / "case-000.ev").read_bytes() == (b / "case-000.ev").read_bytes()

    def test_nodes_per_level_not_integers_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--out", str(tmp_path / "g"), "--nodes-per-level", "2,x"
        )
        assert code == 1
        assert "--nodes-per-level" in err
        assert not (tmp_path / "g").exists()

    def test_too_many_findings_writes_nothing(self, capsys, tmp_path):
        # the 10 bottom-level nodes cannot hold 99 findings
        out_dir = tmp_path / "g"
        code, out, err = run_cli(
            capsys, "gen", "--out", str(out_dir), "--nodes-per-level", "2,4,10",
            "--cases", "1", "--findings", "99",
        )
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""
        assert not out_dir.exists()

    def test_generated_case_runs_through_infer(self, capsys, tmp_path):
        out_dir = tmp_path / "g"
        run_cli(
            capsys, "gen", "--out", str(out_dir), "--seed", "1",
            "--nodes-per-level", "2,3,5", "--cases", "1", "--findings", "3",
        )
        code, out, _ = run_cli(
            capsys, "infer", str(out_dir / "network.net"),
            str(out_dir / "case-000.ev"), "--epsilon", "0", "--gold",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row[6]) == pytest.approx(1.0, abs=1e-9)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_synopsis() -> dict[str, set[str]]:
    """Per subcommand, the long options of its entry in the README's CLI
    synopsis (the first ``sh`` block after ``## CLI``)."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for entry in block.replace("\\\n", " ").splitlines():
        usage = entry.partition("#")[0]  # drop the trailing comment
        words = usage.split()
        if words[:1] == ["nobn"]:
            synopsis[words[1]] = set(re.findall(r"--[a-z][a-z-]*", usage))
    return synopsis


def _parser_options() -> dict[str, set[str]]:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt for opt in parser._option_string_actions if opt.startswith("--")} - {"--help"}
        for name, parser in sub.choices.items()
    }


def test_readme_synopsis_lists_every_option():
    # every subcommand has an entry, and each entry lists exactly the long
    # options that subcommand takes
    assert _readme_synopsis() == _parser_options()
