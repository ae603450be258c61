"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The convergence-shape
criterion drives the full benchmark harness and dominates the runtime
(several minutes); everything else finishes in seconds.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from nobn import (
    ImpossibleEvidenceError,
    SplitMix64,
    bn3_shape,
    derive_seed,
    exact_inference,
    gen_network,
    instantiations_above,
    print_network,
    top_epsilon,
)
from nobn.cli import main as cli_main
from nobn.epsilonml import iter_extensions
from conftest import pruned_with_evidence, random_evidence, small_random_net

from test_epsilonml import (
    _assert_found_at_own_product,
    _best_completions,
    _brute_extensions,
    _ext_key,
    _two_level_subproblem,
)


def _announce(number: int, name: str):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _population(count: int):
    """Seeded random networks with ≤16 retained nodes plus their evidence."""
    for seed in range(count):
        net = small_random_net(seed)
        ev = random_evidence(net, seed)
        yield pruned_with_evidence(net, ev)


class TestAcceptance:
    def test_01_oracle_equivalence(self):
        # 200 networks x 5 thresholds sampled log-uniformly in [1e-16, 1e-1]
        t0 = time.perf_counter()
        r = SplitMix64(derive_seed(2024, 0xACC1))
        runs = 0
        for pruned, pev in _population(200):
            assert len(pruned) <= 16
            oracle = dict(instantiations_above(pruned, pev, 0.0))
            for _ in range(5):
                eps = 10.0 ** (-(1.0 + 15.0 * r.random()))
                res = top_epsilon(pruned, pev, eps, keep_accepted=True)
                expected = {k for k, j in oracle.items() if j >= eps}
                assert {values for values, _ in res.accepted} == expected
                for values, j in res.accepted:
                    assert math.isclose(
                        j, oracle[values], rel_tol=1e-12, abs_tol=1e-300
                    )
                runs += 1
        elapsed = time.perf_counter() - t0
        assert runs == 1000
        assert elapsed < 120.0, f"criterion-1 suite took {elapsed:.1f}s"
        _announce(1, "oracle equivalence")

    def test_02_gold_standard_mode(self):
        for pruned, pev in _population(200):
            res = top_epsilon(pruned, pev, 0.0)
            try:
                exact = exact_inference(pruned, pev)
            except ImpossibleEvidenceError:
                assert res.mass_accumulated == 0.0
                continue
            assert abs(res.mass_accumulated - exact.evidence_probability) < 1e-9
            posteriors = res.posteriors
            for nid in range(len(pruned)):
                assert abs(posteriors[nid] - exact.posteriors[nid]) < 1e-9
        _announce(2, "gold-standard mode")

    def test_03_epsilon_monotonicity(self):
        r = SplitMix64(derive_seed(2024, 0xACC3))
        for pruned, pev in _population(60):
            ladder = sorted(
                (10.0 ** (-(1.0 + 15.0 * r.random())) for _ in range(5)),
                reverse=True,
            )
            prev_keys: set | None = None
            prev_mass = -1.0
            prev_count = -1
            prev_score = None
            for eps in ladder:
                res = top_epsilon(pruned, pev, eps, keep_accepted=True)
                keys = {values for values, _ in res.accepted}
                if prev_keys is not None:
                    assert prev_keys <= keys  # exact set nesting
                    assert res.mass_accumulated >= prev_mass
                    assert res.accepted_count >= prev_count
                    assert all(
                        s >= ps for s, ps in zip(res.score, prev_score)
                    )
                prev_keys = keys
                prev_mass = res.mass_accumulated
                prev_count = res.accepted_count
                prev_score = res.score
        _announce(3, "epsilon monotonicity")

    def test_04_branching_bound_admissibility(self):
        # exhaustive descent over >= 500 random two-level subproblems
        r = SplitMix64(derive_seed(2024, 0xACC4))
        checked = 0
        seed = 0
        while checked < 500:
            net, sub = _two_level_subproblem(seed)
            seed += 1
            free = sub.free_parents
            if len(free) > 10:
                continue
            brute = _brute_extensions(net, sub)
            # the bound the search prunes with dominates every completion of
            # every prefix, exactly: each prefix's best completion survives
            # a search at its own product
            all_exts = list(iter_extensions(net, sub, 0.0))
            assert {_ext_key(sub, e) for e in all_exts} == set(brute)
            _assert_found_at_own_product(net, sub, _best_completions(sub, all_exts))
            # no qualifying extension is pruned at a random threshold
            eps = 10.0 ** (-12.0 * r.random())
            got = {_ext_key(sub, e) for e in iter_extensions(net, sub, eps)}
            assert got == {k for k, p in brute.items() if p >= eps}
            checked += 1
        _announce(4, "branching-bound admissibility")

    def test_05_negative_product_synergy(self):
        nets = [small_random_net(seed) for seed in range(40)]
        nets.append(gen_network(bn3_shape(seed=0)))
        pairs = 0
        for net in nets:
            for spec in net.nodes:
                if spec.is_root or len(spec.links) < 2 or spec.leak >= 1.0:
                    continue
                qs = [q for _, q in spec.links]
                m = 1.0 - spec.leak
                for qa, qb in itertools.combinations(qs, 2):
                    if not (0.0 < qa < 1.0 and 0.0 < qb < 1.0):
                        continue
                    p_ab = 1.0 - m * (1.0 - qa) * (1.0 - qb)
                    p_none = spec.leak
                    p_a = 1.0 - m * (1.0 - qa)
                    p_b = 1.0 - m * (1.0 - qb)
                    assert p_ab * p_none < p_a * p_b
                    pairs += 1
        assert pairs > 100
        _announce(5, "negative product synergy")

    def test_06_convergence_shape(self, tmp_path):
        # 12 sampled cases on the five-level benchmark network, run at 26
        # findings and extended to 83, against a 1e-30 deep-run gold
        t0 = time.perf_counter()
        net_path = tmp_path / "bn3.net"
        net_path.write_text(print_network(gen_network(bn3_shape(seed=0))))

        def run(findings: int):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(
                    [
                        "bench", str(net_path), "--cases", "12",
                        "--findings", str(findings), "--seed", "0",
                        "--gold", "1e-30", "--jobs", "2",
                    ]
                )
            assert code == 0
            conv = {}
            states_rows = []
            for line in err.getvalue().splitlines():
                toks = line.split()
                if line.startswith("case "):
                    conv[toks[1]] = None if toks[7] == "none" else float(toks[7])
                elif line.startswith("states "):
                    states_rows.append([int(t) for t in toks[2:]])
            return conv, states_rows

        conv26, states26 = run(26)
        conv83, states83 = run(83)
        # (a) every case converges inside the default schedule
        assert len(conv26) == len(conv83) == 12
        assert all(eps is not None for eps in conv26.values())
        assert all(eps is not None for eps in conv83.values())
        # (b) more findings shift the convergence point to smaller epsilon
        median26 = statistics.median(conv26.values())
        median83 = statistics.median(conv83.values())
        assert median83 <= median26
        # resource table sanity rides along: states finite and non-decreasing
        for rows in (states26, states83):
            assert len(rows) == 12
            for row in rows:
                assert row == sorted(row)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"benchmark took {elapsed:.1f}s"
        _announce(6, "convergence-shape reproduction")

    def test_07_resource_use_report(self, tmp_path):
        from nobn import NetShape

        net_path = tmp_path / "small.net"
        shape = NetShape(
            levels=4,
            nodes_per_level=(2, 4, 6, 12),
            max_parents=2,
            parent_locality=0.9,
            seed=5,
        )
        net_path.write_text(print_network(gen_network(shape)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(
                [
                    "bench", str(net_path), "--cases", "4", "--findings", "6",
                    "--seed", "3", "--gold", "exact",
                ]
            )
        assert code == 0
        summary = err.getvalue()
        assert "# states explored by epsilon" in summary
        assert "# epsilons:" in summary
        rows = [
            [int(t) for t in line.split()[2:]]
            for line in summary.splitlines()
            if line.startswith("states ")
        ]
        assert len(rows) == 4
        for row in rows:
            assert len(row) == 10  # one column per default-schedule threshold
            assert all(isinstance(v, int) and v >= 1 for v in row)
            assert row == sorted(row)  # non-decreasing in -log(epsilon)
        _announce(7, "resource-use report")

    def test_08_determinism(self, tmp_path):
        # gen: byte-identical artifacts
        dirs = [tmp_path / "g1", tmp_path / "g2"]
        for d in dirs:
            with redirect_stdout(io.StringIO()):
                code = cli_main(
                    [
                        "gen", "--out", str(d), "--seed", "11",
                        "--nodes-per-level", "2,4,8", "--cases", "2",
                        "--findings", "3",
                    ]
                )
            assert code == 0
        for name in ("network.net", "case-000.ev", "case-000.case", "case-001.ev"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        # infer: byte-identical CSV (modulo wall-clock column) and dumps
        net_path = dirs[0] / "network.net"
        ev_path = dirs[0] / "case-000.ev"

        def run_infer(tag: str):
            out = io.StringIO()
            dump = tmp_path / f"acc-{tag}.txt"
            post = tmp_path / f"post-{tag}.txt"
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli_main(
                    [
                        "infer", str(net_path), str(ev_path),
                        "--schedule", "1e-2,1e-6,1e-12", "--gold",
                        "--dump-accepted", str(dump), "--post", str(post),
                    ]
                )
            assert code == 0
            return out.getvalue(), dump.read_bytes(), post.read_bytes()

        def strip_elapsed(text: str) -> list[list[str]]:
            return [row[:-1] for row in csv.reader(io.StringIO(text))]

        out1, dump1, post1 = run_infer("a")
        out2, dump2, post2 = run_infer("b")
        assert strip_elapsed(out1) == strip_elapsed(out2)
        assert dump1 == dump2
        assert post1 == post2

        # bench: canonical rows identical across runs and job counts
        def run_bench(jobs: int):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(
                    [
                        "bench", str(net_path), "--cases", "3", "--findings", "2",
                        "--seed", "4", "--schedule", "1e-2,1e-6", "--gold",
                        "exact", "--jobs", str(jobs),
                    ]
                )
            assert code == 0
            return strip_elapsed(out.getvalue()), err.getvalue()

        rows1, sum1 = run_bench(1)
        rows2, sum2 = run_bench(1)
        rows4, sum4 = run_bench(2)
        assert rows1 == rows2 == rows4
        assert sum1 == sum2 == sum4
        _announce(8, "determinism")
