"""Tests of the benchmark itself: ``python3 -m pytest benchmarks -q``.

They run the seconds-long smoke mode, feed the checker tampered rows, and
check the seeded inputs and the refusals.  Not part of the library's suite.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke():
    proc = _run([str(BENCH_DIR / "run.py"), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    paths = [ROOT / ln.split("results: ", 1)[1] for ln in lines if "results: " in ln]
    records = {}
    for path in paths:
        rec = json.loads(path.read_text())
        records[rec["workload"]] = rec
        path.unlink()
    return json.loads(lines[-1]), records


def test_smoke_reports_every_metric_and_no_failure(smoke):
    summary, records = smoke
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert set(summary["metrics"]) == set(workloads.WORKLOADS)
    for metrics in summary["metrics"].values():
        assert set(metrics) == set(names)
        assert all(math.isfinite(m["value"]) for m in metrics.values())
    for rec in records.values():
        assert rec["environment"]["OSCFRED_THREADS"] in (None, "1")
        assert any(p["traced"] for p in rec["passes"]) and rec["spans"]


def _rows(records, workload, traced=False):
    return [r for p in records[workload]["passes"] if p["traced"] == traced for r in p["rows"]]


def _fails(workload, res, seed=workloads.DEFAULT_SEED):
    res = {k: v for k, v in res.items() if k != "failures"}
    return checks.check_row(workload, res, seed, checks.load_reference())


@pytest.mark.parametrize("workload, method, tamper", [
    ("table2-k5e4", "opgm", {"e_N": lambda e: 2.0 * e}),
    ("table2-k5e4", "cgm", {"e_N": lambda e: 0.1}),
    ("sweep-k10-1e4", "opgm", {"e_N": lambda e: e * (1 + 1e-6)}),
    ("sweep-k10-1e4", "cgm", {"cond": lambda c: math.inf}),
    ("manufactured-m4", "opgm", {"e_N": lambda e: 1e-9}),
    ("manufactured-m4", "opgm", {"error": lambda _: "SingularMatrixError: zero pivot"}),
])
def test_tampered_row_counts_as_failed(smoke, workload, method, tamper):
    _, records = smoke
    row = next(r for r in _rows(records, workload) if r["method"] == method)
    assert _fails(workload, row) == []
    bad = {**row, **{k: f(row.get(k)) for k, f in tamper.items()}}
    assert _fails(workload, bad)


@pytest.mark.parametrize("field, value", [("residual", 1e-6), ("untraced_e_N", None)])
def test_tampered_traced_row_counts_as_failed(smoke, field, value):
    _, records = smoke
    row = _rows(records, "sweep-k10-1e4", traced=True)[0]
    assert _fails("sweep-k10-1e4", row) == []
    bad = {**row, field: value if value is not None else row["e_N"] * 1.01}
    assert _fails("sweep-k10-1e4", bad)


def test_recorded_values_checked_on_default_seed_only(smoke):
    _, records = smoke
    row = {**_rows(records, "sweep-k10-1e4")[0]}
    row["e_N"] *= 1.5
    assert _fails("sweep-k10-1e4", row)
    assert _fails("sweep-k10-1e4", row, seed=3) == []


def test_errors_match_admits_roundoff_scaled_by_condition():
    assert checks.errors_match(1e-5 * (1 + 1e-9), 1e-5, cond=5.0)
    assert not checks.errors_match(1e-5 * (1 + 1e-7), 1e-5, cond=5.0)
    assert checks.errors_match(2.4e-7 * (1 + 1e-2), 2.4e-7, cond=2.4e12)


def test_default_seed_gives_documented_inputs():
    sweep = workloads.rows("sweep-k10-1e4", 0)
    assert [r.kappa for r in sweep[:8]] == list(np.geomspace(10.0, 1e4, 8))
    assert {(r.method, r.N) for r in sweep} == {("cgm", 256), ("opgm", 64)}
    table = workloads.rows("table2-k5e4", 0)
    assert [(r.method, r.N) for r in table] == [
        ("opgm", n) for n in (16, 32, 64, 128, 256)] + [("cgm", n) for n in (64, 128, 256, 512, 1024)]
    manuf = workloads.rows("manufactured-m4", 0)
    assert [(r.N, r.m, r.kappa) for r in manuf] == [(16, 4, 500.0), (32, 4, 500.0), (64, 4, 500.0)]
    assert manuf[0].kernel == ((1.0, 0.0, 0.5), (0.0, 0.25, 0.0), (0.3, 0.0, 0.0))


def test_other_seeds_jitter_within_bin_and_keep_structure():
    step = 1000.0 ** (1 / 7)
    base = np.geomspace(10.0, 1e4, 8)
    for seed in (1, 2, 17):
        kappas = np.array(workloads.sweep_kappas(seed))
        shift = np.log(kappas / base) / np.log(step)
        assert np.all(np.abs(shift) <= 1 / 8) and np.any(shift != 0)
        assert workloads.sweep_kappas(seed) == workloads.sweep_kappas(seed)
        row = workloads.rows("manufactured-m4", seed)[0]
        C, C0 = np.array(row.kernel), np.array(workloads.MANUF_KERNEL)
        assert np.array_equal(C != 0, C0 != 0) and np.linalg.matrix_rank(C) == 3
        assert [(t, len(c)) for t, c in row.exact] == [(t, len(c)) for t, c in workloads.MANUF_EXACT]
        assert workloads.rows("table2-k5e4", seed) == workloads.rows("table2-k5e4", 0)


def test_refuses_more_than_one_oscfred_thread():
    env = {**os.environ, "OSCFRED_THREADS": "2"}
    proc = _run([str(BENCH_DIR / "run.py"), "--workload", "table2-k5e4", "--seconds", "1"], env=env)
    assert proc.returncode == 2 and "OSCFRED_THREADS" in proc.stderr and not proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["benchmarks/run.py", "--workload", "table2-k5e4", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout
