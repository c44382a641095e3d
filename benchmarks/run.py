"""oscfred benchmark: end-to-end and per-layer timings of Galerkin solves.

Run from the repository root::

    python3 benchmarks/run.py --workload table2-k5e4 --seed 0 --seconds 52 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn
    python3 benchmarks/run.py --smoke                 # seconds-long check of every workload

One process drives the library (``OSCFRED_THREADS`` unset or 1).  A run
times ``setup_s`` in fresh interpreters, warms up with the workload's
smallest solve, then repeats passes over the workload until ``--seconds``
would be exceeded (at least one pass).  With ``--trace 0`` every pass is
timed from outside and the run reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the run reports the
per-layer metrics.  Every solve's output is checked (``checks.py``).
Each run writes its inputs, environment, per-row timings and errors, and
spans to ``benchmarks/results/``; the last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 3
# One BLAS thread: the solve path is single-threaded Python around small LAPACK
# calls, and a second OpenBLAS thread roughly doubles the run-to-run spread.
BLAS_THREADS = "1"
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; reported in one line, exit code 2."""


def _use_checkout_sources() -> None:
    init = SRC / "oscfred" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no oscfred sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import oscfred
    if Path(oscfred.__file__).resolve() != init.resolve():
        raise BenchError(f"imported oscfred from {oscfred.__file__}, not from {SRC}")


def _check_threads() -> str | None:
    raw = os.environ.get("OSCFRED_THREADS")
    try:
        many = raw is not None and int(raw) > 1
    except ValueError:
        many = False  # the library falls back to one worker
    if many:
        raise BenchError(f"OSCFRED_THREADS={raw}: the benchmark drives one worker; unset it")
    return raw


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def _blas_info(pkg) -> dict | None:
    try:
        return pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None


def environment(oscfred_threads: str | None) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_info(numpy),
        "scipy_blas": _blas_info(scipy),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OSCFRED_THREADS": oscfred_threads,
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _probe(name: str, seed: int) -> tuple[float, dict]:
    """Wall time of a fresh interpreter that imports oscfred and runs the smallest solve."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, {"error": f"set-up probe exceeded {PROBE_TIMEOUT_S} s"}
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return seconds, {"error": f"set-up probe exited {proc.returncode}: {tail}"}
    return seconds, json.loads(proc.stdout.strip().splitlines()[-1])


def _label(res: dict) -> str:
    if "method" not in res:
        return "set-up probe"
    return f"{res['method']} N={res['N']} m={res['m']} kappa={res['kappa']:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 env: dict) -> dict:
    import checks
    import harness
    import workloads

    rows = workloads.smoke_rows(name, seed) if smoke else workloads.rows(name, seed)
    reference = checks.load_reference()

    setup = [_probe(name, seed) for _ in range(1 if smoke else SETUP_PROBES)]
    warmup = harness.timed_solve(workloads.setup_row(name, seed))
    passes, tracer = harness.run_passes(rows, 0.0 if smoke else seconds, trace)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    for p in traced:  # traced outputs must equal the untraced ones
        for res, ref in zip(p["rows"], untraced[0]["rows"]):
            if "e_N" in ref:
                res["untraced_e_N"] = ref["e_N"]

    solves = [res for _, res in setup] + [warmup] + [r for p in passes for r in p["rows"]]
    for res in solves:  # a probe that never reached a solve has an error and no row fields
        res["failures"] = (checks.check_row(name, res, seed, reference) if "method" in res
                           else [res["error"]])
    failures = [f"{_label(res)}: {f}" for res in solves for f in res["failures"]]
    failed = sum(1 for res in solves if res["failures"])

    metrics = {}
    try:
        if not trace or smoke:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics.update(harness.end_to_end(untraced, [s for s, _ in setup], rss_mb))
        if trace:
            metrics.update(harness.per_layer(traced, untraced))
    except (ValueError, ZeroDivisionError, statistics.StatisticsError) as exc:
        failures.append(f"metrics not computable: {exc}")
        failed = max(failed, 1)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": env,
        "inputs": [r.as_dict() for r in rows],
        "setup": [{"seconds": s, "result": res} for s, res in setup],
        "warmup": warmup,
        "passes": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(solves), "failed": failed, "failures": failures,
        "spans": [] if tracer is None else [list(s) for s in tracer.spans],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"BENCH_{name}_s{seed}_t{int(trace)}{'_smoke' if smoke else ''}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    record["path"] = path
    return record


def _report(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}"
          f"{'  smoke' if rec['smoke'] else ''}: {len(rec['passes'])} passes, "
          f"{rec['attempted']} solves, {rec['failed']} failed")
    for name, m in rec["metrics"].items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<30} {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']}/{rec['attempted']})")
    for f in rec["failures"][:10]:
        print(f"  FAILED {f}")
    print(f"  results: {rec['path'].relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="table2-k5e4, sweep-k10-1e4, manufactured-m4 or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0: documented inputs)")
    parser.add_argument("--seconds", type=float, default=52.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest level of every workload, one pass each way")
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads; probes inherit it
    try:
        threads = _check_threads()
        _use_checkout_sources()
        import workloads
        if args.workload != "all" and args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0 or not args.seconds > 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(threads)
    names = workloads.WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace) or args.smoke,
                           args.smoke, env)
        _report(rec)
        records.append(rec)
    # one workload: its metrics; several: the metrics of each, keyed by workload
    metrics = records[0]["metrics"] if len(records) == 1 else {
        r["workload"]: r["metrics"] for r in records}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
