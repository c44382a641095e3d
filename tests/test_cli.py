"""Tests of the command-line experiment runner."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np

import oscfred
from oscfred import cli, linalg
from oscfred.bspline import SplineSpace, make_uniform_knots
from oscfred.galerkin import TrialSpace, assemble_rhs
from oscfred.problems import paper_benchmark, problem_from_dict, problem_to_dict


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_default_rows(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    assert cli.main(["table1", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["kappa", "g1", "g2", "g3"]
    assert len(rows) == 5
    assert float(rows[0]["g1"]) == pytest.approx(4.89e-4, rel=0.05, abs=0)


def test_table1_single_kappa_and_json_equivalence(tmp_path):
    out_csv = tmp_path / "t1.csv"
    out_json = tmp_path / "t1.json"
    assert cli.main(["table1", "--kappa", "40", "--out", str(out_csv)]) == 0
    assert cli.main(["table1", "--kappa", "40", "--format", "json", "--out", str(out_json)]) == 0
    _, rows = read_rows(out_csv)
    assert len(rows) == 1
    payload = json.loads(out_json.read_text())
    assert len(payload) == 1
    for col in ("g1", "g2", "g3"):
        assert float(rows[0][col]) == pytest.approx(payload[0][col], rel=1e-5, abs=0)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_small_run(tmp_path):
    out = tmp_path / "conv.csv"
    code = cli.main([
        "convergence", "--kappa", "50", "--method", "opgm",
        "--n-levels", "2", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["method", "kappa", "N", "order", "error", "co", "cond", "seconds"]
    assert [r["order"] for r in rows] == ["54", "102"]  # 3*(N+2)
    assert rows[0]["co"] == ""  # first level has no previous error
    assert float(rows[1]["co"]) > 0
    assert float(rows[0]["error"]) == pytest.approx(7.97e-4, rel=0.02, abs=0)


def test_convergence_requires_kappa(tmp_path):
    out = tmp_path / "never.csv"
    assert cli.main(["convergence", "--out", str(out)]) == cli.EXIT_BAD_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flag, value, word", [("--order", "0", "order"), ("--n-levels", "1", "levels")])
def test_convergence_rejects_a_bad_order_or_level_count(capsys, flag, value, word):
    assert cli.main(["convergence", "--kappa", "50", flag, value]) == cli.EXIT_BAD_CONFIG
    assert_one_line_error(capsys, word)


def test_convergence_rejects_small_kappa():
    assert cli.main(["convergence", "--kappa", "0.5"]) == cli.EXIT_BAD_CONFIG


def test_convergence_deterministic_except_seconds(tmp_path):
    args = ["convergence", "--kappa", "50", "--method", "opgm", "--n-levels", "2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
    assert strip(out1) == strip(out2)


def test_convergence_with_problem_file(tmp_path):
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem_to_dict(paper_benchmark(75.0))))
    out = tmp_path / "conv.csv"
    code = cli.main([
        "convergence", "--method", "opgm", "--n-levels", "2",
        "--problem", str(pfile), "--out", str(out),
    ])
    assert code == 0
    _, rows = read_rows(out)
    assert all(float(r["kappa"]) == 75.0 for r in rows)


def test_convergence_json_format(tmp_path):
    out = tmp_path / "conv.json"
    code = cli.main([
        "convergence", "--kappa", "50", "--method", "opgm",
        "--n-levels", "2", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["co"] is None
    assert payload[1]["order"] == 102


def test_singular_level_is_reported_and_the_rest_still_run(tmp_path, monkeypatch):
    # a singular system gives exit code 3 and a row with no error, order or
    # time and infinite cond; the next level has no order to compare against
    real = cli.run_galerkin

    def singular_at_32(problem, method, N, *args, **kwargs):
        if N == 32:
            raise linalg.SingularMatrixError("forced")
        return real(problem, method, N, *args, **kwargs)

    monkeypatch.setattr(cli, "run_galerkin", singular_at_32)
    args = ["convergence", "--kappa", "50", "--method", "opgm", "--n-levels", "3"]
    out_csv, out_json = tmp_path / "conv.csv", tmp_path / "conv.json"
    assert cli.main(args + ["--out", str(out_csv)]) == cli.EXIT_SINGULAR
    assert cli.main(args + ["--format", "json", "--out", str(out_json)]) == cli.EXIT_SINGULAR
    _, rows = read_rows(out_csv)
    payload = json.loads(out_json.read_text())
    assert [r["N"] for r in rows] == ["16", "32", "64"]
    assert [rows[1][k] for k in ("error", "co", "seconds", "cond")] == ["", "", "", "inf"]
    assert [payload[1][k] for k in ("error", "co", "seconds", "cond")] == [None, None, None, "inf"]
    assert rows[2]["co"] == "" and payload[2]["co"] is None
    assert float(rows[2]["error"]) > 0 and payload[2]["error"] > 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--kappa", "400", "--method", "opgm", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["order"] == "198"
    assert float(rows[0]["cond"]) > 1.0


def test_sweep_default_grid(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    rows = json.loads(out.read_text())
    assert len(rows) == 80
    kappas = [r["kappa"] for r in rows if r["method"] == "opgm"]
    assert len(kappas) == 40 and kappas[0] == pytest.approx(10.0) and kappas[-1] == pytest.approx(1e4)
    assert all(r["error"] is not None and r["error"] > 0 for r in rows)


def test_sweep_huge_kappa(tmp_path):
    # the benchmark's coefficients are built from 1/kappa: kappa**4 would overflow
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", "--kappa", "1e300", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert [r["method"] for r in rows] == ["cgm", "opgm"]
    for r in rows:
        assert math.isfinite(float(r["error"])) and math.isfinite(float(r["cond"])), r


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_fresh_build(capsys):
    assert cli.main(["verify"]) == 0
    text = capsys.readouterr().out
    assert "all checks passed" in text


def test_verify_detects_injected_perturbation(capsys, monkeypatch):
    # a NaN defect must fail too: max() over the differences would drop it
    assemble = cli.galerkin.assemble_operator
    for perturb in (1e-3, float("nan")):
        def perturbed(space, kernel):
            K = assemble(space, kernel)
            K[0, 0] += perturb
            return K
        monkeypatch.setattr(cli.galerkin, "assemble_operator", perturbed)
        assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED, perturb
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert next(ln for ln in out.splitlines() if ln.startswith("operator entries")).endswith("[FAIL]")


# ---------------------------------------------------------------------------
# invalid input: exit code 2 with a one-line message
# ---------------------------------------------------------------------------

def assert_one_line_error(capsys, *words):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err, err
    for word in words:
        assert word in err, err


@pytest.mark.parametrize("command", ["convergence", "sweep"])
@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_rejects_non_finite_kappa(capsys, command, kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--kappa", kappa, "--method", "opgm"]) == cli.EXIT_BAD_CONFIG
    assert_one_line_error(capsys, "finite")


def test_an_allocation_too_large_for_the_host_is_bad_configuration(capsys, monkeypatch):
    # stands in for the shared-cell tensor of a large --order; a real allocation is not tried,
    # since a host that overcommits memory may kill the process instead of refusing it
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 23.3 GiB for an array with shape (70, 70, 70, 70, 65)")

    monkeypatch.setattr(cli, "run_galerkin", too_large)
    assert cli.main(["convergence", "--kappa", "50", "--order", "70", "--n-levels", "2",
                     "--method", "cgm"]) == cli.EXIT_BAD_CONFIG
    assert_one_line_error(capsys, "Unable to allocate")


def test_convergence_rejects_kappa_with_problem_file(tmp_path, capsys):
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem_to_dict(paper_benchmark(50.0))))
    out = tmp_path / "never.csv"
    code = cli.main(["convergence", "--kappa", "5000", "--method", "opgm", "--n-levels", "2",
                     "--problem", str(pfile), "--out", str(out)])
    assert code == cli.EXIT_BAD_CONFIG
    assert not out.exists()
    assert_one_line_error(capsys, "--kappa", "--problem")


def test_sweep_rejects_problem_file(tmp_path, capsys):
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(problem_to_dict(paper_benchmark(75.0))))
    out = tmp_path / "never.csv"
    code = cli.main(["sweep", "--kappa", "2000", "--method", "opgm",
                     "--problem", str(pfile), "--out", str(out)])
    assert code == cli.EXIT_BAD_CONFIG
    assert not out.exists()
    assert_one_line_error(capsys, "--problem")


def _drop_poly_st(d):
    del d["kernel"]["poly_st"]


def _ragged_poly_st(d):
    d["kernel"]["poly_st"] = [[1.0, 0.5], [1.0]]


def _three_element_coefficient(d):
    d["kernel"]["poly_st"] = [[[1.0, 0.0, 2.0]]]


def _overflowing_poly_st(d):
    # finite entries of rank one whose singular value 2e308 overflows
    d["kernel"]["poly_st"] = [[1e308, 1e308], [1e308, 1e308]]


def _overflowing_rhs(d):
    d["rhs"]["terms"][0]["coeffs"] = [1e308, 1e308]


def _fractional_tau(d):
    d["rhs"]["terms"][0]["tau"] = 0.5


def _kappa_below_one(d):
    d["kappa"] = 0.5


def _misspelled_exact(d):
    d["exat"] = d.pop("exact")


def _unknown_kernel_key(d):
    d["kernel"]["func"] = "exp"


def _unknown_rhs_key(d):
    d["rhs"]["term"] = []


def _unknown_term_key(d):
    d["exact"]["terms"][1]["coef"] = [1.0]


# finite entries whose assembly overflows fail as bad input too, not with numpy warnings;
# a key the schema does not know is named by its path, at every level
_SCHEMA_ERRORS = [(_drop_poly_st, "poly_st"), (_ragged_poly_st, "poly_st"), (_three_element_coefficient, "poly_st"),
                  (_overflowing_poly_st, "singular value"), (_overflowing_rhs, "encountered"),
                  (_fractional_tau, "rhs.terms[0].tau"), (_kappa_below_one, "kappa"),
                  (_misspelled_exact, "unknown key exat"), (_unknown_kernel_key, "unknown key kernel.func"),
                  (_unknown_rhs_key, "unknown key rhs.term"),
                  (_unknown_term_key, "unknown key exact.terms[1].coef")]


@pytest.mark.parametrize("edit, word", _SCHEMA_ERRORS, ids=[edit.__name__ for edit, _ in _SCHEMA_ERRORS])
def test_problem_file_schema_errors(tmp_path, capsys, edit, word):
    d = problem_to_dict(paper_benchmark(75.0))
    edit(d)
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(d))
    code = cli.main(["convergence", "--method", "opgm", "--n-levels", "2", "--problem", str(pfile)])
    assert code == cli.EXIT_BAD_CONFIG
    assert_one_line_error(capsys, word)


def test_a_problem_file_whose_factor_overflows_stops_before_any_solve(tmp_path, capsys, monkeypatch):
    # the kernel takes its SVD factors when it is built, so reading the
    # file refuses the factor: no level is assembled or solved
    d = problem_to_dict(paper_benchmark(75.0))
    _overflowing_poly_st(d)
    with pytest.raises(ValueError, match="singular value"):
        problem_from_dict(d)
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(d))
    solves = []
    monkeypatch.setattr(cli, "run_galerkin", lambda *a, **k: solves.append(a))
    code = cli.main(["convergence", "--method", "both", "--n-levels", "2", "--problem", str(pfile)])
    assert code == cli.EXIT_BAD_CONFIG and not solves
    assert_one_line_error(capsys, "singular value overflows")


def test_a_repeated_carrier_is_summed_not_overwritten(tmp_path):
    # the paper benchmark's e^{i*kappa*s} amplitude split into its constant and the rest
    merged = problem_to_dict(paper_benchmark(75.0))
    split = json.loads(json.dumps(merged))
    terms = split["rhs"]["terms"]
    (plus,) = [t for t in terms if t["tau"] == 1]
    terms += [{"tau": 1, "coeffs": [0.0, *plus["coeffs"][1:]]}]
    plus["coeffs"] = plus["coeffs"][:1]
    space = TrialSpace.opgm(SplineSpace(make_uniform_knots(16, 2)), 75.0)
    loads, rows = [], []
    for name, d in (("merged", merged), ("split", split)):
        loads.append(assemble_rhs(space, problem_from_dict(d).rhs))
        pfile, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        pfile.write_text(json.dumps(d))
        assert cli.main(["convergence", "--problem", str(pfile), "--method", "opgm", "--n-levels", "2",
                         "--out", str(out)]) == cli.EXIT_OK
        rows.append([ln.rsplit(",", 1)[0] for ln in out.read_text().splitlines()])
    assert np.array_equal(*loads)
    assert rows[0] == rows[1]


@pytest.mark.parametrize("terms", [[], [{"tau": 0, "coeffs": [0.0]}, {"tau": 1, "coeffs": [0.0, 0.0]}]],
                         ids=["no-terms", "zero-coefficients"])
def test_a_zero_exact_solution_is_refused_by_name(tmp_path, capsys, terms):
    # errors are relative to the exact solution: a zero one is refused when
    # the file is read, before any level is solved
    d = {"kappa": 50, "kernel": {"poly_st": [[1]]}, "rhs": {"terms": [{"tau": 0, "coeffs": [1]}]},
         "exact": {"terms": terms}}
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(d))
    assert cli.main(["convergence", "--problem", str(pfile), "--method", "cgm", "--n-levels", "2"]) == cli.EXIT_BAD_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: problem file: exact is zero") and err.count("\n") == 1, err


def _edited(edit):
    d = problem_to_dict(paper_benchmark(75.0))
    edit(d)
    return d


def _slots(node):
    """Every (container, key) pair inside a JSON value, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


_KAPPAS = st.floats(1.0, 1e308, exclude_min=True)
_COEFFS = st.floats(1e-320, 1e308) | st.floats(-1e308, -1e-320)
_JUNK = st.sampled_from([None, True, "x", [], {}, [1.0, 2.0, 3.0], -2])


@st.composite
def problem_files(draw):
    """The paper benchmark's problem file with one to three keys dropped, retyped or redrawn.

    Its own wavenumber stays below 1e300, where paper_benchmark's e^{2i kappa} is finite.
    """
    d = problem_to_dict(paper_benchmark(draw(st.floats(1.0, 1e300, exclude_min=True))))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(d))))
        action = draw(st.sampled_from(("drop", "swap", "redraw")))
        if action == "drop":
            del container[key]
        elif action == "swap":
            container[key] = draw(_JUNK)
        else:
            container[key] = draw(st.integers(-3, 3) if key == "tau" else _KAPPAS if key == "kappa" else _COEFFS)
    return d


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=problem_files())
@example(d=_edited(_overflowing_poly_st))
@example(d=_edited(_overflowing_rhs))
@example(d=_edited(lambda d: d.update(kappa=1e308)))
def test_any_problem_file_runs_or_fails_in_one_line(tmp_path, d):
    pfile = tmp_path / "prob.json"
    pfile.write_text(json.dumps(d))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["convergence", "--problem", str(pfile), "--n-levels", "2", "--method", "both"])
    assert code in (cli.EXIT_OK, cli.EXIT_BAD_CONFIG, cli.EXIT_SINGULAR)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


_FLAG_VALUES = {
    "--kappa": ["50", "1.5", "5e4", "1e300", "1", "0", "-3", "nan", "inf", "x"],
    "--method": ["cgm", "opgm", "both", "OPGM", "nystrom"],
    "--order": ["1", "2", "3", "0", "-1", "2.5", "x"],
    "--n-levels": ["1", "2", "0", "-1", "x"],
    "--format": ["csv", "json", "xml"],
}


@st.composite
def command_lines(draw):
    """A subcommand, or a misspelt one, with up to four flags drawn from _FLAG_VALUES.

    A convergence run always ends on --n-levels (at most two levels) and a
    sweep on --kappa (not the 80-solve default grid), so each stays short.
    """
    command = draw(st.sampled_from(["convergence", "sweep", "table1", "tabel1"]))
    flags = draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=4))
    flags += {"convergence": ["--n-levels"], "sweep": ["--kappa"]}.get(command, [])
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=command_lines())
@example(argv=["convergence", "--order", "x", "--n-levels", "2"])
@example(argv=["table1", "--order", "2"])
def test_any_command_line_runs_or_fails_in_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:               # the parser refused the command line
            code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_BAD_CONFIG, cli.EXIT_SINGULAR), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert code != cli.EXIT_BAD_CONFIG or err.getvalue().startswith("error: "), (argv, err.getvalue())


# ---------------------------------------------------------------------------
# python -m oscfred: the real entry point and exit path
# ---------------------------------------------------------------------------

def run_module(*argv):
    src = str(Path(oscfred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "oscfred", *argv], capture_output=True, text=True, env=env)


def test_module_entry_point_runs_a_sweep():
    proc = run_module("sweep", "--kappa", "400", "--method", "opgm")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "method,kappa,N,order,error,co,cond,seconds"
    assert len(lines) == 2 and lines[1].startswith("opgm,400,64,198,")


def test_module_entry_point_rejects_bad_input_in_one_line():
    # 1e308 passes the flag checks, but the load's e^{2i*kappa} overflows; 1e300 squared overflows in g_3
    for argv in (("sweep", "--kappa", "nan", "--method", "opgm"), ("sweep", "--kappa", "1e308", "--method", "opgm"),
                 ("table1", "--kappa", "1e300")):
        proc = run_module(*argv)
        assert proc.returncode == cli.EXIT_BAD_CONFIG
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
