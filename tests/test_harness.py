import json
import logging
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import biquat
from biquat import algebra, dirac, factorization, grid, harness
from biquat.cli import main as cli_main
from biquat.dirac import manufactured_split_solution, pseudoscalar_split
from biquat.grid import BQField, Grid3, RightSplit
from biquat.harness import (CSV_COLUMNS, EXACT_ORDER, SuiteConfig,
                            convergence_order, run_suite)


def _row(cfg, check):
    return next(r for r in run_suite(cfg).rows if r.check == check)


def test_convergence_order_clean_halving():
    c = 3.7
    assert abs(convergence_order((0.1, c * 0.1 ** 2), (0.05, c * 0.05 ** 2)) - 2.0) < 1e-12


def test_convergence_order_exact_sentinel():
    assert convergence_order((0.1, 1e-14), (0.05, 0.0)) == EXACT_ORDER


def test_convergence_order_example_value():
    o = convergence_order((0.1, 1e-3), (0.05, 2.6e-4))
    assert abs(o - math.log(1e-3 / 2.6e-4, 2)) < 1e-12
    assert abs(o - 1.94) < 0.01


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order((0.05, 1.0), (0.1, 0.5))
    with pytest.raises(ValueError):
        convergence_order((0.1, -1.0), (0.05, 0.5))


def _h2_residual(g, power=2, spike=False):
    """c * h**power at every node; spike puts a non-converging 1.0 on the
    x1 = lo face."""
    data = np.full((4,) + g.shape, 3.7 * g.hmax ** power, dtype=complex)
    if spike:
        data[:, 0] = 1.0
    return BQField(g, data)


def test_order_check_manufactured_residuals():
    cfg = SuiteConfig(grids=(9, 17))
    grids = cfg.grid_pair()
    row = harness._order_check("h2", grids, _h2_residual)
    assert row.passed and abs(row.observed_order - 2.0) < 1e-12
    assert row.h == grids[1].hmax and row.expected_order == 2.0
    assert row.linf == 3.7 * grids[1].hmax ** 2

    row = harness._order_check("h1", grids, lambda g: _h2_residual(g, power=1))
    assert not row.passed and abs(row.observed_order - 1.0) < 1e-12

    # (field, scale): norms are taken relative to scale
    scaled = harness._order_check("scaled", grids,
                                  lambda g: (_h2_residual(g) * 5.0, 5.0))
    assert scaled.passed and abs(scaled.observed_order - 2.0) < 1e-12
    assert abs(scaled.linf - 3.7 * grids[1].hmax ** 2) < 1e-15

    # a boundary spike stalls the order unless the window excludes it
    spiked = lambda g: _h2_residual(g, spike=True)
    assert not harness._order_check("spike", grids, spiked).passed
    row = harness._order_check("spike", grids, spiked, window=0.15)
    assert row.passed and abs(row.observed_order - 2.0) < 1e-12

    # residuals at the tolerance report the EXACT_ORDER sentinel and pass
    row = harness._order_check("exact", grids, BQField.zeros)
    assert row.passed and row.observed_order == EXACT_ORDER and row.linf == 0.0


def test_eval_modes_matches_exp_of_sum():
    # a different spacing on each axis and every |k_j| = 2, so a swapped
    # axis or a flipped sign in the 1-D factors shows
    g = Grid3.box((0.0, -1.0, 0.5), (1.0, 2.0, 2.5), 9)
    modes = [(np.array([2.0, -2.0, 2.0]), 0.3 - 1.1j),
             (np.array([-2.0, 2.0, 2.0]), -0.7 + 0.4j),
             (np.array([2.0, 2.0, -2.0]), 1.2 + 0.5j)]
    x1, x2, x3 = g.mesh()
    want = sum(c * np.exp(1j * (k[0] * x1 + k[1] * x2 + k[2] * x3))
               for k, c in modes)
    got = harness._eval_modes(g, modes)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_run_suite_matches_benchmark_catalog(full_report):
    # the benchmark treats a renamed or reordered row as a wrong output
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog.json"
    catalog = [tuple(entry) for entry in json.loads(path.read_text())]
    assert [(r.suite, r.check) for r in full_report.rows] == catalog


def test_basis_rows_read_exactly_zero(full_report):
    # multilinear identities proved on the basis, and the axial maps on
    # Gaussian-integer data: no rounding, so each row reads exactly 0
    exact = {"mul_table", "identity_element", "associativity", "conj_antihomomorphism",
             "involution_identities", "norm_product", "p_projectors",
             "axial_operator_identities"}
    rows = [r for r in full_report.rows if r.suite == "algebra" and r.check in exact]
    assert {r.check for r in rows} == exact
    assert all(r.passed and r.linf == r.l2 == 0.0 for r in rows)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(SuiteConfig(suite="bogus"))


def test_report_deterministic_bytes(tmp_path):
    cfg = SuiteConfig(suite="forcefree", grids=(9, 17), seed=99)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_suite(cfg).write_csv(p1)
    run_suite(cfg).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_csv_schema(tmp_path):
    cfg = SuiteConfig(suite="algebra")
    rep = run_suite(cfg)
    path = tmp_path / "r.csv"
    rep.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rep.rows)
    for line in lines[1:]:
        assert line.split(",")[-1] in ("pass", "FAIL")


def test_cli_pass_and_report(tmp_path):
    out = tmp_path / "rep.csv"
    code = cli_main(["algebra", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    code = cli_main(["forcefree", "--grid", "9,17", "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_fail"] == 0
    assert set(payload["rows"][0]) == set(CSV_COLUMNS)


def test_cli_grid_and_seed_override(tmp_path):
    out = tmp_path / "rep.csv"
    assert cli_main(["forcefree", "--grid", "9,17", "--seed", "5",
                     "--out", str(out)]) == 0


def test_cli_unwritable_report_usage_error(tmp_path, monkeypatch, capsys):
    # the report path is checked before any suite runs
    ran = []
    monkeypatch.setattr("biquat.cli.run_suite", lambda cfg: ran.append(cfg))
    out = tmp_path / "missing_dir" / "r.csv"
    assert cli_main(["algebra", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verify: cannot write report: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert ran == []


def test_cli_unknown_suite_usage_error():
    # the child imports biquat from wherever this process found it
    src = os.path.dirname(os.path.dirname(biquat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "biquat", "bogus"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    # an impossible tolerance forces rounding-level residuals to fail, the
    # exit code flips to 1, and the report is still written
    monkeypatch.setattr(harness, "TOL", 1e-30)
    out = tmp_path / "rep.csv"
    code = cli_main(["algebra", "--out", str(out)])
    assert code == 1
    assert out.exists()
    body = out.read_text()
    assert "FAIL" in body


def test_ps_part_equations_order_reports_worst_part(monkeypatch):
    cfg = SuiteConfig(suite="dirac", grids=(17, 33))
    # the four parts' fine-grid relative residuals, as the dirac suite builds them
    g = Grid3.box((1.0, 1.0, -0.5), (2.0, 2.0, 0.5), 33)
    nu, beta = 0.4 - 0.2j, harness.DIRAC_BETA
    man = manufactured_split_solution(g, nu, beta)
    split = pseudoscalar_split(man, nu, beta)
    fine = {key: split.part_residual(key).linf() / max(man.linf(), 1.0)
            for key in split.parts}
    worst = max(fine.values())
    assert worst > fine[(1, 1)]
    row = _row(cfg, "ps_part_equations_order")
    assert row.passed and row.linf == worst

    # a failing part that is not the worst still fails the row
    original = RightSplit.part_residual

    def degraded(self, key):
        res = original(self, key)
        fine_grid = res.grid.shape[0] == 33
        return 2.0 * res if key == (1, 1) and fine_grid else res

    monkeypatch.setattr(RightSplit, "part_residual", degraded)
    row = _row(cfg, "ps_part_equations_order")
    assert not row.passed and row.linf == worst


def test_zero_divisor_misclassification_fails_row_not_linf(monkeypatch):
    monkeypatch.setattr(algebra, "is_zero_divisor", lambda q, tol=1e-12: False)
    row = _row(SuiteConfig(suite="algebra"), "zero_divisor_criterion")
    assert not row.passed
    assert row.linf == row.l2 <= 1e-12


def test_scalar_part_draw_without_scalar_part_fails_its_row(monkeypatch, tmp_path):
    # a draw whose scalar part is zero leaves the row untested: it must read
    # FAIL in a written report, under python -O too, not escape the suite
    smooth = harness._smooth_bq

    def no_scalar(grid, rng):
        f = smooth(grid, rng)
        f.data[0] = 0.0
        return f

    monkeypatch.setattr(harness, "_smooth_bq", no_scalar)
    out = tmp_path / "rep.csv"
    assert cli_main(["forcefree", "--grid", "9,17", "--out", str(out)]) == 1
    failing = [line.split(",")[1] for line in out.read_text().splitlines()
               if line.endswith(",FAIL")]
    assert failing == ["scalar_part_accepted"]


def test_accepted_zero_divisor_fails_its_row(monkeypatch):
    # a splitting that accepts the zero divisor -(i e1 + e2), and only it
    split = algebra.split_projectors
    zero_divisor = algebra.Biquaternion.vector(-1j, -1.0, 0.0)

    def accepting(beta):
        if np.array_equal(beta.components, zero_divisor.components):
            return algebra.ProjectorPair(lam=0.0, plus=beta, minus=beta)
        return split(beta)

    monkeypatch.setattr(algebra, "split_projectors", accepting)
    assert not _row(SuiteConfig(suite="algebra"), "s_rejects_zero_divisor").passed


@pytest.mark.parametrize("factor", [0.3, 3.0])
def test_zero_divisor_row_pins_the_classifier_threshold(monkeypatch, factor):
    # elements at half and at twice the threshold from the set catch a
    # classifier whose threshold is off by a factor of 3 either way
    cfg = SuiteConfig(suite="algebra")
    assert _row(cfg, "zero_divisor_criterion").passed
    exact = algebra.is_zero_divisor
    monkeypatch.setattr(algebra, "is_zero_divisor",
                        lambda q, tol=1e-12: exact(q, tol=factor * tol))
    assert not _row(cfg, "zero_divisor_criterion").passed


@pytest.mark.parametrize("kwargs", [
    {"suite": "bogus"},
    {"grids": (17,)},
    {"grids": (17, 33, 65)},
    {"grids": (17, 30)},
    {"grids": (3, 5)},
    {"grids": (17.0, 33.0)},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": True},
    {"seed": "5"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SuiteConfig(**kwargs)


@pytest.mark.parametrize("grid", ["17", "17,30", "17,33,65", "3,5"])
def test_cli_rejects_bad_grids(tmp_path, grid):
    out = tmp_path / "rep.csv"
    assert cli_main(["forcefree", "--grid", grid, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_rejects_non_integer_grid(tmp_path):
    out = tmp_path / "rep.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["all", "--grid", "17,x", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_rejects_negative_seed(tmp_path):
    out = tmp_path / "rep.csv"
    assert cli_main(["forcefree", "--grid", "9,17", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_nan_gamma_matrix_fails_gamma_relations(monkeypatch):
    monkeypatch.setattr(dirac, "G5", np.full((4, 4), np.nan))
    row = _row(SuiteConfig(suite="dirac", grids=(9, 17)), "gamma_relations")
    assert not row.passed and math.isnan(row.linf)


def test_nan_pseudoscalar_nu_fails_equivalent_alpha_formulas(monkeypatch):
    original = dirac.equivalent_alpha

    def nan_nu(params, grid):
        out = original(params, grid)
        if params.kind == "pseudoscalar":
            out.data[0] = np.nan
        return out

    monkeypatch.setattr(dirac, "equivalent_alpha", nan_nu)
    row = _row(SuiteConfig(suite="dirac", grids=(9, 17)), "equivalent_alpha_formulas")
    assert not row.passed and math.isnan(row.linf)


@pytest.mark.parametrize("kind", ["scalar", "electric"])
def test_nan_node_of_alpha_fails_equivalent_alpha_formulas(monkeypatch, kind):
    original = dirac.equivalent_alpha

    def nan_node(params, grid):
        out = original(params, grid)
        if params.kind == kind:
            out.data[2, 4, 4, 4] = np.nan
        return out

    monkeypatch.setattr(dirac, "equivalent_alpha", nan_node)
    row = _row(SuiteConfig(suite="dirac", grids=(9, 17)), "equivalent_alpha_formulas")
    assert not row.passed and math.isnan(row.linf)


def test_solver_rejection_becomes_the_right_inverse_fail_row(monkeypatch):
    # right_inverse raises on a component residual above _SOLVER_TOL; the
    # suite then reports that one row
    monkeypatch.setattr(factorization, "_SOLVER_TOL", 0.0)
    rows = run_suite(SuiteConfig(suite="right-inverse", grids=(9, 17))).rows
    assert [(r.suite, r.check, r.passed) for r in rows] == [
        ("right-inverse", "raised_ValueError", False)]


def test_suite_exception_becomes_fail_row(tmp_path, monkeypatch, caplog):
    def broken(cfg):
        raise ValueError("synthetic numerical failure")

    monkeypatch.setattr(harness, "SUITES", {"algebra": harness.check_algebra,
                                            "calculus": broken,
                                            "forcefree": harness.check_forcefree})
    # inline, then in forked workers: the message is logged in the caller
    for cpus in (1, 2):
        monkeypatch.setattr(grid, "_cpus", lambda: cpus)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="biquat.harness"):
            rows = run_suite(SuiteConfig(suite="all", grids=(9, 17))).rows
        raised = [r for r in rows if r.suite == "calculus"]
        assert [(r.check, r.passed) for r in raised] == [("raised_ValueError", False)]
        assert list(dict.fromkeys(r.suite for r in rows)) == ["algebra", "calculus",
                                                              "forcefree"]
        assert "suite calculus raised ValueError: synthetic numerical failure" in caplog.text

    out = tmp_path / "rep.csv"
    assert cli_main(["all", "--grid", "9,17", "--out", str(out)]) == 1
    assert "calculus,raised_ValueError," in out.read_text()


@pytest.mark.parametrize("cpus", [1, 2])
def test_suite_type_error_propagates(cpus, monkeypatch):
    def broken(cfg):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(grid, "_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "SUITES", {"algebra": harness.check_algebra,
                                            "calculus": broken})
    with pytest.raises(TypeError, match="synthetic programming error"):
        run_suite(SuiteConfig(suite="all", grids=(9, 17)))


def test_all_suites_same_rows_inline_and_forked(monkeypatch):
    cfg = SuiteConfig(suite="all", grids=(9, 17))
    cells = {}
    for cpus in (1, 2):
        monkeypatch.setattr(grid, "_cpus", lambda: cpus)
        cells[cpus] = [r.csv_cells() for r in run_suite(cfg).rows]
    assert len(cells[1]) == 79 and cells[1] == cells[2]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_all_deals_suites_to_forked_workers(cpus, monkeypatch):
    def pid_row(cfg):
        return [harness._exact_row("pid", 0.0, value_l2=float(os.getpid()))]

    monkeypatch.setattr(grid, "_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "SUITES", {"algebra": pid_row, "calculus": pid_row,
                                            "dirac": pid_row})
    rows = run_suite(SuiteConfig(suite="all", grids=(9, 17))).rows
    assert [r.suite for r in rows] == ["algebra", "calculus", "dirac"]
    pids = {int(r.l2) for r in rows}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and 1 <= len(pids) <= cpus
    # one named suite always runs inline
    rows = run_suite(SuiteConfig(suite="calculus", grids=(9, 17))).rows
    assert [int(r.l2) for r in rows] == [os.getpid()]


def _gone(pid):
    """True once pid has exited; a zombie counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_exit_when_the_caller_is_killed(tmp_path):
    # each worker stalls in its suite after writing its pid; the caller is
    # then killed, and the workers must not outlive it
    script = textwrap.dedent(f"""
        import os, time
        from biquat import grid, harness
        grid._cpus = lambda: 2
        def stall(cfg):
            open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
            time.sleep(60)
        harness.SUITES = {{"algebra": stall, "calculus": stall}}
        harness.run_suite(harness.SuiteConfig(grids=(9, 17)))
    """)
    src = os.path.dirname(os.path.dirname(biquat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 30
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = [int(f.name) for f in tmp_path.iterdir()]
    finally:
        proc.kill()
        proc.wait()
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if not _gone(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
