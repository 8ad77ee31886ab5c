import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biquat
from biquat import algebra, harness
from biquat.cli import main as cli_main
from biquat.dirac import (PseudoscalarSplit, manufactured_split_solution,
                          pseudoscalar_split)
from biquat.grid import BQField, Grid3
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
    row = harness._order_check("t", "h2", grids, _h2_residual)
    assert row.passed and abs(row.observed_order - 2.0) < 1e-12
    assert row.h == grids[1].hmax and row.expected_order == 2.0
    assert row.linf == 3.7 * grids[1].hmax ** 2

    row = harness._order_check("t", "h1", grids, lambda g: _h2_residual(g, power=1))
    assert not row.passed and abs(row.observed_order - 1.0) < 1e-12

    # (field, scale): norms are taken relative to scale
    scaled = harness._order_check("t", "scaled", grids,
                                  lambda g: (_h2_residual(g) * 5.0, 5.0))
    assert scaled.passed and abs(scaled.observed_order - 2.0) < 1e-12
    assert abs(scaled.linf - 3.7 * grids[1].hmax ** 2) < 1e-15

    # a boundary spike stalls the order unless the window excludes it
    spiked = lambda g: _h2_residual(g, spike=True)
    assert not harness._order_check("t", "spike", grids, spiked).passed
    row = harness._order_check("t", "spike", grids, spiked, window=0.15)
    assert row.passed and abs(row.observed_order - 2.0) < 1e-12

    # residuals at the tolerance report the EXACT_ORDER sentinel and pass
    row = harness._order_check("t", "exact", grids, BQField.zeros)
    assert row.passed and row.observed_order == EXACT_ORDER and row.linf == 0.0


def test_run_suite_matches_benchmark_catalog():
    # the benchmark treats a renamed or reordered row as a wrong output
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog.json"
    catalog = [tuple(entry) for entry in json.loads(path.read_text())]
    rows = run_suite(SuiteConfig(suite="all", grids=(9, 17))).rows
    assert [(r.suite, r.check) for r in rows] == catalog


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
    fine = {key: split.part_residual(*key).linf() / max(man.linf(), 1.0)
            for key in split.parts}
    worst = max(fine.values())
    assert worst > fine[(1, 1)]
    row = _row(cfg, "ps_part_equations_order")
    assert row.passed and row.linf == worst

    # a failing part that is not the worst still fails the row
    original = PseudoscalarSplit.part_residual

    def degraded(self, p_sign, s_sign):
        res = original(self, p_sign, s_sign)
        fine_grid = res.grid.shape[0] == 33
        return 2.0 * res if (p_sign, s_sign) == (1, 1) and fine_grid else res

    monkeypatch.setattr(PseudoscalarSplit, "part_residual", degraded)
    row = _row(cfg, "ps_part_equations_order")
    assert not row.passed and row.linf == worst


def test_zero_divisor_misclassification_fails_row_not_linf(monkeypatch):
    monkeypatch.setattr(algebra, "is_zero_divisor", lambda q, tol=1e-12: False)
    row = _row(SuiteConfig(suite="algebra"), "zero_divisor_criterion")
    assert not row.passed
    assert row.linf == row.l2 <= 1e-12


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


def test_cli_rejects_negative_seed(tmp_path):
    out = tmp_path / "rep.csv"
    assert cli_main(["forcefree", "--grid", "9,17", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_suite_exception_becomes_fail_row(tmp_path, monkeypatch):
    def broken(cfg):
        raise ValueError("synthetic numerical failure")

    monkeypatch.setattr(harness, "SUITES", {"algebra": harness.check_algebra,
                                            "calculus": broken,
                                            "forcefree": harness.check_forcefree})
    rows = run_suite(SuiteConfig(suite="all", grids=(9, 17))).rows
    raised = [r for r in rows if r.suite == "calculus"]
    assert [(r.check, r.passed) for r in raised] == [("raised_ValueError", False)]
    assert {r.suite for r in rows} == {"algebra", "calculus", "forcefree"}

    out = tmp_path / "rep.csv"
    assert cli_main(["all", "--grid", "9,17", "--out", str(out)]) == 1
    assert "calculus,raised_ValueError," in out.read_text()
