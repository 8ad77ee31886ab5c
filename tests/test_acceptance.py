"""Acceptance gate: the algebra and calculus suites within their runtime
bounds, every row of `verify all` passing, its CSV hashes pinned at
seeds 1234 and 101, and the hashes of `verify maxwell`, `verify dirac`,
`verify forcefree` and `verify factorization` at `--grid 33,65`.  Each
gate prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (one PASSED/FAILED line per
gate) or `-s` to see the explicit ACCEPTANCE lines as well.
"""

import hashlib

import pytest

from biquat import grid
from biquat.harness import SuiteConfig, run_suite

# sha256 of the `verify all --seed 1234` CSV at the default grids: a change
# that leaves the numerics alone keeps it; a change to any row updates it
REPORT_SHA256 = "639f76a9ea691e22552afaee98338b6e51ea950846e444193ce2ca6ba3bab55d"
# the same for `verify all --seed 101`, the second seed a refactor is held to
SEED_101_SHA256 = "ee5b16f4c13914d2792ec2f2375172ad24be524d041038c978b78c778b47734c"
# the same for `verify maxwell --grid 33,65` at seed 1234: every kernel call
# at (17, 33) runs inline, while the 65^3 ones split across CPUs
MAXWELL_FINE_SHA256 = "16370f9e2f4f73525b06817a1cf4fb718250b7cf61ca62d45fff6def629dab0a"
# the same for `verify dirac --grid 33,65`, whose 65^3 transforms, split
# parts and kernels split across CPUs
DIRAC_FINE_SHA256 = "bad57e1d9678ddee3fd9830c34f9fec64df9b6dd7974e809470e46455a5ce00b"
# the same for `verify forcefree --grid 33,65` and `verify factorization
# --grid 33,65`
FORCEFREE_FINE_SHA256 = "5a3c9db1d279ec2f28dbe9a71e272b7c85a7c1763c05f7353d224d14902deec9"
FACTORIZATION_FINE_SHA256 = "78c54bcb475875e10f511df06842819cb85424f11b14c3f89a436358ceb8c883"


def _announce(criterion, report, max_seconds):
    """Pass when the report has rows, every row passes, and the run took
    less than max_seconds; the line names each failing suite/check."""
    failing = [f"{r.suite}/{r.check}" for r in report.rows if not r.passed]
    ok = bool(report.rows) and not failing and report.wall_time < max_seconds
    detail = (f"{report.n_pass} checks pass, wall {report.wall_time:.2f}s < {max_seconds}s"
              + (f"; failing: {', '.join(failing)}" if failing else ""))
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_algebra_identities_and_runtime():
    _announce(1, run_suite(SuiteConfig(suite="algebra")), 1.0)


def test_criterion_2_first_order_operator_and_runtime():
    _announce(2, run_suite(SuiteConfig(suite="calculus")), 10.0)


def test_full_suite_green_within_wall_target(full_report):
    # every catalog row must pass: this is the test of each row's claim
    _announce("all", full_report, 30.0)


@pytest.mark.parametrize("seed, digest", [(1234, REPORT_SHA256), (101, SEED_101_SHA256)],
                         ids=["seed1234", "seed101"])
def test_report_csv_byte_identical(seed, digest, full_report, tmp_path):
    # the session's full report is seed 1234's; seed 101 runs here
    report = full_report if seed == 1234 else run_suite(SuiteConfig(suite="all", seed=seed))
    path = tmp_path / "report.csv"
    report.write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _fine_report_sha256(suite, monkeypatch, tmp_path):
    # two CPUs, so the 65^3 calls split on any host
    monkeypatch.setattr(grid, "_cpus", lambda: 2)
    report = run_suite(SuiteConfig(suite=suite, grids=(33, 65)))
    path = tmp_path / "report.csv"
    report.write_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fine_maxwell_report_csv_byte_identical(monkeypatch, tmp_path):
    assert _fine_report_sha256("maxwell", monkeypatch, tmp_path) == MAXWELL_FINE_SHA256


def test_fine_dirac_report_csv_byte_identical(monkeypatch, tmp_path):
    assert _fine_report_sha256("dirac", monkeypatch, tmp_path) == DIRAC_FINE_SHA256


def test_fine_forcefree_report_csv_byte_identical(monkeypatch, tmp_path):
    assert _fine_report_sha256("forcefree", monkeypatch, tmp_path) == FORCEFREE_FINE_SHA256


def test_fine_factorization_report_csv_byte_identical(monkeypatch, tmp_path):
    assert (_fine_report_sha256("factorization", monkeypatch, tmp_path)
            == FACTORIZATION_FINE_SHA256)
