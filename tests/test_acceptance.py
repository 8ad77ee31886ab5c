"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (one PASSED/FAILED line per
criterion) or `-s` to see the explicit ACCEPTANCE lines as well.
"""

import hashlib
import time

import pytest

from biquat.harness import ORDER_WINDOW, SuiteConfig, run_suite

# sha256 of the `verify all --seed 1234` CSV at the default grids: a change
# that leaves the numerics alone keeps it; a change to any row updates it
REPORT_SHA256 = "43b9586a3cf92dfadae3ebe26387370416b8155235da0641671f534a9e3ce02a"


@pytest.fixture(scope="module")
def full_report():
    cfg = SuiteConfig(suite="all")  # default grids (17, 33), seed 1234
    t0 = time.perf_counter()
    report = run_suite(cfg)
    report.wall_time = time.perf_counter() - t0
    return report


def _rows(report, suite):
    rows = {r.check: r for r in report.rows if r.suite == suite}
    assert rows, f"suite {suite} produced no rows"
    return rows


def _announce(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _order_ok(row):
    if row.observed_order == "exact":
        return True
    return ORDER_WINDOW[0] <= row.observed_order <= ORDER_WINDOW[1]


def test_criterion_1_algebra_identities_and_runtime():
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig(suite="algebra"))
    elapsed = time.perf_counter() - t0
    rows = _rows(report, "algebra")
    needed = ("mul_table", "conj_antihomomorphism", "involution_identities",
              "zero_divisor_criterion", "p_projectors", "s_projectors",
              "s_rejects_zero_divisor", "axial_operator_identities")
    ok = all(rows[n].passed for n in needed) and elapsed < 1.0
    _announce(1, ok, f"algebra identities at 1e-12, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_first_order_operator_and_runtime():
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig(suite="calculus"))
    elapsed = time.perf_counter() - t0
    rows = _rows(report, "calculus")
    ok = (rows["sc_vec_decomposition"].passed
          and rows["dd_plus_laplacian_order"].passed
          and _order_ok(rows["dd_plus_laplacian_order"])
          and elapsed < 10.0)
    detail = (f"Sc/Vec split exact, D^2+lap order "
              f"{rows['dd_plus_laplacian_order'].observed_order}, "
              f"runtime {elapsed:.2f}s < 10s")
    _announce(2, ok, detail)


def test_criterion_3_dirac_bridge(full_report):
    rows = _rows(full_report, "dirac")
    ok = (rows["transform_roundtrip"].passed
          and rows["intertwining_scalar"].passed
          and rows["intertwining_electric"].passed
          and rows["ps_recombination"].passed
          and rows["ps_operator_identity"].passed
          and rows["ps_part_equations_order"].passed
          and _order_ok(rows["ps_part_equations_order"]))
    detail = (f"roundtrip {rows['transform_roundtrip'].linf:.1e}, "
              f"intertwining {max(rows['intertwining_scalar'].linf, rows['intertwining_electric'].linf):.1e}, "
              f"part order {rows['ps_part_equations_order'].observed_order}")
    _announce(3, ok, detail)


def test_criterion_4_closed_form_fixtures(full_report):
    rows = _rows(full_report, "factorization")
    ok = (rows["reciprocal_zero_potential"].passed
          and rows["reciprocal_printed_potentials"].passed
          and rows["closed_form_first_order"].passed
          and rows["closed_form_schrodinger_v"].passed
          and rows["closed_form_grid_order"].passed
          and _order_ok(rows["closed_form_grid_order"]))
    detail = (f"printed potentials {rows['reciprocal_printed_potentials'].linf:.1e}, "
              f"analytic eq {rows['closed_form_first_order'].linf:.1e}, "
              f"grid order {rows['closed_form_grid_order'].observed_order}")
    _announce(4, ok, detail)


def test_criterion_5_factorization_identities(full_report):
    rows = _rows(full_report, "factorization")
    ok = (rows["scalar_factorization_order"].passed and _order_ok(rows["scalar_factorization_order"])
          and rows["scalar_factorization_quadratic"].passed
          and rows["component_factorization_quadratic"].passed
          and rows["component_factorization_order"].passed
          and rows["closed_form_schrodinger_w"].passed)
    detail = (f"scalar factorization order {rows['scalar_factorization_order'].observed_order}, "
              f"constant-quadratic {rows['scalar_factorization_quadratic'].linf:.1e}, "
              f"component eqs {rows['closed_form_schrodinger_w'].linf:.1e}")
    _announce(5, ok, detail)


def test_criterion_6_right_inverse(full_report):
    rows = _rows(full_report, "right-inverse")
    ok = (rows["constant_alpha_order"].passed
          and _order_ok(rows["constant_alpha_order"])
          and rows["separable_alpha_order"].passed
          and _order_ok(rows["separable_alpha_order"])
          and rows["random_rhs_bound"].passed)
    detail = (f"orders {rows['constant_alpha_order'].observed_order} / "
              f"{rows['separable_alpha_order'].observed_order}, "
              f"solver residual <= 1e-10 enforced in-check")
    _announce(6, ok, detail)


def test_criterion_7_physics_models(full_report):
    ff = _rows(full_report, "forcefree")
    mx = _rows(full_report, "maxwell")
    ok = (ff["split_identity_random"].passed
          and ff["beltrami_residual_order"].passed and _order_ok(ff["beltrami_residual_order"])
          and mx["diagonalization_roundtrip"].passed
          and mx["helmholtz_order"].passed and _order_ok(mx["helmholtz_order"])
          and mx["static_manufactured_order"].passed
          and _order_ok(mx["static_manufactured_order"]))
    detail = (f"split identity {ff['split_identity_random'].linf:.1e}, "
              f"Beltrami order {ff['beltrami_residual_order'].observed_order}, "
              f"Helmholtz order {mx['helmholtz_order'].observed_order}, "
              f"static order {mx['static_manufactured_order'].observed_order}")
    _announce(7, ok, detail)


def test_criterion_8_axial_suite(full_report):
    rows = _rows(full_report, "axial")
    ok = (rows["q_split_identity"].passed
          and rows["pi_correspondence_order"].passed
          and rows["conjugate_pair_order"].passed
          and rows["reduction_classification"].passed
          and rows["reduction_case_i_exact"].passed
          and rows["reduction_case_ii_order"].passed and _order_ok(rows["reduction_case_ii_order"])
          and rows["reduction_case_iii_order"].passed and _order_ok(rows["reduction_case_iii_order"]))
    detail = (f"Q split {rows['q_split_identity'].linf:.1e}, "
              f"case i exact {rows['reduction_case_i_exact'].linf:.1e}, "
              f"case ii/iii orders {rows['reduction_case_ii_order'].observed_order} / "
              f"{rows['reduction_case_iii_order'].observed_order}")
    _announce(8, ok, detail)


def test_full_suite_green_within_wall_target(full_report):
    # every catalog row must pass: this is the test of each row's claim
    failing = [f"{r.suite}/{r.check}" for r in full_report.rows if not r.passed]
    ok = not failing and full_report.wall_time < 30.0
    _announce("all", ok,
              f"{full_report.n_pass} checks pass, wall {full_report.wall_time:.1f}s < 30s"
              + (f"; failing: {', '.join(failing)}" if failing else ""))


def test_report_csv_byte_identical(full_report, tmp_path):
    path = tmp_path / "report.csv"
    full_report.write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256
