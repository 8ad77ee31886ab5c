import logging
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sla

from biquat.alpha import (axial_alpha, constant_alpha, gradient_alpha,
                          reciprocal_alpha, separable_alpha)
from biquat.factorization import (build_solution, factorization_residual,
                                  one_component_family, potentials,
                                  riccati_residual, right_inverse)
from biquat.grid import BQField, Grid3, linf, nabla_alpha
from biquat.harness import _windowed

TOL = 1e-12


def box(n=9):
    return Grid3.box(1.0, 2.0, n)


def order_between(errs, lo=1.7, hi=2.3):
    o = math.log(errs[0] / errs[1], 2)
    assert lo <= o <= hi, f"observed order {o}"


# ------------------------------------------------------------------
# Riccati balance
# ------------------------------------------------------------------

def test_riccati_zero_alpha():
    g = box()
    res = riccati_residual(constant_alpha(0, 0, 0), 0.0, g)
    assert res.linf() == 0.0


def test_riccati_gradient_of_x1():
    g = box()
    alf = gradient_alpha(lambda a, b, c: a,
                         grad_phi=(lambda a, b, c: np.ones_like(a),
                                   lambda a, b, c: np.zeros_like(a),
                                   lambda a, b, c: np.zeros_like(a)),
                         lap_phi=lambda a, b, c: np.zeros_like(a))
    # alpha = e1/x1 solves the balance with v = 0
    x1 = g.mesh()[0]
    assert linf(alf.vector_field(g).data[1] - 1.0 / x1) <= TOL
    assert riccati_residual(alf, 0.0, g).linf() <= TOL


def test_riccati_gradient_pairs_with_laplacian_quotient():
    g = box()
    phi = lambda a, b, c: np.exp(a) * np.cos(b)
    alf = gradient_alpha(
        phi,
        grad_phi=(lambda a, b, c: np.exp(a) * np.cos(b),
                  lambda a, b, c: -np.exp(a) * np.sin(b),
                  lambda a, b, c: np.zeros_like(a)),
        lap_phi=lambda a, b, c: np.zeros_like(a))
    v = alf.schrodinger_potential(g)
    assert riccati_residual(alf, v, g).linf() <= TOL * max(1.0, linf(alf.alpha_sq(g)))


def test_riccati_vector_part_is_curl():
    g = box()
    # curl(x2 e2) = 0 even though alpha is not constant; central differences
    # are exact on the linear factor, so the spec without derivative
    # callables agrees with the one that has them
    alf = separable_alpha(0.0, lambda x: x, 0.0,
                          derivs=(None, lambda x: np.ones_like(x), None))
    alf_numeric = separable_alpha(0.0, lambda x: x, 0.0)
    assert alf.has_exact_derivatives() and not alf_numeric.has_exact_derivatives()
    numeric = riccati_residual(alf_numeric, 0.0, g)
    analytic = riccati_residual(alf, 0.0, g)
    assert (numeric - analytic).linf() <= TOL
    # a non-gradient alpha has curl in the vector slot of the residual
    alf2 = axial_alpha(lambda a, b, c: b + 0j, 0.0, 0.0,
                       grad_a1=(lambda *x: np.zeros_like(x[0]),
                                lambda *x: np.ones_like(x[0]),
                                lambda *x: np.zeros_like(x[0])))
    res2 = riccati_residual(alf2, 0.0, g)
    # D(x2 e1) = -e3: curl part nonzero, so the residual vector slot is too
    assert linf(res2.data[3] + 1.0) <= TOL


def test_d_alpha_exact_or_numeric_for_every_kind():
    # each spec kind, with and without derivative callables: d_alpha is a
    # field, exact when has_exact_derivatives(), else central differences
    # that agree with it at O(h^2) on the interior
    zeros = lambda *x: np.zeros_like(x[0])
    pairs = (
        (reciprocal_alpha(), separable_alpha(*reciprocal_alpha().funcs)),
        (axial_alpha(lambda a, b, c: np.sin(b) * c + 0j, 0.5, 0.0,
                     grad_a1=(zeros, lambda a, b, c: np.cos(b) * c,
                              lambda a, b, c: np.sin(b))),
         axial_alpha(lambda a, b, c: np.sin(b) * c + 0j, 0.5, 0.0)),
        (gradient_alpha(lambda a, b, c: np.exp(a) * np.cos(b / 2),
                        grad_phi=(lambda a, b, c: np.exp(a) * np.cos(b / 2),
                                  lambda a, b, c: -0.5 * np.exp(a) * np.sin(b / 2), zeros),
                        lap_phi=lambda a, b, c: 0.75 * np.exp(a) * np.cos(b / 2)),
         gradient_alpha(lambda a, b, c: np.exp(a) * np.cos(b / 2))),
    )
    for exact, numeric in pairs:
        assert exact.has_exact_derivatives() and not numeric.has_exact_derivatives()
        errs = []
        for n in (33, 65):
            g = box(n)
            d_exact, d_numeric = exact.d_alpha(g), numeric.d_alpha(g)
            assert isinstance(d_exact, BQField) and isinstance(d_numeric, BQField)
            assert np.all(np.isfinite(d_exact.data))
            errs.append((d_numeric - d_exact).linf())
        order_between(errs)


# ------------------------------------------------------------------
# scalar factorization
# ------------------------------------------------------------------

def test_factorization_zero_function():
    g = box()
    alf = constant_alpha(1j, 0.0, 0.0)
    res, _ = factorization_residual(alf, 0.0, -1.0, g)
    assert res.linf() == 0.0


def test_factorization_checks_riccati_precondition():
    g = box()
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="Riccati"):
        factorization_residual(alf, lambda a, b, c: a, 5.0, g)


# ------------------------------------------------------------------
# potentials
# ------------------------------------------------------------------

def test_potentials_reciprocal_printed_forms():
    g = box()
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    pots = potentials(alf, g)
    x1, x2, x3 = g.mesh()
    assert linf(pots.v[0]) <= TOL
    assert linf(pots.v[1] - 2.0 * (1.0 / x2 ** 2 + 1.0 / x3 ** 2)) <= TOL * 10
    assert linf(pots.v[2] - 2.0 * (1.0 / x1 ** 2 + 1.0 / x3 ** 2)) <= TOL * 10
    assert linf(pots.v[3] - 2.0 * (1.0 / x1 ** 2 + 1.0 / x2 ** 2)) <= TOL * 10
    assert pots.pairing_defect() <= TOL * max(1.0, linf(pots.alpha_sq))


def test_potentials_zero_alpha():
    g = box()
    pots = potentials(constant_alpha(0, 0, 0), g)
    for k in range(4):
        assert linf(pots.v[k]) == 0.0
        assert linf(pots.w[k]) == 0.0


def test_potentials_constant_imaginary_alpha():
    g = box()
    m = 2.0
    pots = potentials(constant_alpha(1j * m, 0.0, 0.0), g)
    for k in range(4):
        assert linf(pots.v[k] + m ** 2) <= TOL * m ** 2
        assert linf(pots.w[k] + m ** 2) <= TOL * m ** 2


def test_potentials_reject_non_separable():
    g = box()
    alf = axial_alpha(lambda a, b, c: b + 0j, 0.0, 0.0)
    with pytest.raises(ValueError, match="separable"):
        potentials(alf, g)


# ------------------------------------------------------------------
# closed-form family
# ------------------------------------------------------------------

def test_family_reciprocal_printed_solutions():
    g = box()
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    fam = one_component_family(alf)
    x1, x2, x3 = g.mesh()
    assert linf(fam.f_values(g, 0) - 1.0 / (x1 * x2 * x3)) <= TOL * 10
    assert linf(fam.f_values(g, 1) - x2 * x3 / x1) <= TOL * 10
    assert linf(fam.f_values(g, 2) - x1 * x3 / x2) <= TOL * 10
    assert linf(fam.f_values(g, 3) - x1 * x2 / x3) <= TOL * 10
    assert linf(fam.phi_values(g, 0) - x1 * x2 * x3) <= TOL * 100
    assert linf(fam.phi_values(g, 1) - x1 / (x2 * x3)) <= TOL * 10


def test_family_trivial_and_constant_alpha():
    g = box()
    fam0 = one_component_family(constant_alpha(0, 0, 0))
    for k in range(4):
        assert linf(fam0.f_values(g, k) - 1.0) <= TOL
    a = (0.3, -0.2, 0.5)
    fam = one_component_family(constant_alpha(*a))
    x1, x2, x3 = g.mesh()
    want = np.exp(-(a[0] * x1 + a[1] * x2 + a[2] * x3))
    assert linf(fam.f_values(g, 0) - want) <= TOL * 10


def test_family_requires_antiderivatives():
    alf = separable_alpha(lambda x: 1.0 / x, 0.0, 0.0,
                          derivs=(lambda x: -1.0 / x ** 2, None, None))
    with pytest.raises(ValueError, match="antiderivative"):
        one_component_family(alf)


def test_family_analytic_schrodinger_requires_derivatives():
    rec = reciprocal_alpha()
    fam = one_component_family(separable_alpha(*rec.funcs, antiderivs=rec.antiderivs))
    with pytest.raises(ValueError, match="derivative"):
        fam.schrodinger_residual_analytic(box(), 0, "v")


def test_family_analytic_schrodinger_builds_no_potential_set(monkeypatch):
    # each call forms its one potential from the sampled derivative lines;
    # the full eight-array PotentialSet is never rebuilt
    from biquat import factorization

    def refuse(*args, **kwargs):
        raise AssertionError("potentials() called")

    monkeypatch.setattr(factorization, "potentials", refuse)
    fam = one_component_family(reciprocal_alpha())
    for k in range(4):
        for which in ("v", "w"):
            res, scale = fam.schrodinger_residual_analytic(box(), k, which)
            assert linf(res) <= TOL * scale


# ------------------------------------------------------------------
# building solutions
# ------------------------------------------------------------------

def test_build_solution_zero():
    g = box()
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    f = build_solution(BQField.zeros(g), alf)
    assert f.linf() == 0.0


def test_gradient_alpha_of_constant_phi_vanishes():
    g = box()
    galf = gradient_alpha(lambda a, b, c: np.ones_like(a),
                          grad_phi=(lambda a, b, c: np.zeros_like(a),) * 3,
                          lap_phi=lambda a, b, c: np.zeros_like(a))
    assert galf.vector_field(g).linf() == 0.0


def test_build_solution_from_family_reciprocals():
    # g = sum_k phi_k e_k has every component solving its Schrodinger
    # equation, so (D - M^alpha) g solves the first-order equation
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    fam = one_component_family(alf)
    errs = []
    for n in (17, 33):
        g = box(n)
        gfield = BQField(g, np.stack([fam.phi_values(g, k) for k in range(4)]))
        f = build_solution(gfield, alf)
        errs.append(_windowed(nabla_alpha(f, alf), box(17), 0.15).linf()
                    / max(gfield.linf(), 1.0))
    order_between(errs)


# ------------------------------------------------------------------
# right inverse
# ------------------------------------------------------------------

def test_right_inverse_zero():
    g = box()
    out = right_inverse(BQField.zeros(g), constant_alpha(1j, 0, 0))
    assert out.field.linf() == 0.0
    assert out.solver_residual <= 1e-10


def test_right_inverse_rejects_bad_variant():
    with pytest.raises(ValueError, match="variant"):
        right_inverse(BQField.zeros(box()), constant_alpha(1j, 0, 0), variant="x")


def test_right_inverse_reports_singular_operator():
    # tune the constant potential onto the lowest Dirichlet eigenvalue of
    # the discrete interior Laplacian so the matrix is exactly singular
    n = 9
    g = Grid3.box(0.0, 1.0, n)
    h = g.spacing[0]
    nin = n - 2
    lam1 = 3.0 * (2.0 - 2.0 * np.cos(np.pi / (nin + 1))) / h ** 2
    alf = constant_alpha(1j * np.sqrt(lam1), 0.0, 0.0)  # v_k = -lam1 exactly
    f = BQField.from_scalar(g, lambda a, b, c: np.sin(a))
    with pytest.raises(ValueError):
        right_inverse(f, alf)


def _direct_solve(f, alpha, variant):
    """The four Dirichlet solves by spsolve on the assembled 3-D matrix
    (7-point -lap plus the sampled potential), the reference for u."""
    g = f.grid
    pots = potentials(alpha, g)
    pot = pots.v if variant == "v" else pots.w
    inner = (slice(1, -1),) * 3
    mats = [sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n - 2, n - 2)) / h ** 2
            for n, h in zip(g.shape, g.spacing)]
    eyes = [sparse.identity(m.shape[0]) for m in mats]
    lap = (sparse.kron(sparse.kron(mats[0], eyes[1]), eyes[2])
           + sparse.kron(sparse.kron(eyes[0], mats[1]), eyes[2])
           + sparse.kron(sparse.kron(eyes[0], eyes[1]), mats[2]))
    u = np.zeros((4, *g.shape), dtype=complex)
    for k in range(4):
        mat = (lap + sparse.diags(pot[k][inner].ravel())).tocsc()
        u[k][inner] = sla.spsolve(mat, f.data[k][inner].ravel()).reshape(u[k][inner].shape)
    return u


def _complex_data(g, seed=0):
    rng = np.random.default_rng(seed)
    shape = (4, *g.shape)
    return BQField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("variant", ["v", "w"])
@pytest.mark.parametrize("alpha", [constant_alpha(1j, 0, 0), reciprocal_alpha()],
                         ids=["constant_i_e1", "reciprocal"])
def test_right_inverse_matches_direct_sparse_solve(alpha, variant, caplog):
    g = box(9)
    f = _complex_data(g)
    with caplog.at_level(logging.WARNING, logger="biquat"):
        out = right_inverse(f, alpha, variant=variant)
    assert not caplog.records  # diagonalized, no LU fallback
    want = _direct_solve(f, alpha, variant)
    assert np.abs(out.u.data - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("variant", ["v", "w"])
def test_right_inverse_decomposes_each_axis_operator_once(variant, monkeypatch):
    # s_kj = ±1, so the four components share two operators per axis
    calls = {"eig": 0, "inv": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, name=name, original=original):
            calls[name] += 1
            return original(a)

        monkeypatch.setattr(np.linalg, name, counted)
    right_inverse(_complex_data(box(9)), reciprocal_alpha(), variant=variant)
    assert calls == {"eig": 6, "inv": 6}


def test_right_inverse_falls_back_to_lu_for_ill_conditioned_basis(caplog):
    # a_j = sqrt(i c x_j) makes each 1-D operator about -d^2 + i c x, whose
    # eigenvector basis on 15 interior nodes has cond(V) ~ 1.3e3 per axis
    c = 1e3
    root = np.sqrt(1j * c)
    a = lambda x: root * np.sqrt(x + 0j)
    da = lambda x: root / (2.0 * np.sqrt(x + 0j))
    alf = separable_alpha(a, a, a, derivs=(da, da, da))
    g = box(17)
    f = _complex_data(g)
    with caplog.at_level(logging.WARNING, logger="biquat"):
        out = right_inverse(f, alf)
    records = [r for r in caplog.records if r.name.startswith("biquat")]
    assert len(records) == 1
    assert "cond(V)" in records[0].getMessage()
    assert "sparse LU" in records[0].getMessage()
    want = _direct_solve(f, alf, "v")
    assert np.abs(out.u.data - want).max() <= 1e-12 * np.abs(want).max()
    assert out.solver_residual <= 1e-10
