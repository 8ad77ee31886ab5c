import dataclasses
import logging
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sla

from biquat import factorization, grid
from biquat.algebra import INVOLUTION_SIGNS, qmul
from biquat.alpha import AxialAlpha, GradientAlpha, SeparableAlpha, reciprocal_alpha
from biquat.dirac import DiracParams
from biquat.factorization import (ClosedFormFamily, PotentialSet, build_solution,
                                  factored_product, factorization_residual, potentials,
                                  riccati_residual, right_inverse)
from biquat.grid import (BQField, Grid3, _on_mesh, _schrodinger, alpha_arrays, laplacian, linf,
                         nabla_alpha, partial_deriv, sample)
from biquat.harness import TOL, _order_check


def box(n=9):
    return Grid3.box(1.0, 2.0, n)


# ------------------------------------------------------------------
# Riccati balance
# ------------------------------------------------------------------

def test_riccati_zero_alpha():
    g = box()
    res = riccati_residual(SeparableAlpha((0, 0, 0)), 0.0, g)
    assert res.linf() == 0.0


def test_riccati_gradient_of_x1():
    g = box()
    alf = GradientAlpha(lambda a, b, c: a,
                        grad_phi=(lambda a, b, c: np.ones_like(a),
                                  lambda a, b, c: np.zeros_like(a),
                                  lambda a, b, c: np.zeros_like(a)),
                        lap_phi=lambda a, b, c: np.zeros_like(a))
    # alpha = e1/x1 solves the balance with v = 0
    x1 = g.mesh()[0]
    assert linf(alf.vector_field(g).data[1] - 1.0 / x1) <= TOL


def test_riccati_gradient_pairs_with_laplacian_quotient():
    g = box()
    phi = lambda a, b, c: np.exp(a) * np.cos(b)
    alf = GradientAlpha(
        phi,
        grad_phi=(lambda a, b, c: np.exp(a) * np.cos(b),
                  lambda a, b, c: -np.exp(a) * np.sin(b),
                  lambda a, b, c: np.zeros_like(a)),
        lap_phi=lambda a, b, c: np.zeros_like(a))
    v = alf.schrodinger_potential(g)
    assert riccati_residual(alf, v, g).linf() <= TOL * max(1.0, linf(alf.alpha_sq(g)))


def _nan_at_center(a, b, c):
    # one NaN interior node; norms would skip it as the invalid rim
    vals = np.zeros(np.broadcast(a, b, c).shape)
    vals[4, 4, 4] = np.nan
    return vals


def test_riccati_rejects_nan_v_node():
    with pytest.raises(ValueError, match="^v .*non-finite"):
        riccati_residual(reciprocal_alpha(), _nan_at_center(*box().mesh()), box())


def test_gradient_alpha_rejects_nan_derivative_node():
    g = box()
    one = lambda a, b, c: np.ones_like(a)
    zero = lambda a, b, c: np.zeros_like(a)
    x1 = lambda a, b, c: a
    bad_grad = GradientAlpha(x1, grad_phi=(one, _nan_at_center, zero), lap_phi=zero)
    with pytest.raises(ValueError, match="^grad phi .*non-finite"):
        bad_grad.components(g)
    with pytest.raises(ValueError, match="^alpha derivative .*non-finite"):
        bad_grad.d_alpha(g)
    bad_lap = GradientAlpha(x1, grad_phi=(one, zero, zero), lap_phi=_nan_at_center)
    with pytest.raises(ValueError, match="^alpha derivative .*non-finite"):
        bad_lap.d_alpha(g)


def test_schrodinger_potential_rejects_nan_laplacian_node():
    # d_alpha of the same spec raises; the potential must not return the
    # NaN node for norms to skip
    g = box()
    zero = lambda a, b, c: np.zeros_like(a)
    alf = GradientAlpha(lambda a, b, c: a, grad_phi=(lambda a, b, c: np.ones_like(a), zero, zero),
                        lap_phi=_nan_at_center)
    with pytest.raises(ValueError, match="^v .*non-finite"):
        alf.schrodinger_potential(g)


def test_axial_alpha_numeric_gradient_rejects_nan_a1_node():
    # without grad_a1 the gradient is taken from the sampled a1, which must
    # be checked as components() checks it: norms skip the NaN it spreads
    alf = AxialAlpha(lambda a, b, c: a * b + _nan_at_center(a, b, c), 0.3)
    for call in (alf.components, alf.grad_a1_components, alf.d_alpha):
        with pytest.raises(ValueError, match="^alpha pole on grid"):
            call(box())


def test_riccati_vector_part_is_curl():
    g = box()
    # curl(x2 e2) = 0 even though alpha is not constant; central differences
    # are exact on the linear factor, so the spec without derivative
    # callables agrees with the one that has them
    alf = SeparableAlpha((0.0, lambda x: x, 0.0),
                         derivs=(None, lambda x: np.ones_like(x), None))
    alf_numeric = SeparableAlpha((0.0, lambda x: x, 0.0))
    assert alf.has_exact_derivatives() and not alf_numeric.has_exact_derivatives()
    numeric = riccati_residual(alf_numeric, 0.0, g)
    analytic = riccati_residual(alf, 0.0, g)
    assert (numeric - analytic).linf() <= TOL
    # a non-gradient alpha has curl in the vector slot of the residual
    alf2 = AxialAlpha(lambda a, b, c: b + 0j, 0.0, 0.0,
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
        (reciprocal_alpha(), SeparableAlpha(reciprocal_alpha().funcs)),
        (AxialAlpha(lambda a, b, c: np.sin(b) * c + 0j, 0.5, 0.0,
                    grad_a1=(zeros, lambda a, b, c: np.cos(b) * c,
                             lambda a, b, c: np.sin(b))),
         AxialAlpha(lambda a, b, c: np.sin(b) * c + 0j, 0.5, 0.0)),
        (GradientAlpha(lambda a, b, c: np.exp(a) * np.cos(b / 2),
                       grad_phi=(lambda a, b, c: np.exp(a) * np.cos(b / 2),
                                 lambda a, b, c: -0.5 * np.exp(a) * np.sin(b / 2), zeros),
                       lap_phi=lambda a, b, c: 0.75 * np.exp(a) * np.cos(b / 2)),
         GradientAlpha(lambda a, b, c: np.exp(a) * np.cos(b / 2))),
    )
    for exact, numeric in pairs:
        assert exact.has_exact_derivatives() and not numeric.has_exact_derivatives()

        def defect(g, exact=exact, numeric=numeric):
            d_exact, d_numeric = exact.d_alpha(g), numeric.d_alpha(g)
            assert isinstance(d_exact, BQField) and isinstance(d_numeric, BQField)
            assert np.all(np.isfinite(d_exact.data))
            return d_numeric - d_exact

        row = _order_check("d_alpha", (box(33), box(65)), defect)
        assert row.passed, row


# ------------------------------------------------------------------
# scalar factorization
# ------------------------------------------------------------------

def test_factorization_zero_function():
    g = box()
    alf = SeparableAlpha((1j, 0.0, 0.0))
    res, _ = factorization_residual(alf, 0.0, -1.0, g)
    assert res.linf() == 0.0


def test_factorization_checks_riccati_precondition():
    g = box()
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="Riccati"):
        factorization_residual(alf, lambda a, b, c: a, 5.0, g)


@pytest.mark.parametrize("bad, which", [(np.nan, "v"), (np.inf, "v"), (np.nan, "phi")])
def test_factorization_rejects_non_finite_samples(bad, which):
    # one bad node would otherwise read as a finite residual (NaN) or pass
    # the Riccati check as a NaN relative residual (inf in v)
    g = box(17)
    alf = reciprocal_alpha()
    x1 = g.mesh()[0]
    arrays = {"v": np.zeros(g.shape), "phi": np.sin(x1) * np.ones(g.shape)}
    arrays[which][8, 7, 9] = bad
    with pytest.raises(ValueError, match=f"^{which} .*non-finite"):
        factorization_residual(alf, arrays["phi"], arrays["v"], g)


# 65^3 is large enough for the blocked calls to split in two runs on two
# CPUs (``_two_cpus``); the smaller grids run inline
_REFERENCE_GRIDS = {"9": box(9), "17": box(17),
                    "7x9x12": Grid3.box((1.0, 1.1, 0.9), (2.0, 2.3, 1.7), (7, 9, 12)),
                    "65": box(65)}


def _two_cpus(monkeypatch):
    monkeypatch.setattr(grid, "_cpus", lambda: 2)

# alphas with the v of their Riccati balance: constant, reciprocal, and one
# with central-difference derivatives (exact on its linear factors)
_RICCATI_PAIRS = {
    "constant": (SeparableAlpha((1.3j, 0.0, 0.0)), -1.69),
    "reciprocal": (reciprocal_alpha(), 0.0),
    "numeric": (SeparableAlpha((lambda x: x, 0.5, lambda x: 1j * x)),
                lambda a, b, c: 1.25 + 1j + a ** 2 - c ** 2),
}


def _same_magnitudes(a, b) -> bool:
    # equal values and NaN rims; negation and x - (-y) = x + y are exact,
    # so only the sign of a zero may differ
    return np.array_equal(np.abs(a), np.abs(b), equal_nan=True)


def _phi(a, b, c):
    return np.sin(a + 2 * b) * np.exp(1j * c) + 0.3 * a * c


def _whole_field_residual(alpha, phi, v, g):
    """The one-component residual from whole-field arrays: -lap phi + v phi
    minus nabla_alpha of grad phi - phi a_k, with the first factor written
    inside a one-node NaN rim.  Returns (residual, scale)."""
    phi_arr = sample(g, phi)
    lhs = -laplacian(BQField.from_scalar(g, phi_arr)).scalar + sample(g, v) * phi_arr
    a = alpha_arrays(alpha, g)
    inner = (slice(1, -1),) * 3
    first = np.full((4, *g.shape), np.nan, dtype=complex)
    first[0][inner] = 0.0
    for k in (1, 2, 3):
        first[k][inner] = (partial_deriv(phi_arr, g, k - 1) - phi_arr * a[k])[inner]
    rhs = nabla_alpha(BQField(g, first), a)
    res = -rhs
    res.data[0] += lhs
    return res, max(linf(lhs), rhs.linf(), 1e-300)


@pytest.mark.parametrize("grid_name", _REFERENCE_GRIDS)
@pytest.mark.parametrize("alpha_name", _RICCATI_PAIRS)
def test_factorization_residual_equals_four_component_composition(grid_name, alpha_name,
                                                                  monkeypatch):
    # the residual on phi's one component, node for node the composition
    # on the four-component field phi e0, and bit for bit the whole-field
    # arrays.  The Riccati check reads D(alpha) + alpha**2 + v as v - v_0,
    # which sums the same terms in another order
    _two_cpus(monkeypatch)
    g = _REFERENCE_GRIDS[grid_name]
    alf, v = _RICCATI_PAIRS[alpha_name]
    res, scale = factorization_residual(alf, _phi, v, g)
    phi_field = BQField.from_scalar(g, _phi)
    lhs = -laplacian(phi_field)
    lhs.data[0] += sample(g, v) * phi_field.scalar
    rhs = factored_product(phi_field, alf)
    assert _same_magnitudes(res.data, (lhs - rhs).data)
    assert scale == max(lhs.linf(), rhs.linf(), 1e-300)
    want, want_scale = _whole_field_residual(alf, _phi, v, g)
    assert np.array_equal(res.data, want.data, equal_nan=True)
    assert scale == want_scale
    v_arr = _on_mesh(g, v)
    tol = 4 * np.finfo(float).eps * max(1.0, linf(alf.alpha_sq(g)), linf(v_arr))
    assert abs(linf(v_arr - potentials(alf, g).v[0])
               - riccati_residual(alf, v, g).linf()) <= tol


def test_split_calls_keep_their_raise_paths(monkeypatch):
    # the blocked norms raise as the whole-field ones do, with the same value
    _two_cpus(monkeypatch)
    g = box(65)
    lines = tuple(g.sample_axis(j, np.nan) for j in range(3))
    with pytest.raises(ValueError, match="^no valid nodes to take a norm over$"):
        PotentialSet(lines, lines).pairing_defect()
    alf = reciprocal_alpha()
    rel = riccati_residual(alf, 5.0, g).linf() / max(1.0, linf(alf.alpha_sq(g)), 5.0)
    with pytest.raises(ValueError, match=re.escape(
            f"Riccati precondition violated: relative residual {rel:.3e} > ")):
        factorization_residual(alf, _phi, 5.0, g)


# ------------------------------------------------------------------
# potentials
# ------------------------------------------------------------------

def _d_alpha_involution_reference(derivs, k):
    # the sum in its own order: a potential summed otherwise rounds otherwise
    s = INVOLUTION_SIGNS[k]
    return -(s[0] * derivs[0] + s[1] * derivs[1] + s[2] * derivs[2])


@pytest.mark.parametrize("grid_name", _REFERENCE_GRIDS)
@pytest.mark.parametrize("alpha_name", _RICCATI_PAIRS)
def test_potentials_equal_signed_involution_reference(grid_name, alpha_name, monkeypatch):
    _two_cpus(monkeypatch)
    g = _REFERENCE_GRIDS[grid_name]
    alf = _RICCATI_PAIRS[alpha_name][0]
    pots = potentials(alf, g)
    derivs = alf.deriv_components(g)
    a1, a2, a3 = alf.components(g)
    asq = -(a1 ** 2 + a2 ** 2 + a3 ** 2)
    assert np.array_equal(pots.alpha_sq, asq)
    v, w = list(pots.v), list(pots.w)
    assert len(v) == len(w) == 4
    for k in range(4):
        d_inv = _d_alpha_involution_reference(derivs, k)
        assert np.array_equal(v[k], -d_inv - asq, equal_nan=True)
        assert np.array_equal(w[k], d_inv - asq, equal_nan=True)
        assert np.array_equal(pots.v[k], v[k], equal_nan=True)
    assert pots.pairing_defect() == max(
        linf(vk + wk + 2.0 * asq) for vk, wk in zip(v, w))


@pytest.mark.parametrize("alf", [reciprocal_alpha(), SeparableAlpha((2j, 0, 0))],
                         ids=["reciprocal", "constant"])
def test_potential_sequences_form_a_new_array_per_index(alf):
    g = box()
    pots = potentials(alf, g)
    for seq in (pots.v, pots.w):
        assert len(seq) == 4
        assert np.array_equal(seq[-1], seq[3])
        with pytest.raises(IndexError):
            seq[4]
        with pytest.raises(IndexError):
            seq[-5]
        for k in range(4):
            first, again = seq[k], seq[k]
            assert first.shape == g.shape and first.dtype == complex
            assert not np.shares_memory(first, again)
            assert np.array_equal(first, again)
    # the set holds alpha's lines and nothing else
    assert [f.name for f in dataclasses.fields(pots)] == ["components", "deriv_components"]


def test_schrodinger_reads_the_potential_sequence():
    g = box()
    pots = potentials(reciprocal_alpha(), g)
    u = np.random.default_rng(7).normal(size=(4, *g.shape)) + 0j
    assert np.array_equal(_schrodinger(u, pots.v, g), _schrodinger(u, tuple(pots.v), g),
                          equal_nan=True)


def test_potentials_reciprocal_pairing():
    g = box()
    pots = potentials(reciprocal_alpha((0.0, 0.0, 0.0)), g)
    assert pots.pairing_defect() <= TOL * max(1.0, linf(pots.alpha_sq))


def test_potentials_zero_alpha():
    g = box()
    pots = potentials(SeparableAlpha((0, 0, 0)), g)
    for k in range(4):
        assert linf(pots.v[k]) == 0.0
        assert linf(pots.w[k]) == 0.0


def test_potentials_constant_imaginary_alpha():
    g = box()
    m = 2.0
    pots = potentials(SeparableAlpha((1j * m, 0.0, 0.0)), g)
    for k in range(4):
        assert linf(pots.v[k] + m ** 2) <= TOL * m ** 2
        assert linf(pots.w[k] + m ** 2) <= TOL * m ** 2


def test_potentials_reject_non_separable():
    g = box()
    alf = AxialAlpha(lambda a, b, c: b + 0j, 0.0, 0.0)
    with pytest.raises(ValueError, match="separable"):
        potentials(alf, g)
    # so do the closed-form family and the right inverse
    with pytest.raises(ValueError, match="separable"):
        ClosedFormFamily(alf)
    with pytest.raises(ValueError, match="separable"):
        right_inverse(BQField.zeros(g), alf)


# ------------------------------------------------------------------
# closed-form family
# ------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_analytic_residual_equals_basis_products(seed):
    # reference: D f as the sum over k, then j, of the constant products
    # (e_j e_k) d_j f_k, then f * alpha added as the whole-field qmul
    g = Grid3.box((1.0, -0.5, 0.25), (2.0, 0.75, 3.0), (5, 9, 18))
    fam = ClosedFormFamily(reciprocal_alpha((0.1, -1.0, -0.2)))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = alpha_arrays(fam.alpha, g)
    f = fam.combination(g, coeffs).data
    basis = np.eye(4, dtype=complex)
    want = np.zeros_like(f)
    for k in range(4):
        for j in range(3):
            d_j_fk = factorization._FAMILY_SIGNS[k][j] * a[j + 1] * f[k]
            want += qmul(basis[j + 1], basis[k]).reshape(4, 1, 1, 1) * d_j_fk
    want += qmul(f, a)
    res, _ = fam.equation_residual_analytic(g, coeffs)
    assert np.array_equal(res.data, want)


def test_family_reciprocal_printed_solutions():
    g = box()
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    fam = ClosedFormFamily(alf)
    x1, x2, x3 = g.mesh()
    assert linf(fam.f_values(g, 0) - 1.0 / (x1 * x2 * x3)) <= TOL * 10
    assert linf(fam.f_values(g, 1) - x2 * x3 / x1) <= TOL * 10
    assert linf(fam.f_values(g, 2) - x1 * x3 / x2) <= TOL * 10
    assert linf(fam.f_values(g, 3) - x1 * x2 / x3) <= TOL * 10
    assert linf(fam.phi_values(g, 0) - x1 * x2 * x3) <= TOL * 100
    assert linf(fam.phi_values(g, 1) - x1 / (x2 * x3)) <= TOL * 10


def test_family_trivial_and_constant_alpha():
    g = box()
    fam0 = ClosedFormFamily(SeparableAlpha((0, 0, 0)))
    for k in range(4):
        assert linf(fam0.f_values(g, k) - 1.0) <= TOL
    a = (0.3, -0.2, 0.5)
    fam = ClosedFormFamily(SeparableAlpha(a))
    x1, x2, x3 = g.mesh()
    want = np.exp(-(a[0] * x1 + a[1] * x2 + a[2] * x3))
    assert linf(fam.f_values(g, 0) - want) <= TOL * 10


def test_constant_factor_is_completed_by_the_class():
    # a constant factor gets the exact derivative 0 and antiderivative c*x:
    # no central-difference rim in the potentials, and a closed-form family
    g = box()
    alf = SeparableAlpha((0.3, 0, 0))
    assert alf.has_exact_derivatives() and alf.has_antiderivatives()
    pots = potentials(alf, g)
    assert all(np.isfinite(p).all() for p in (*pots.v, *pots.w))
    x1 = g.mesh()[0]
    assert linf(ClosedFormFamily(alf).f_values(g, 0) - np.exp(-0.3 * x1)) <= TOL


def test_axial_alpha_constant_parts_default_to_zero():
    alf = AxialAlpha(lambda a, b, c: a + 0j)
    assert alf.a2 == alf.a3 == 0.0
    _, a2, a3 = alf.components(box())
    assert not a2.any() and not a3.any()


_RECIPROCAL = reciprocal_alpha()


@pytest.mark.parametrize("args", [
    ((1.0, 2.0),),
    ((1.0, 2.0, 3.0, 4.0),),
    (_RECIPROCAL.funcs, _RECIPROCAL.derivs[:2]),
    (_RECIPROCAL.funcs, _RECIPROCAL.derivs, _RECIPROCAL.antiderivs[:2]),
], ids=["two_factors", "four_factors", "two_derivs", "two_antiderivs"])
def test_separable_alpha_takes_three_of_each(args):
    with pytest.raises(ValueError, match="three factors"):
        SeparableAlpha(*args)


@pytest.mark.parametrize("entries", [(0.0, 1.0), (0.0, 1.0, 0.0, 0.0)], ids=["two", "four"])
def test_axial_alpha_takes_three_gradient_entries(entries):
    # two entries used to fail only later, in d_alpha, AxialOperators and
    # zero_divisor_reduction
    with pytest.raises(ValueError, match="grad_a1 takes three entries"):
        AxialAlpha(lambda a, b, c: b + 0j, grad_a1=entries)


@pytest.mark.parametrize("entries", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0)], ids=["two", "four"])
def test_gradient_alpha_takes_three_gradient_entries(entries):
    # two entries used to give two components without an error
    with pytest.raises(ValueError, match="grad_phi takes three entries"):
        GradientAlpha(lambda a, b, c: a, grad_phi=entries)


_SHAPES_GRID = Grid3.box(1.0, 2.0, (5, 6, 7))
_C, _X1, _X2, _X3, _FULL = (1, 1, 1), (5, 1, 1), (1, 6, 1), (1, 1, 7), (5, 6, 7)
_AXIAL_CONST = AxialAlpha(0.5 - 0.1j, 0.2, 0.1j, grad_a1=(0.0, 0.0, 0.0))
_AXIAL_X2 = AxialAlpha(lambda a, b, c: b + 0j, 0.3, grad_a1=(0.0, 1.0, 0.0))
_AXIAL_X1X3 = AxialAlpha(lambda a, b, c: a * c + 0j,
                         grad_a1=(lambda a, b, c: c + 0j, 0.0, lambda a, b, c: a + 0j))
_GRADIENT_CONST = GradientAlpha(2.0, grad_phi=(0.0, 0.0, 0.0), lap_phi=0.0)
_GRADIENT_X1 = GradientAlpha(lambda a, b, c: a + 0j, grad_phi=(1.0, 0.0, 0.0), lap_phi=0.0)


@pytest.mark.parametrize("sampler, shapes", [
    (_AXIAL_CONST.components, [_C] * 3),
    (_AXIAL_CONST.grad_a1_components, [_C] * 3),
    (lambda g: [_AXIAL_CONST.alpha_sq(g)], [_C]),
    (_AXIAL_X2.components, [_X2, _C, _C]),
    (_AXIAL_X2.grad_a1_components, [_C] * 3),
    (lambda g: [_AXIAL_X2.alpha_sq(g)], [_X2]),
    (_AXIAL_X1X3.components, [(5, 1, 7), _C, _C]),
    (_AXIAL_X1X3.grad_a1_components, [_X3, _C, _X1]),
    (_GRADIENT_CONST.components, [_C] * 3),
    (lambda g: [_GRADIENT_CONST.schrodinger_potential(g)], [_C]),
    (_GRADIENT_X1.components, [_X1] * 3),
    (lambda g: [_GRADIENT_X1.schrodinger_potential(g)], [_X1]),
    (lambda g: [DiracParams(0.7, 1.3).phi_values(g)], [_C]),
    (lambda g: [DiracParams(0.7, 1.3, phi=1.0).phi_values(g)], [_C]),
    (lambda g: [DiracParams(0.7, 1.3, phi=lambda a, b, c: b).phi_values(g)], [_X2]),
    # the 1-D operators of the right inverse read each separable factor
    # node by node, so a constant factor is the line of its own axis
    (SeparableAlpha((lambda x: x, 0.3, lambda x: x * x)).components, [_X1, _X2, _X3]),
    # a central difference reads neighbouring nodes: grid.shape
    (AxialAlpha(lambda a, b, c: b + 0j).grad_a1_components, [_FULL] * 3),
    (GradientAlpha(lambda a, b, c: a + 0j).components, [_FULL] * 3),
], ids=["axial_const", "axial_const_grad", "axial_const_alpha_sq", "axial_x2",
        "axial_x2_grad", "axial_x2_alpha_sq", "axial_x1x3", "axial_x1x3_grad",
        "gradient_const", "gradient_const_v", "gradient_x1", "gradient_x1_v",
        "dirac_phi_none", "dirac_phi_const", "dirac_phi_x2", "separable",
        "axial_numeric_grad", "gradient_numeric"])
def test_spec_samplers_keep_the_open_mesh_shape(sampler, shapes):
    assert [np.shape(a) for a in sampler(_SHAPES_GRID)] == shapes


def test_family_requires_antiderivatives():
    alf = SeparableAlpha((lambda x: 1.0 / x, 0.0, 0.0),
                         derivs=(lambda x: -1.0 / x ** 2, None, None))
    with pytest.raises(ValueError, match="antiderivative"):
        ClosedFormFamily(alf)
    with pytest.raises(ValueError, match="antiderivative"):
        alf.antideriv_components(box())


def test_family_analytic_schrodinger_requires_derivatives():
    rec = reciprocal_alpha()
    fam = ClosedFormFamily(SeparableAlpha(rec.funcs, antiderivs=rec.antiderivs))
    with pytest.raises(ValueError, match="derivative"):
        fam.schrodinger_residual_analytic(box(), 0, "v")


def test_family_analytic_schrodinger_rejects_bad_which():
    with pytest.raises(ValueError, match="which must be 'v' or 'w'"):
        ClosedFormFamily(reciprocal_alpha()).schrodinger_residual_analytic(box(), 0, "x")


def test_family_analytic_schrodinger_builds_no_potential_set(monkeypatch):
    # each call forms its one potential from the lines it samples once:
    # potentials() is not called to sample them again
    from biquat import factorization

    def refuse(*args, **kwargs):
        raise AssertionError("potentials() called")

    monkeypatch.setattr(factorization, "potentials", refuse)
    fam = ClosedFormFamily(reciprocal_alpha())
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
    galf = GradientAlpha(lambda a, b, c: np.ones_like(a),
                         grad_phi=(lambda a, b, c: np.zeros_like(a),) * 3,
                         lap_phi=lambda a, b, c: np.zeros_like(a))
    assert galf.vector_field(g).linf() == 0.0


def test_gradient_alpha_rejects_zero_of_phi_and_missing_laplacian():
    g = box()  # x1 = 1.5 is a node
    with pytest.raises(ValueError, match="zero of phi"):
        GradientAlpha(lambda a, b, c: a - 1.5).components(g)
    with pytest.raises(ValueError, match="no Laplacian"):
        GradientAlpha(lambda a, b, c: a).schrodinger_potential(g)


def test_build_solution_from_family_reciprocals():
    # g = sum_k phi_k e_k has every component solving its Schrodinger
    # equation, so (D - M^alpha) g solves the first-order equation
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    fam = ClosedFormFamily(alf)

    def residual(g):
        gfield = BQField(g, np.stack([fam.phi_values(g, k) for k in range(4)]))
        return nabla_alpha(build_solution(gfield, alf), alf), max(gfield.linf(), 1.0)

    row = _order_check("build_solution", (box(17), box(33)), residual, window=0.15)
    assert row.passed, row


# ------------------------------------------------------------------
# right inverse
# ------------------------------------------------------------------

def test_right_inverse_zero():
    g = box()
    out = right_inverse(BQField.zeros(g), SeparableAlpha((1j, 0, 0)))
    assert out.field.linf() == 0.0
    assert out.solver_residual <= 1e-10


def test_right_inverse_reports_singular_operator():
    # tune the constant potential onto the lowest Dirichlet eigenvalue of
    # the discrete interior Laplacian so the matrix is exactly singular
    n = 9
    g = Grid3.box(0.0, 1.0, n)
    h = g.spacing[0]
    nin = n - 2
    lam1 = 3.0 * (2.0 - 2.0 * np.cos(np.pi / (nin + 1))) / h ** 2
    alf = SeparableAlpha((1j * np.sqrt(lam1), 0.0, 0.0))  # v_k = -lam1 exactly
    f = BQField.from_scalar(g, lambda a, b, c: np.sin(a))
    with pytest.raises(ValueError):
        right_inverse(f, alf)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_right_inverse_rejects_non_finite_interior_data(bad):
    # a NaN used to leave solver_residual at rounding level and the
    # returned field all NaN
    f = _complex_data(box(17))
    f.data[2, 8, 3, 11] = bad
    with pytest.raises(ValueError, match="f component 2 is not finite"):
        right_inverse(f, reciprocal_alpha())


def test_right_inverse_rejects_an_overflowing_potential():
    # a_1 = 1e200 is finite, but a_1**2 on the operator's diagonal is not
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="invalid interior values"):
        right_inverse(BQField.zeros(box()), SeparableAlpha((1e200, 0, 0)))


def test_right_inverse_solver_gate_fails_on_nan(monkeypatch):
    # NaN eigenvalues make every solve NaN: the residual gate must see it
    diagonalize = factorization._diagonalize

    def poisoned(a):
        t, q = diagonalize(a)
        return t * np.nan, q

    monkeypatch.setattr(factorization, "_diagonalize", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="solver residual nan"):
        right_inverse(_complex_data(box()), reciprocal_alpha())


def test_right_inverse_ignores_an_invalid_rim():
    # only the interior is solved for: a NaN-rimmed operator output is data
    f = _complex_data(box())
    rimmed = BQField(f.grid, f.data.copy())
    rimmed.data[:, 0] = np.nan
    rimmed.data[:, :, -1] = np.nan
    alf = reciprocal_alpha()
    assert np.array_equal(right_inverse(rimmed, alf).u.data, right_inverse(f, alf).u.data)


def _direct_solve(f, alpha):
    """The four Dirichlet solves by spsolve on the assembled 3-D matrix
    (7-point -lap plus the sampled potentials v_k), the reference for u."""
    g = f.grid
    pot = potentials(alpha, g).v
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


def _solver(alpha, g):
    """The solver right_inverse builds for alpha on g."""
    return factorization._DirichletSolver(factorization._axis_operators(potentials(alpha, g), g))


def _complex_data(g, seed=0):
    rng = np.random.default_rng(seed)
    shape = (4, *g.shape)
    return BQField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _negated(alpha):
    """-alpha for a separable alpha with derivative callables."""
    neg = lambda fn: (lambda x: -fn(x))
    return SeparableAlpha(map(neg, alpha.funcs), derivs=tuple(map(neg, alpha.derivs)))


def _complex_axis_alpha():
    """nu(x1) i e1 with nu = 1 + 0.5 sin 3x1: a_1' = i nu' makes axis 1's
    operators complex, so they take the Schur form; axes 2 and 3 are real."""
    zero = lambda x: np.zeros_like(x)
    return SeparableAlpha((lambda x: 1j * (1.0 + 0.5 * np.sin(3.0 * x)), 0, 0),
                          derivs=(lambda x: 1.5j * np.cos(3.0 * x), zero, zero))


def _sqrt_alpha(c):
    """a_j = sqrt(i c x_j), each 1-D operator about -d^2 + i c x: complex on
    every axis, with an eigenvector basis whose condition grows with c."""
    root = np.sqrt(1j * c)
    a = lambda x: root * np.sqrt(x + 0j)
    da = lambda x: root / (2.0 * np.sqrt(x + 0j))
    return SeparableAlpha((a, a, a), derivs=(da, da, da))


# a "-w" case takes -alpha, whose v_k are the w_k of alpha: the solves
# behind the mirrored preimage under D - M^alpha; the "central_difference"
# alpha has no derivative callables, so each a_j' is a central difference
# of the sampled line, NaN at both ends, which the interior never reads
@pytest.mark.parametrize("alpha", [SeparableAlpha((1j, 0, 0)), SeparableAlpha((-1j, 0, 0)),
                                   reciprocal_alpha(), _negated(reciprocal_alpha()),
                                   _complex_axis_alpha(),
                                   SeparableAlpha((lambda x: 1 / x, lambda x: np.exp(0.3 * x),
                                                   0.5j))],
                         ids=["constant_i_e1-v", "constant_i_e1-w", "reciprocal-v", "reciprocal-w",
                              "nu_i_e1-v", "central_difference-v"])
def test_right_inverse_matches_direct_sparse_solve(alpha):
    g = box(9)
    f = _complex_data(g)
    out = right_inverse(f, alpha)
    want = _direct_solve(f, alpha)
    assert np.abs(out.u.data - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("alpha", [reciprocal_alpha(), _complex_axis_alpha(), _sqrt_alpha(1e3)],
                         ids=["reciprocal", "nu_i_e1", "sqrt"])
def test_solver_gate_applies_the_axis_operators_as_the_dense_product(alpha):
    # the gate's product from the three diagonals equals the dense m x m
    # products along the axes to rounding, on an uneven grid and on a
    # transposed (non-contiguous) solution as the solve returns it
    g = Grid3.box(1.0, 2.0, (9, 11, 12))
    axes = factorization._axis_operators(potentials(alpha, g), g)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 9, 7)) + 1j * rng.standard_normal((10, 9, 7))
    x = np.transpose(x, (2, 1, 0))
    for s in INVOLUTION_SIGNS:
        ops = [axes[j][s_j] for j, s_j in enumerate(s)]
        want = sum(factorization._along(a, x, j) for j, a in enumerate(ops))
        got = factorization._kronecker_sum_apply(ops, x)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_right_inverse_decomposes_each_axis_operator_once(monkeypatch):
    # s_kj = ±1, so the four components share two operators per axis: one
    # eigh for each real operator, one schur for each complex one
    calls = {"eigh": 0, "eig": 0, "inv": 0, "cond": 0, "schur": 0}
    for name in calls:
        owner = factorization if name == "schur" else np.linalg
        original = getattr(owner, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    g = box(9)
    f = _complex_data(g)
    for alpha, eigh, schur in [(reciprocal_alpha(), 6, 0), (_complex_axis_alpha(), 4, 2)]:
        calls.update(dict.fromkeys(calls, 0))
        right_inverse(f, alpha)
        assert calls == {"eigh": eigh, "eig": 0, "inv": 0, "cond": 0, "schur": schur}
        # the solver factors when it is built; its solves factor nothing
        solver = _solver(alpha, g)
        calls.update(dict.fromkeys(calls, 0))
        for k, s in enumerate(INVOLUTION_SIGNS):
            solver.solve(f.data[k][1:-1, 1:-1, 1:-1], s)
        assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("alpha", [reciprocal_alpha(), _complex_axis_alpha(), _sqrt_alpha(1e3)],
                         ids=["reciprocal", "nu_i_e1", "sqrt"])
def test_one_component_solve_is_right_inverses_component(alpha):
    # a caller that needs one component solves that one alone, to the bit
    g = box(9)
    f = _complex_data(g)
    inner = (slice(1, -1),) * 3
    u = right_inverse(f, alpha).u
    solver = _solver(alpha, g)
    for k, s in enumerate(INVOLUTION_SIGNS):
        assert np.array_equal(solver.solve(f.data[k][inner], s)[0], u.data[k][inner])


def test_right_inverse_schur_path_for_ill_conditioned_basis(caplog):
    # each axis operator is complex, so every component solve runs the
    # Schur back-substitution with a trsyl per plane
    alf = _sqrt_alpha(1e3)
    g = box(17)
    f = _complex_data(g)
    with caplog.at_level(logging.DEBUG):
        out = right_inverse(f, alf)
    assert not caplog.records
    want = _direct_solve(f, alf)
    assert np.abs(out.u.data - want).max() <= 1e-12 * np.abs(want).max()
    assert out.solver_residual <= 1e-10


def test_right_inverse_solves_a_strongly_non_normal_operator_at_65():
    # c = 1e4 on 65^3: a 3-D sparse LU of this operator runs out of memory
    out = right_inverse(_complex_data(box(65)), _sqrt_alpha(1e4))
    assert out.solver_residual <= 1e-10


def test_right_inverse_condition_of_the_dirichlet_laplacian():
    # alpha = i e1 gives -lap_h - 1 on every component, whose eigenvalues
    # are sum_j 4/h^2 sin^2(k_j pi / 2(m+1)) - 1, k_j = 1..m
    g = box(9)
    m, h = g.shape[0] - 2, g.spacing[0]
    line = 4.0 / h ** 2 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2
    lam = line[:, None, None] + line[None, :, None] + line[None, None, :] - 1.0
    alf = SeparableAlpha((1j, 0, 0))
    for j, pair in enumerate(factorization._axis_operators(potentials(alf, g), g)):
        for a in pair.values():
            t, _ = factorization._diagonalize(a)
            assert np.allclose(np.sort(t), line - (j == 0), rtol=1e-13, atol=0.0)
    out = right_inverse(_complex_data(g), alf)
    want = np.abs(lam).max() / np.abs(lam).min()
    assert out.condition == pytest.approx(want, rel=1e-12)
