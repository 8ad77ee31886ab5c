import itertools

import numpy as np
import pytest
from numpy.random import default_rng

from biquat.algebra import Biquaternion, E0, E1
from biquat.alpha import AxialAlpha, SeparableAlpha
from biquat.factorization import (AxialOperators, c_map, j_map, pi_map, q_map,
                                  zero_divisor_reduction)
from biquat.grid import BQField, Grid3, laplacian, laplacian_wide, linf
from biquat.harness import ALPHA_NULL, ALPHA_TAN, ALPHA_X2, TOL, _smooth_bq
from test_grid import _split_in_two


def box(n=9):
    return Grid3.box(0.0, 1.0, n)


def test_operator_algebra_exact():
    g = box()
    ops = AxialOperators(ALPHA_X2, g)
    u = _smooth_bq(g, default_rng(1))
    s = u.linf()
    assert (c_map(c_map(u)) - u).linf() <= TOL * s
    assert (j_map(j_map(u)) - u).linf() <= TOL * s
    assert (c_map(j_map(u)) - j_map(c_map(u))).linf() <= TOL * s
    assert (q_map(q_map(u, 1), 1) - q_map(u, 1)).linf() <= TOL * s
    assert (q_map(q_map(u, 1), -1)).linf() <= TOL * s
    assert (q_map(u, 1) + q_map(u, -1) - u).linf() <= TOL * s
    assert (q_map(ops.b(u), 1) - ops.b(q_map(u, 1))).linf() <= TOL * ops.b(u).linf()


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5, 1j])
def test_schro_takes_only_signs_plus_minus_one(sign):
    # any other sign scales the i D a1 term into an operator of neither pair
    g = box(7)
    ops = AxialOperators(ALPHA_X2, g)
    u = BQField(g, np.ones((4, *g.shape), dtype=complex))
    with pytest.raises(ValueError, match="sign"):
        ops.schro(u, sign)


def test_c_map_is_e1_sandwich():
    g = box(5)
    u = _smooth_bq(g, default_rng(2))
    sandwich = -1.0 * (E1 * u * E1)
    assert (c_map(u) - sandwich).linf() <= TOL * u.linf()


def test_jc_is_right_multiplication_by_ie1():
    g = box(5)
    u = _smooth_bq(g, default_rng(3))
    rhs = u * Biquaternion(0, 1j, 0, 0)
    assert (j_map(c_map(u)) - rhs).linf() <= TOL * u.linf()


@pytest.mark.parametrize("shape", [(9, 9, 9), (7, 9, 12)])
def test_a_equals_negated_laplacian_minus_alpha_squared(shape):
    # bit for bit, NaN rim included: (-lap) + ((-alpha**2) u) rounds as
    # (-lap) - (alpha**2 u), since negation is exact
    g = Grid3.box(0.0, 1.0, shape)
    ops = AxialOperators(ALPHA_X2, g)
    u = _smooth_bq(g, default_rng(6))
    for wide, lap in ((False, laplacian), (True, laplacian_wide)):
        want = (-lap(u) - ops.alpha_sq * u).data
        assert np.array_equal(ops.a(u, wide).data, want, equal_nan=True)


def test_requires_axial_alpha():
    with pytest.raises(ValueError, match="axial"):
        AxialOperators(SeparableAlpha((1, 0, 0)), box())
    with pytest.raises(ValueError, match="axial"):
        zero_divisor_reduction(SeparableAlpha((1, 0, 0)), box())


def test_pi_involution_and_unit_value():
    g = box()
    u = _smooth_bq(g, default_rng(5))
    assert (pi_map(pi_map(u)) - u).linf() <= TOL * u.linf()
    # direct-multiplication oracle on the unit: Pi e0 = i e1
    e0_field = BQField.constant(g, E0)
    want = 0.5 * (E0 + Biquaternion(0, 1j, 0, 0) * E0 - (-1.0) * (E1 * E0 * E1)
                  + Biquaternion(0, 1j, 0, 0) * (-1.0) * (E1 * E0 * E1))
    assert (pi_map(e0_field) - BQField.constant(g, want)).linf() <= TOL
    assert want.isclose(Biquaternion(0, 1j, 0, 0))


def _bits(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b have one shape and the same bits, NaN payloads and the
    signs of zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_bundle_samples_the_gradient_once(monkeypatch):
    # grad a1 is sampled once for both multipliers, which stay in its
    # broadcast shape; B u, the J term's (D a1) u and D(alpha) equal, bit
    # for bit, the BQField products with D a1 = from_vector(grad) and
    # D(alpha) = (D a1) e1, NaN rim of a numeric gradient included; inline,
    # then with the calls split in two runs
    calls = []
    original = AxialAlpha.grad_a1_components

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(AxialAlpha, "grad_a1_components", counted)
    g = Grid3.box(0.0, 1.0, (18, 9, 12))
    u = _smooth_bq(g, default_rng(4))
    alphas = (ALPHA_X2, ALPHA_TAN, AxialAlpha(lambda a, b, c: np.sin(a * b) + 0j, 0.3, 0.0))
    for split, alf in itertools.product((False, True), alphas):
        if split:
            _split_in_two(monkeypatch)
        calls.clear()
        ops = AxialOperators(alf, g)
        assert len(calls) == 1
        d_a1 = BQField.from_vector(g, *original(alf, g))
        d_alpha = d_a1 * E1
        assert _bits(alf.d_alpha(g).data, d_alpha.data)
        assert _bits(BQField.from_components(g, *ops.b_mult).data, (-d_alpha).data)
        assert _bits(BQField.from_components(g, *ops.d_alpha1).data, d_a1.data)
        assert _bits(ops.b(u).data, ((-d_alpha) * u).data)
        for sign in (1, -1):
            want = ops.a(u) + float(sign) * 1j * (d_a1 * u)
            assert _bits(ops.schro(u, sign).data, want.data)
    # a constant gradient holds no grid-sized array
    ops = AxialOperators(ALPHA_X2, g)
    assert ops.b_mult.shape == (4, 1, 1, 1)
    assert all(d.shape == (1, 1, 1) for d in ops.d_alpha1)
    assert ops.alpha_sq.shape == (1, 9, 1)


def test_zero_divisor_reduction_classification():
    # what each report holds beyond its case, which the axial suite's rows
    # check along with the closing residuals: the unknown of the closing
    # equation, beta0 and the multiplier that builds v from a scalar
    g = box()
    x1, x2, _ = g.mesh()
    # case i: v = (-1 + i e2) g with harmonic g = x1 x2 is the multiplier
    # (i D a1 + alpha^2) times g/a1'
    rep = zero_divisor_reduction(ALPHA_TAN, g)
    assert rep.potential is None and rep.unknown == "v"
    gharm = x1 * x2
    v = BQField.from_components(g, -gharm, 0.0, 1j * gharm, 0.0)
    da = 1.0 / np.cos(x2 + 0.2) ** 2
    rebuilt = rep.multiplier * BQField.from_scalar(g, gharm / da)
    assert (rebuilt - v).linf() <= 100 * TOL * max(1.0, v.linf())
    # case ii: v = (D a1) f closes an equation for f
    assert zero_divisor_reduction(ALPHA_NULL, g).unknown == "f"
    # case iii: v = (beta0 - beta) f with beta0 = 1 for f = exp(-x2^2/2)
    rep = zero_divisor_reduction(ALPHA_X2, g)
    assert linf(rep.beta0 - 1.0) <= TOL
    f = np.exp(-x2 ** 2 / 2.0)
    v = BQField.from_components(g, f, 0.0, -1j * f, 0.0)
    assert (rep.multiplier * BQField.from_scalar(g, f) - v).linf() <= TOL * 10


def test_reduction_degenerate_has_no_multiplier():
    g = box()
    const = AxialAlpha(0.7, 0.0, 0.0, grad_a1=(0.0, 0.0, 0.0))
    rep = zero_divisor_reduction(const, g)
    assert rep.case == "degenerate"
    assert rep.multiplier is None and rep.potential is None
