import math

import numpy as np
import pytest

from biquat.algebra import Biquaternion, E0, E1, E2
from biquat.alpha import axial_alpha, constant_alpha
from biquat.alpha import AxialAlpha
from biquat.factorization import (AxialOperators, c_map, j_map, pi_map, q_map,
                                  zero_divisor_reduction)
from biquat.grid import BQField, Grid3, laplacian, linf
from biquat.harness import _aligned_window_bounds, _windowed

TOL = 1e-12

ZEROS = lambda *x: np.zeros_like(x[0])
ONES = lambda *x: np.ones_like(x[0])


def box(n=9):
    return Grid3.box(0.0, 1.0, n)


def smooth_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    x1, x2, x3 = grid.mesh()
    data = np.zeros((4, *grid.shape), dtype=complex)
    for comp in range(4):
        for _ in range(3):
            kv = rng.integers(-2, 3, size=3)
            c = complex(rng.normal(), rng.normal())
            data[comp] += c * np.exp(1j * (kv[0] * x1 + kv[1] * x2 + kv[2] * x3))
    return BQField(grid, data)


def alpha_x2():
    return axial_alpha(lambda a, b, c: b + 0j, 0.0, 0.0,
                       grad_a1=(ZEROS, ONES, ZEROS))


def alpha_null():
    # a1 = x2 + i x3: grad a1 is a null vector, (D a1)^2 = 0
    return axial_alpha(lambda a, b, c: b + 1j * c, 0.0, 0.0,
                       grad_a1=(ZEROS, ONES, lambda *x: 1j * np.ones_like(x[0])))


def null_direction_solution(grid):
    # closed form solving the diagonal '+' equation for alpha_null:
    # v = (D a1) f with f = exp(s^3/3 + t), s = x2 + i x3, t = (x2 - i x3)/4
    x1, x2, x3 = grid.mesh()
    s = x2 + 1j * x3
    t = (x2 - 1j * x3) / 4.0
    f = np.exp(s ** 3 / 3.0 + t)
    return BQField.from_components(grid, 0.0, 0.0, f, 1j * f)


def test_operator_algebra_exact():
    g = box()
    ops = AxialOperators(alpha_x2(), g)
    u = smooth_field(g, 1)
    s = u.linf()
    assert (c_map(c_map(u)) - u).linf() <= TOL * s
    assert (j_map(j_map(u)) - u).linf() <= TOL * s
    assert (c_map(j_map(u)) - j_map(c_map(u))).linf() <= TOL * s
    assert (q_map(q_map(u, 1), 1) - q_map(u, 1)).linf() <= TOL * s
    assert (q_map(q_map(u, 1), -1)).linf() <= TOL * s
    assert (q_map(u, 1) + q_map(u, -1) - u).linf() <= TOL * s
    assert (q_map(ops.b(u), 1) - ops.b(q_map(u, 1))).linf() <= TOL * ops.b(u).linf()


def test_c_map_is_e1_sandwich():
    g = box(5)
    u = smooth_field(g, 2)
    sandwich = -1.0 * (E1 * u * E1)
    assert (c_map(u) - sandwich).linf() <= TOL * u.linf()


def test_jc_is_right_multiplication_by_ie1():
    g = box(5)
    u = smooth_field(g, 3)
    rhs = u * Biquaternion(0, 1j, 0, 0)
    assert (j_map(c_map(u)) - rhs).linf() <= TOL * u.linf()


def test_requires_axial_alpha():
    with pytest.raises(ValueError, match="axial"):
        AxialOperators(constant_alpha(1, 0, 0), box())
    with pytest.raises(ValueError, match="axial"):
        zero_divisor_reduction(constant_alpha(1, 0, 0), box())


def test_diagonal_plus_potential_value():
    # for a1 = x2 the '+' equation potential -(alpha^2 - i D a1) = x2^2 + i e2
    g = box()
    ops = AxialOperators(alpha_x2(), g)
    x2 = g.mesh()[1]
    assert linf(-ops.alpha_sq - x2 ** 2) <= TOL
    assert (ops.d_alpha1 - BQField.constant(g, E2)).linf() <= TOL


def test_pi_involution_and_unit_value():
    g = box()
    u = smooth_field(g, 5)
    assert (pi_map(pi_map(u)) - u).linf() <= TOL * u.linf()
    # direct-multiplication oracle on the unit: Pi e0 = i e1
    e0_field = BQField.constant(g, E0)
    want = 0.5 * (E0 + Biquaternion(0, 1j, 0, 0) * E0 - (-1.0) * (E1 * E0 * E1)
                  + Biquaternion(0, 1j, 0, 0) * (-1.0) * (E1 * E0 * E1))
    assert (pi_map(e0_field) - BQField.constant(g, want)).linf() <= TOL
    assert want.isclose(Biquaternion(0, 1j, 0, 0))


def test_bundle_samples_the_gradient_once(monkeypatch):
    # grad a1 feeds both d_alpha1 and the B multiplier: one sampling
    calls = []
    original = AxialAlpha.grad_a1_components

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(AxialAlpha, "grad_a1_components", counted)
    g = box()
    for alf in (alpha_x2(), axial_alpha(lambda a, b, c: np.sin(a * b) + 0j, 0.3, 0.0)):
        calls.clear()
        ops = AxialOperators(alf, g)
        assert len(calls) == 1
        # the two multipliers agree with D(alpha) = (D a1) e1
        assert (ops.b_mult + alf.d_alpha(g)).linf() <= TOL
        assert (ops.d_alpha1 * E1 - alf.d_alpha(g)).linf() <= TOL


def test_zero_divisor_reduction_classification():
    g = box()
    alf_tan = axial_alpha(lambda a, b, c: np.tan(b + 0.2) + 0j, 1.0, 0.0,
                          grad_a1=(ZEROS, lambda a, b, c: 1.0 / np.cos(b + 0.2) ** 2,
                                   ZEROS))
    assert zero_divisor_reduction(alf_tan, g).case == "i"
    assert zero_divisor_reduction(alpha_null(), g).case == "ii"
    rep3 = zero_divisor_reduction(alpha_x2(), g)
    assert rep3.case == "iii"
    assert linf(rep3.beta0 - 1.0) <= TOL
    const = axial_alpha(lambda a, b, c: 0.7 * np.ones_like(a), 0.0, 0.0,
                        grad_a1=(ZEROS, ZEROS, ZEROS))
    assert zero_divisor_reduction(const, g).case == "degenerate"


def test_reduction_case_i_closes_exactly():
    # v = (-1 + i e2) g with harmonic quadratic g: the '+' equation's
    # potential annihilates the multiplier pointwise and lap v = 0 exactly
    g = box()
    alf_tan = axial_alpha(lambda a, b, c: np.tan(b + 0.2) + 0j, 1.0, 0.0,
                          grad_a1=(ZEROS, lambda a, b, c: 1.0 / np.cos(b + 0.2) ** 2,
                                   ZEROS))
    rep = zero_divisor_reduction(alf_tan, g)
    assert rep.case == "i" and rep.potential is None and rep.unknown == "v"
    ops = AxialOperators(alf_tan, g)
    x1, x2, _ = g.mesh()
    gharm = x1 * x2
    v = BQField.from_components(g, -gharm, 0.0, 1j * gharm, 0.0)
    res = ops.schro(v, +1)
    scale = max(linf(ops.alpha_sq) * v.linf(), 1.0)
    assert res.linf() <= TOL * scale
    # the multiplier relation: v is (i D a1 + alpha^2) times g/a1'
    da = 1.0 / np.cos(x2 + 0.2) ** 2
    factor = gharm / da
    rebuilt = rep.multiplier * BQField.from_scalar(g, factor)
    assert (rebuilt - v).linf() <= 100 * TOL * max(1.0, v.linf())


def test_reduction_case_ii_closes_second_order():
    bounds = _aligned_window_bounds(box(17), 0.15)
    errs = []
    for n in (17, 33):
        g = box(n)
        rep = zero_divisor_reduction(alpha_null(), g)
        assert rep.case == "ii" and rep.unknown == "f"
        ops = AxialOperators(alpha_null(), g)
        v = null_direction_solution(g)
        errs.append(_windowed(ops.schro(v, +1), bounds).linf()
                    / max(laplacian(v).linf(), 1.0))
    o = math.log(errs[0] / errs[1], 2)
    assert 1.7 <= o <= 2.3


def test_reduction_case_iii_closes_second_order():
    # v = (beta0 - beta) f with f = exp(-x2^2/2): the harmonic-oscillator
    # ground state closes the scalar equation (lap + beta0 + alpha^2) f = 0
    errs = []
    for n in (17, 33):
        g = box(n)
        rep = zero_divisor_reduction(alpha_x2(), g)
        ops = AxialOperators(alpha_x2(), g)
        x2 = g.mesh()[1]
        f = np.exp(-x2 ** 2 / 2.0)
        v = BQField.from_components(g, f, 0.0, -1j * f, 0.0)
        rebuilt = rep.multiplier * BQField.from_scalar(g, f)
        assert (rebuilt - v).linf() <= TOL * 10
        res = ops.schro(v, +1)
        errs.append(res.linf() / max(laplacian(v).linf(), 1.0))
    o = math.log(errs[0] / errs[1], 2)
    assert 1.7 <= o <= 2.3


def test_reduction_degenerate_has_no_multiplier():
    g = box()
    const = axial_alpha(lambda a, b, c: 0.7 * np.ones_like(a), 0.0, 0.0,
                        grad_a1=(ZEROS, ZEROS, ZEROS))
    rep = zero_divisor_reduction(const, g)
    assert rep.multiplier is None and rep.potential is None
