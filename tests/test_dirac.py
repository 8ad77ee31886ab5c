import math
import operator

import numpy as np
import pytest

from biquat.algebra import Biquaternion, E0
from biquat.dirac import (DiracParams, SpinorField, apply_dirac,
                          bq_to_spinor, equivalent_alpha, free_plane_wave,
                          intertwining_residual, manufactured_split_solution,
                          pseudoscalar_identity_residual, pseudoscalar_split,
                          spinor_to_bq)
from biquat.grid import (BQField, Grid3, linf, nabla, nabla_alpha, reflect_x3,
                         sample)
from smooth import smooth_field

TOL = 1e-12


def sym_grid(n=9):
    return Grid3.box((1.0, 1.0, -0.5), (2.0, 2.0, 0.5), n)


def test_transform_roundtrip_and_linearity():
    g = sym_grid()
    phi = smooth_field(g, 1, SpinorField)
    psi = smooth_field(g, 2, SpinorField)
    assert (bq_to_spinor(spinor_to_bq(phi)) - phi).linf() <= TOL * phi.linf()
    f = smooth_field(g, 3)
    assert (spinor_to_bq(bq_to_spinor(f)) - f).linf() <= TOL * f.linf()
    lhs = spinor_to_bq(2j * phi + psi)
    rhs = 2j * spinor_to_bq(phi) + spinor_to_bq(psi)
    assert (lhs - rhs).linf() <= TOL * max(1.0, lhs.linf())


def test_transform_requires_symmetric_grid():
    g = Grid3.box(1.0, 2.0, 9)
    with pytest.raises(ValueError, match="not node-exact"):
        spinor_to_bq(SpinorField.zeros(g))
    # a potential enters alpha reflected in x3, so alpha needs the same grid
    for kind in ("scalar", "electric", "pseudoscalar"):
        with pytest.raises(ValueError, match="not node-exact"):
            equivalent_alpha(DiracParams(omega=0.7, m=1.3, kind=kind,
                                         phi=lambda a, b, c: c), g)


def test_dirac_zero_potential_kinds_agree():
    g = sym_grid()
    phi = smooth_field(g, 4, SpinorField)
    base = dict(omega=0.7, m=1.3, phi=None)
    out_sc = apply_dirac(phi, DiracParams(kind="scalar", **base))
    out_el = apply_dirac(phi, DiracParams(kind="electric", **base))
    assert np.nanmax(np.abs(out_sc.data - out_el.data)) <= TOL * out_sc.linf()


def test_dirac_constant_field_massless():
    g = sym_grid()
    phi = SpinorField.from_components(g, 1.0, 2.0, -1.0, 0.5)
    out = apply_dirac(phi, DiracParams(omega=0.0, m=0.0, kind="scalar", phi=None))
    assert out.linf() <= TOL


def test_equivalent_alpha_electric_matches_scalar_at_zero_potential():
    g = sym_grid()
    p_sc = DiracParams(omega=0.7, m=1.3, kind="scalar", phi=None)
    p_el = DiracParams(omega=0.7, m=1.3, kind="electric", phi=None)
    d = equivalent_alpha(p_sc, g) - equivalent_alpha(p_el, g)
    assert d.linf() <= TOL


def test_equivalent_alpha_potential_enters_reflected():
    g = sym_grid()
    x1, x2, x3 = g.mesh()
    p = DiracParams(omega=0.0, m=0.0, kind="scalar", phi=lambda a, b, c: c)
    af = equivalent_alpha(p, g)
    # e2 slot carries -(m + phi~) = +x3 after reflection
    assert linf(af.data[2] - x3) <= TOL


@pytest.mark.parametrize("kind", ["scalar", "electric"])
def test_intertwining_residual_rounding_level(kind):
    g = sym_grid()
    # x3-asymmetric potential so the reflection convention actually matters;
    # given as its samples it must enter reflected just the same
    pot = lambda a, b, c: np.cos(a) + 0.5 * c + 0.3 * c * b
    for given in (pot, sample(g, pot)):
        params = DiracParams(omega=0.7, m=1.3, kind=kind, phi=given)
        worst = 0.0
        for seed in range(20):
            phi = smooth_field(g, 100 + seed, SpinorField)
            res, scale = intertwining_residual(phi, params)
            worst = max(worst, res.linf() / max(scale, 1.0))
        assert worst <= TOL


def test_pseudoscalar_array_potential_matches_callable():
    # nu is the reflected potential whether it is given as a callable or
    # as its samples
    g = sym_grid()
    pot = lambda a, b, c: np.cos(a) + 0.5 * c + 0.3 * c * b
    nu_callable, _ = equivalent_alpha(
        DiracParams(omega=0.7, m=1.3, kind="pseudoscalar", phi=pot), g)
    nu_array, _ = equivalent_alpha(
        DiracParams(omega=0.7, m=1.3, kind="pseudoscalar", phi=sample(g, pot)), g)
    assert np.array_equal(nu_array, nu_callable)


def test_intertwining_zero_field():
    g = sym_grid()
    res, _ = intertwining_residual(
        SpinorField.zeros(g), DiracParams(omega=0.7, m=1.3, kind="scalar", phi=None))
    assert res.linf() == 0.0


def test_intertwining_rejects_pseudoscalar():
    g = sym_grid()
    with pytest.raises(ValueError, match="pseudoscalar"):
        intertwining_residual(SpinorField.zeros(g),
                              DiracParams(omega=0.7, m=1.3, kind="pseudoscalar", phi=None))


def test_solution_equivalence_through_transform():
    # a null solution of the free operator maps to a null solution of the
    # first-order quaternionic equation, and residual norms track each other
    g = sym_grid(13)
    wave, params = free_plane_wave(g, (1.0, 0.0, 0.5), 1.3)
    f = spinor_to_bq(wave)
    alpha = equivalent_alpha(params, g)
    quat_res = nabla_alpha(f, alpha).linf() / f.linf()
    dirac_res = apply_dirac(wave, params).linf() / wave.linf()
    assert quat_res <= 10 * dirac_res + 1e-10
    assert dirac_res <= 1e-2  # discretization level on this grid


# ------------------------------------------------------------------
# pseudoscalar splitting
# ------------------------------------------------------------------

def test_pseudoscalar_split_of_unit_scalar():
    g = sym_grid()
    f = BQField.constant(g, E0)
    beta = Biquaternion.vector(-0.7j, -1.3, 0.0)
    split = pseudoscalar_split(f, 0.1, beta)
    # parts are e0 times the quarter multipliers s_b * p_a
    from biquat.algebra import split_projectors
    pair = split_projectors(beta)
    p_plus = Biquaternion(0.5, 0.5j, 0, 0)
    want = pair.plus * p_plus
    assert (split.parts[(1, 1)] - BQField.constant(g, want)).linf() <= TOL


def test_pseudoscalar_operator_identity_exact():
    g = sym_grid()
    f = smooth_field(g, 12)
    beta = Biquaternion.vector(-0.7j, -1.3, 0.0)
    x3 = g.mesh()[2]
    nu = 0.2 * x3 + 0.1j  # a genuine scalar field
    res, scale = pseudoscalar_identity_residual(f, nu, beta)
    assert res.linf() <= TOL * scale


def test_pseudoscalar_split_rejects_zero_divisor_beta():
    g = sym_grid()
    f = BQField.zeros(g)
    with pytest.raises(ValueError, match="zero divisor"):
        pseudoscalar_split(f, 0.0, Biquaternion.vector(-1j, -1.0, 0.0))


def test_manufactured_solution_and_part_equations():
    beta = Biquaternion.vector(-0.7j, -1.3, 0.0)
    nu = 0.4 - 0.2j
    errs = {key: {} for key in ((1, 1), (-1, 1), (1, -1), (-1, -1))}
    full = {}
    for n in (9, 17):
        g = sym_grid(n)
        f = manufactured_split_solution(g, nu, beta)
        res = nabla(f) + nu * f + f * beta
        full[n] = res.linf() / f.linf()
        split = pseudoscalar_split(f, nu, beta)
        assert (split.recombined() - f).linf() <= TOL * f.linf()
        for key in errs:
            errs[key][n] = split.part_residual(*key).linf() / f.linf()
    assert 1.7 <= math.log(full[9] / full[17], 2) <= 2.3
    for key in errs:
        assert 1.7 <= math.log(errs[key][9] / errs[key][17], 2) <= 2.3


def test_spinor_and_bq_fields_never_mix():
    g = sym_grid()
    phi, f = smooth_field(g, 1, SpinorField), smooth_field(g, 2)
    for a, b in ((phi, f), (f, phi)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)


@pytest.mark.parametrize("cls", [BQField, SpinorField])
def test_field_grid_mismatch_rejected(cls):
    a, b = cls.zeros(sym_grid(9)), cls.zeros(sym_grid(11))
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different grids"):
            op(a, b)


@pytest.mark.parametrize("cls", [BQField, SpinorField])
def test_reflect_x3_keeps_type(cls):
    g = sym_grid()
    f = smooth_field(g, 3, cls)
    out = reflect_x3(f)
    assert type(out) is cls
    assert np.array_equal(out.data, f.data[..., ::-1])
