import operator

import numpy as np
import pytest
from numpy.random import default_rng

from biquat import dirac, grid
from biquat.algebra import E0, Biquaternion, right_projector, split_projectors
from biquat.dirac import (G0, G1, G2, G3, G5, DiracParams, SpinorField,
                          apply_dirac, bq_to_spinor, equivalent_alpha,
                          free_plane_wave, intertwining_residual,
                          manufactured_split_solution, pseudoscalar_split,
                          spinor_to_bq)
from biquat.grid import (BQField, Grid3, linf, nabla, nabla_alpha, partial_deriv,
                         reflect_x3, sample)
from biquat.physics import forcefree_split
from biquat.harness import (DIRAC_BETA, TOL, SuiteConfig, _order_check, _smooth_bq,
                            _smooth_spinor, check_dirac, check_maxwell)
from test_grid import _split_in_two, _traced_peak


def sym_grid(n=9):
    return Grid3.box((1.0, 1.0, -0.5), (2.0, 2.0, 0.5), n)


def test_transform_roundtrip_and_linearity():
    g = sym_grid()
    phi = _smooth_spinor(g, default_rng(1))
    psi = _smooth_spinor(g, default_rng(2))
    assert (bq_to_spinor(spinor_to_bq(phi)) - phi).linf() <= TOL * phi.linf()
    f = _smooth_bq(g, default_rng(3))
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
    phi = _smooth_spinor(g, default_rng(4))
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


@pytest.mark.parametrize("kind", ["scalar", "electric", "pseudoscalar"])
def test_intertwining_residual_rounding_level(kind):
    g = sym_grid()
    # an x3-asymmetric potential given as its samples, as the dirac suite
    # gives its potentials, must enter reflected
    pot = sample(g, lambda a, b, c: np.cos(a) + 0.5 * c + 0.3 * c * b)
    params = DiracParams(omega=0.7, m=1.3, kind=kind, phi=pot)
    worst = 0.0
    for seed in range(20):
        phi = _smooth_spinor(g, default_rng(100 + seed))
        res, scale = intertwining_residual(phi, params)
        worst = max(worst, res.linf() / max(scale, 1.0))
    assert worst <= TOL


def test_pseudoscalar_array_potential_matches_callable():
    # nu is the reflected potential whether it is given as a callable or
    # as its samples
    g = sym_grid()
    pot = lambda a, b, c: np.cos(a) + 0.5 * c + 0.3 * c * b
    nu_callable = equivalent_alpha(
        DiracParams(omega=0.7, m=1.3, kind="pseudoscalar", phi=pot), g).scalar
    nu_array = equivalent_alpha(
        DiracParams(omega=0.7, m=1.3, kind="pseudoscalar", phi=sample(g, pot)), g).scalar
    assert np.array_equal(nu_array, nu_callable)


def test_intertwining_zero_field():
    g = sym_grid()
    res, _ = intertwining_residual(
        SpinorField.zeros(g), DiracParams(omega=0.7, m=1.3, kind="scalar", phi=None))
    assert res.linf() == 0.0


def test_dirac_params_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown potential kind"):
        DiracParams(omega=0.7, m=1.3, kind="vector")


def _nan_node(g, value=0.4 - 0.2j):
    # a coefficient that is NaN at one interior node; norms would skip that
    # node as the invalid rim and read a rounding-level residual
    vals = np.full(g.shape, value)
    vals[4, 4, 4] = np.nan
    return vals


def test_phi_values_rejects_nan_potential_node():
    g = sym_grid()
    params = DiracParams(omega=0.7, m=1.3, kind="scalar", phi=_nan_node(g, 0.3))
    with pytest.raises(ValueError, match="^phi .*non-finite"):
        params.phi_values(g)
    with pytest.raises(ValueError, match="^phi .*non-finite"):
        intertwining_residual(_smooth_spinor(g, default_rng(5)), params)


def test_pseudoscalar_split_rejects_nan_nu_node():
    g = sym_grid()
    f = _smooth_bq(g, default_rng(6))
    with pytest.raises(ValueError, match="^nu .*non-finite"):
        pseudoscalar_split(f, _nan_node(g), Biquaternion.vector(-0.7j, -1.3, 0.0))


@pytest.mark.parametrize("kvec, m", [
    ((1.0, 0.5), 1.3),
    ((1.0, 0.5, -0.8, 0.2), 1.3),
    ((1.0, np.nan, -0.8), 1.3),
    ((1.0, 0.5, -0.8), np.nan),
])
def test_free_plane_wave_rejects_bad_input(kvec, m):
    with pytest.raises(ValueError, match="three finite kvec entries and a finite m"):
        free_plane_wave(sym_grid(), kvec, m)


@pytest.mark.parametrize("nu", [np.full(sym_grid().shape, 0.4 - 0.2j), np.nan, complex("nan+1j")])
def test_manufactured_split_solution_requires_finite_scalar_nu(nu):
    with pytest.raises(ValueError, match="finite scalar"):
        manufactured_split_solution(sym_grid(), nu, Biquaternion.vector(-0.7j, -1.3, 0.0))


def test_apply_matches_einsum_bitwise():
    # every constant matrix the module applies, on data with a NaN rim
    g = sym_grid()
    data = _smooth_spinor(g, default_rng(8)).data
    for axis in (1, 2, 3):
        rim = [slice(None)] * 4
        rim[axis] = [0, -1]
        data[tuple(rim)] = np.nan
    matrices = [G0, G1, G2, G3, G5, dirac._FWD, dirac._INV, dirac._VOLUME,
                *(m for m, _ in dirac._KINDS.values())]
    assert len(matrices) == 11
    for m in matrices:
        want = np.einsum("ab,b...->a...", m, data)
        got = dirac._apply(m, data)
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)


# ------------------------------------------------------------------
# the blocked Dirac kernel against the whole-field formulas
# ------------------------------------------------------------------

def _apply_dirac_reference(phi, p):
    # term by term on whole fields, each constant matrix applied by _apply
    g = phi.grid
    out = 1j * p.omega * dirac._apply(G0, phi.data)
    out = out + 1j * p.m * phi.data
    for k, gk in enumerate((G1, G2, G3)):
        out = out + dirac._apply(gk, partial_deriv(phi.data, g, k))
    if p.phi is not None:
        out = out + p.phi_values(g) * dirac._apply(dirac._KINDS[p.kind][0], phi.data)
    return out


def _intertwining_reference(phi, p):
    g = phi.grid
    lhs = nabla_alpha(spinor_to_bq(phi), equivalent_alpha(p, g))
    volume = dirac._apply(dirac._VOLUME, _apply_dirac_reference(phi, p))
    rhs = spinor_to_bq(SpinorField(g, volume))
    return lhs - rhs, max(lhs.linf(), rhs.linf())


def _params():
    pot = lambda a, b, c: np.cos(a) + 0.5 * c + 0.3 * c * b
    return [DiracParams(omega=0.7, m=1.3, kind=kind, phi=phi)
            for kind in ("scalar", "electric", "pseudoscalar") for phi in (pot, None)]


def _interior(a):
    return a[:, 1:-1, 1:-1, 1:-1]


def test_every_matrix_row_holds_one_unit_entry():
    for m in (G0, G1, G2, G3, *(k for k, _ in dirac._KINDS.values())):
        assert all(np.count_nonzero(row) == 1 for row in m)
        assert set(m[m != 0].tolist()) <= {1, -1, 1j, -1j}
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        dirac._unit_terms(bad)
    with pytest.raises(AssertionError, match="not a unit entry"):
        dirac._unit_terms(2 * np.eye(4))


# odd, even and uneven node counts, each symmetric about x3 = 0; 23 x1
# nodes make three blocks, the last a short one
_KERNEL_SHAPES = [(9, 9, 9), (10, 10, 10), (23, 8, 11)]


@pytest.mark.parametrize("split", [False, True], ids=["inline", "two_runs"])
@pytest.mark.parametrize("shape", _KERNEL_SHAPES, ids=str)
def test_apply_dirac_equals_whole_field_reference(shape, split, monkeypatch):
    if split:
        _split_in_two(monkeypatch)
    g = Grid3.box((1.0, 1.0, -0.5), (2.0, 2.5, 0.5), shape)
    phi = _smooth_spinor(g, default_rng(sum(shape)))
    rim = np.ones(g.shape, dtype=bool)
    rim[1:-1, 1:-1, 1:-1] = False
    for p in _params():
        got = apply_dirac(phi, p).data
        want = _apply_dirac_reference(phi, p)
        assert np.array_equal(_interior(got).view(np.int64), _interior(want).view(np.int64))
        assert np.all(np.isnan(got[:, rim]))


@pytest.mark.parametrize("split", [False, True], ids=["inline", "two_runs"])
@pytest.mark.parametrize("shape", _KERNEL_SHAPES, ids=str)
def test_intertwining_residual_equals_whole_field_reference(shape, split, monkeypatch):
    if split:
        _split_in_two(monkeypatch)
    g = Grid3.box((1.0, 1.0, -0.5), (2.0, 2.5, 0.5), shape)
    phi = _smooth_spinor(g, default_rng(sum(shape) + 1))
    for p in _params():
        res, scale = intertwining_residual(phi, p)
        want, want_scale = _intertwining_reference(phi, p)
        assert scale == want_scale
        assert np.array_equal(res.data, want.data, equal_nan=True)
        assert res.l2() == want.l2()


def test_pseudoscalar_split_files_each_half_in_key_order():
    g = sym_grid()
    f = _smooth_bq(g, default_rng(14))
    nu = sample(g, lambda a, b, c: 0.3 * a - 0.2j * c)
    split = pseudoscalar_split(f, nu, DIRAC_BETA)
    pair = split_projectors(DIRAC_BETA)
    want = {}
    for b, s_mult in ((1, pair.plus), (-1, pair.minus)):
        half = forcefree_split(f * s_mult, nu + b * pair.lam)
        want.update({(a, b): (half.part(a), half.alphas[a]) for a in half.factors})
    assert list(split.factors) == list(split.alphas) == list(want)
    for key, (part, alpha) in want.items():
        assert np.array_equal(split.part(key).data.view(np.int64), part.data.view(np.int64))
        assert all(np.array_equal(x, y) for x, y in zip(split.alphas[key], alpha))


def test_dirac_calls_hold_few_fields(monkeypatch):
    # the transforms hold their output alone, reversed in x3 as a view;
    # apply_dirac holds its output, the sampled potential and a block
    # temporary per run; intertwining_residual holds both sides, the
    # residual and alpha's one potential component; the splits hold their
    # factors and alphas and form no part.  Calls split in two runs, each
    # with its own temporaries.
    monkeypatch.setattr(grid, "_cpus", lambda: 2)
    g = Grid3.box((1.0, 1.0, -0.5), (2.0, 2.0, 0.5), 65)
    rng = np.random.default_rng(19)
    data = rng.normal(size=(4, *g.shape)) + 1j * rng.normal(size=(4, *g.shape))
    phi, f = SpinorField(g, data), BQField(g, data.copy())
    pot = lambda a, b, c: np.sin(a) * b + c
    limits = {"pseudoscalar_split": (lambda: pseudoscalar_split(f, 0.4 - 0.2j, DIRAC_BETA), 0.01),
              "forcefree_split": (lambda: forcefree_split(f, 0.4 - 0.2j), 0.01),
              "spinor_to_bq": (lambda: spinor_to_bq(phi), 1.1),
              "bq_to_spinor": (lambda: bq_to_spinor(f), 1.1)}
    for kind in ("scalar", "electric", "pseudoscalar"):
        p = DiracParams(omega=0.7, m=1.3, kind=kind, phi=pot)
        limits[f"apply_dirac_{kind}"] = (lambda p=p: apply_dirac(phi, p), 1.4)
        limits[f"intertwining_residual_{kind}"] = (lambda p=p: intertwining_residual(phi, p), 3.5)
    for name, (call, fields) in limits.items():
        peak = _traced_peak(call) / data.nbytes
        assert peak <= fields, f"{name} held {peak:.2f} fields"


def test_dirac_suite_frees_the_splits_before_the_plane_wave():
    # at grids (17, 33) the suite peaks at 3.32 fine fields, with one
    # grid's pseudoscalar split alive at a time, forming each part when it
    # is read; splits that stored their four parts read 6.61
    peak = _traced_peak(lambda: check_dirac(SuiteConfig(suite="dirac", grids=(17, 33))))
    assert peak / (64 * 33 ** 3) <= 3.4


def test_maxwell_suite_keeps_one_diagonal_combination():
    # at grids (17, 33) the suite peaks at 5.14 fine fields; forming both
    # combinations of diagonalize_em with b alive reads 7.38, and keeping
    # the coarse-grid fixtures through the two-grid rows reads 6.38
    peak = _traced_peak(lambda: check_maxwell(SuiteConfig(suite="maxwell", grids=(17, 33))))
    assert peak / (64 * 33 ** 3) <= 5.3


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
    pair = split_projectors(beta)
    p_plus = Biquaternion(0.5, 0.5j, 0, 0)
    want = pair.plus * p_plus
    assert (split.part((1, 1)) - BQField.constant(g, want)).linf() <= TOL


def test_pseudoscalar_operator_identity_exact():
    g = sym_grid()
    f = _smooth_bq(g, default_rng(12))
    beta = Biquaternion.vector(-0.7j, -1.3, 0.0)
    x3 = g.mesh()[2]
    nu = 0.2 * x3 + 0.1j  # a genuine scalar field
    res, scale = pseudoscalar_split(f, nu, beta).identity_residual()
    assert res.linf() <= TOL * scale


def test_right_projectors_commute_with_the_operator():
    # the per-part commutation the split rests on, with a varying complex
    # nu:  (D + nu + M^beta)(h S^b) = ((D + nu + b lam) h) S^b  and
    # (D + nu')(g P_1^a) = ((D + a M^{nu' i e1}) g) P_1^a
    from biquat.harness import DIRAC_BETA
    g = sym_grid()
    h = _smooth_bq(g, default_rng(13))
    nu = sample(g, lambda a, b, c: 0.3 * np.sin(3 * a) - 0.4j * np.cos(b) + 0.1j * c)
    pair = split_projectors(DIRAC_BETA)
    zero = np.zeros((1, 1, 1), dtype=complex)

    def rel(a, b):
        return (a - b).linf() / max(a.linf(), b.linf())

    full = (nu, *DIRAC_BETA.components[1:].reshape(3, 1, 1, 1))
    for b, s_mult in ((1, pair.plus), (-1, pair.minus)):
        nu_b = nu + b * pair.lam
        lhs = nabla_alpha(h * s_mult, full)
        rhs = nabla_alpha(h, (nu_b, zero, zero, zero)) * s_mult
        assert rel(lhs, rhs) <= 1e-12
        for a in (1, -1):
            p_mult = right_projector(1, a)
            lhs = nabla_alpha(h * p_mult, (nu_b, zero, zero, zero))
            rhs = nabla_alpha(h, (zero, 1j * a * nu_b, zero, zero)) * p_mult
            assert rel(lhs, rhs) <= 1e-12
    for split in (pseudoscalar_split(h, nu, DIRAC_BETA), forcefree_split(h, nu)):
        res, scale = split.identity_residual()
        assert res.linf() <= TOL * scale


def test_pseudoscalar_split_rejects_zero_divisor_beta():
    g = sym_grid()
    f = BQField.zeros(g)
    with pytest.raises(ValueError, match="zero divisor"):
        pseudoscalar_split(f, 0.0, Biquaternion.vector(-1j, -1.0, 0.0))


def test_manufactured_solution_and_part_equations():
    beta = Biquaternion.vector(-0.7j, -1.3, 0.0)
    nu = 0.4 - 0.2j
    grids = (sym_grid(9), sym_grid(17))
    splits = {}

    def full_equation(g):
        f = manufactured_split_solution(g, nu, beta)
        split = pseudoscalar_split(f, nu, beta)
        assert (split.recombined() - f).linf() <= TOL * f.linf()
        splits[g] = split, f.linf()
        return nabla(f) + nu * f + f * beta, f.linf()

    rows = [_order_check("full", grids, full_equation)]
    for key in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        def part(g, key=key):
            split, scale = splits[g]
            return split.part_residual(key), scale
        rows.append(_order_check(f"part{key}", grids, part))
    assert all(r.passed for r in rows), rows


def test_spinor_and_bq_fields_never_mix():
    g = sym_grid()
    phi, f = _smooth_spinor(g, default_rng(1)), _smooth_bq(g, default_rng(2))
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
    f = cls(g, _smooth_bq(g, default_rng(3)).data)
    out = reflect_x3(f)
    assert type(out) is cls
    assert np.array_equal(out.data, f.data[..., ::-1])
