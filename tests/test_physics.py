import numpy as np
import pytest
from numpy.random import default_rng

from biquat.algebra import Biquaternion
from biquat.grid import BQField, Grid3, laplacian, linf, nabla
from biquat.harness import ORDER_WINDOW, TOL, _smooth_bq, convergence_order
from biquat.physics import (MediumFields, circular_wave,
                            diagonalize_em, forcefree_split, medium_alpha,
                            static_maxwell_residual, undiagonalize_em)


def box(n=9):
    return Grid3.box(1.0, 2.0, n)


def test_medium_alpha_constant_vanishes():
    g = box()
    med = MediumFields(eps=3.0, mu=2.0)
    assert medium_alpha(med, g, "eps").linf() <= TOL
    assert medium_alpha(med, g, "mu").linf() <= TOL


def test_medium_alpha_separable_formula():
    g = box()
    med = MediumFields(
        eps=lambda a, b, c: (a * b * c) ** 2, mu=1.0,
        separable_eps=tuple((lambda x: x ** 2, lambda x: 2.0 * x) for _ in range(3)))
    closed = medium_alpha(med, g, "eps")
    x1, x2, x3 = g.mesh()
    # components (d_k eps_k)/(2 eps_k) = 1/x_k
    for k, xk in enumerate((x1, x2, x3)):
        assert linf(closed.data[k + 1] - 1.0 / xk) <= TOL


def test_medium_validation():
    g = box()
    with pytest.raises(ValueError, match="positive"):
        MediumFields(eps=lambda a, b, c: a - 1.5, mu=1.0).eps_values(g)
    bad = MediumFields(eps=lambda a, b, c: a * b, mu=1.0,
                       separable_eps=tuple((lambda x: x ** 2, lambda x: 2 * x)
                                           for _ in range(3)))
    with pytest.raises(ValueError, match="separable"):
        bad.check_separable(g)
    # the closed form checks the factors before using them
    with pytest.raises(ValueError, match="separable"):
        medium_alpha(bad, g, "eps")
    with pytest.raises(ValueError, match="no separable factorization"):
        MediumFields(eps=1.0, mu=1.0).check_separable(g)
    with pytest.raises(ValueError, match="which must be 'eps' or 'mu'"):
        medium_alpha(MediumFields(eps=1.0, mu=1.0), g, "x")
    with pytest.raises(ValueError, match="which must be 'E' or 'H'"):
        static_maxwell_residual(BQField.zeros(g), MediumFields(eps=1.0, mu=1.0), which="x")


def test_medium_alpha_rejects_non_finite_separable_factor():
    # a derivative factor that is infinite at one node is a pole of the
    # closed-form coefficient, not a valid alpha
    g = box()
    x = g.axis(0)
    med = MediumFields(
        eps=lambda a, b, c: np.exp(a), mu=1.0,
        separable_eps=((np.exp, lambda t: np.where(t == x[4], np.inf, np.exp(t))),
                       (np.ones_like, np.zeros_like), (np.ones_like, np.zeros_like)))
    with pytest.raises(ValueError, match="pole on grid"):
        medium_alpha(med, g, "eps")


def test_medium_rejects_nan_permittivity_and_permeability():
    # NaN compares false with 0, so a test of "<= 0" would let it through
    g = box()

    def nan_at_center(a, b, c):
        vals = np.ones(np.broadcast(a, b, c).shape)
        vals[4, 4, 4] = np.nan
        return vals

    with pytest.raises(ValueError, match="permittivity must be positive"):
        medium_alpha(MediumFields(eps=nan_at_center, mu=1.0), g, "eps")
    with pytest.raises(ValueError, match="permeability must be positive"):
        medium_alpha(MediumFields(eps=1.0, mu=nan_at_center), g, "mu")


def test_static_residual_constant_field():
    g = box()
    med = MediumFields(eps=2.0, mu=1.5)
    e_const = BQField.constant(g, Biquaternion.vector(1.0, -2.0, 0.5))
    assert static_maxwell_residual(e_const, med, which="E").linf() <= TOL
    assert static_maxwell_residual(e_const, med, which="H").linf() <= TOL


def test_static_manufactured_source_cancels_scalar_slot():
    g = box()
    med = MediumFields(eps=2.0, mu=1.0)
    e = _smooth_bq(g, default_rng(1)).vector_part()
    bare = static_maxwell_residual(e, med, which="E")
    rho = -np.sqrt(med.eps_values(g)) * bare.scalar
    cancelled = static_maxwell_residual(e, med, which="E", rho=rho)
    assert linf(np.nan_to_num(cancelled.scalar, nan=0.0)) <= TOL * bare.linf()


def test_static_current_term():
    g = box()
    med = MediumFields(eps=1.0, mu=4.0)
    h_const = BQField.constant(g, Biquaternion.vector(0.0, 1.0, 0.0))
    # (D + M^mu)H = 0 here, so the residual is exactly -sqrt(mu) j
    j = (lambda a, b, c: np.ones_like(a), 0.0, 0.0)
    res = static_maxwell_residual(h_const, med, which="H", current=j)
    assert linf(res.data[1] + 2.0) <= TOL


def _nan_at_center(a, b, c):
    # one NaN interior node of a 9^3 box; norms would skip it as the rim
    vals = np.zeros(np.broadcast(a, b, c).shape)
    vals[4, 4, 4] = np.nan
    return vals


def test_static_residual_rejects_nan_source_node():
    g = box()
    med = MediumFields(eps=2.0, mu=4.0)
    e = _smooth_bq(g, default_rng(1)).vector_part()
    with pytest.raises(ValueError, match="^rho .*non-finite"):
        static_maxwell_residual(e, med, which="E", rho=_nan_at_center)
    with pytest.raises(ValueError, match="^current .*non-finite"):
        static_maxwell_residual(e, med, which="H", current=(0.0, _nan_at_center, 0.0))


def test_static_residual_accepts_a_source_nan_on_the_rim():
    # a rho built from an operator output is NaN on the rim only, where the
    # residual is NaN anyway
    g = box()
    med = MediumFields(eps=2.0, mu=1.0)
    e = _smooth_bq(g, default_rng(1)).vector_part()
    rho = np.ones(g.shape)
    rho[0] = rho[:, -1] = np.nan
    res = static_maxwell_residual(e, med, which="E", rho=rho)
    assert np.isfinite(res.scalar[1:-1, 1:-1, 1:-1]).all()


def test_diagonalization_roundtrip():
    g = box()
    e = _smooth_bq(g, default_rng(2)).vector_part()
    h = _smooth_bq(g, default_rng(3)).vector_part()
    phi, psi = diagonalize_em(e, h)
    e2, h2 = undiagonalize_em(phi, psi)
    assert (e2 - e).linf() <= TOL * e.linf()
    assert (h2 - h).linf() <= TOL * max(1.0, h.linf())


def test_slow_medium_wave_pair_and_helmholtz():
    nu = 1.5
    errs_pair = []
    errs_helm = []
    for n in (17, 33):
        g = box(n)
        b = circular_wave(g, nu, -1)
        e, h = b, 1j * b
        # D E = i nu H and D H = -i nu E at discretization accuracy
        r1 = nabla(e) - 1j * nu * h
        r2 = nabla(h) + 1j * nu * e
        errs_pair.append((g.hmax, max(r1.linf(), r2.linf())))
        phi, psi = diagonalize_em(e, h)
        assert phi.linf() <= TOL  # this helicity puts everything in psi
        r3 = nabla(psi) + nu * psi
        r4 = laplacian(psi) + nu ** 2 * psi
        errs_helm.append((g.hmax, max(r3.linf(), r4.linf())))
    lo, hi = ORDER_WINDOW
    for errs in (errs_pair, errs_helm):
        assert lo <= convergence_order(*errs) <= hi


def test_forcefree_split_identity_random():
    g = box()
    f = _smooth_bq(g, default_rng(4))
    x1 = g.mesh()[0]
    nu = np.sin(x1) + 0.2j * x1
    split = forcefree_split(f, nu)
    fp, fm = split.parts[1], split.parts[-1]
    assert (fp + fm - f).linf() <= TOL * f.linf()


def test_forcefree_split_keeps_a_constant_nu_unexpanded():
    # the split holds its parts and no grid-size array for a constant nu
    g = box()
    f = _smooth_bq(g, default_rng(5))
    split = forcefree_split(f, 1.5)
    arrays = [*split.alpha, *(a for c in split.alphas.values() for a in c)]
    assert all(a.shape == (1, 1, 1) for a in arrays)
    res, scale = split.identity_residual()
    assert res.linf() <= TOL * scale


def test_forcefree_split_rejects_nan_nu_node():
    # norms skip a NaN node as the invalid rim, so the identity residual
    # would read at rounding level
    g = box()
    nu = np.full(g.shape, 1.5)
    nu[4, 4, 4] = np.nan
    with pytest.raises(ValueError, match="^nu .*non-finite"):
        forcefree_split(_smooth_bq(g, default_rng(4)), nu)


def test_beltrami_fixture():
    # div part is exactly zero: the components vary along x1 only.  The
    # forcefree suite checks this on the coarse grid; here on the fine one.
    b = circular_wave(box(33), 1.5, -1)
    assert linf(np.nan_to_num(nabla(b).scalar, nan=0.0)) <= TOL


def test_circular_wave_sign_validation():
    with pytest.raises(ValueError):
        circular_wave(box(), 1.0, 0)
