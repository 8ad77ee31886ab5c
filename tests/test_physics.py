import math
from dataclasses import replace

import numpy as np
import pytest

from biquat.algebra import Biquaternion
from biquat.grid import BQField, Grid3, laplacian, linf, nabla
from biquat.physics import (MediumFields, beltrami_field, circular_wave,
                            diagonalize_em, forcefree_split, medium_alpha,
                            static_maxwell_residual, undiagonalize_em)
from smooth import smooth_field

TOL = 1e-12


def box(n=9):
    return Grid3.box(1.0, 2.0, n)


def test_medium_alpha_constant_vanishes():
    g = box()
    med = MediumFields(eps=3.0, mu=2.0)
    assert medium_alpha(med, g, "eps").linf() <= TOL
    assert medium_alpha(med, g, "mu").linf() <= TOL


def test_medium_alpha_exponential_closed_form():
    g = box()
    med = MediumFields(
        eps=lambda a, b, c: np.exp(2.0 * a), mu=1.0,
        separable_eps=((lambda x: np.exp(2.0 * x), lambda x: 2.0 * np.exp(2.0 * x)),
                       (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
                       (lambda x: np.ones_like(x), lambda x: np.zeros_like(x))))
    closed = medium_alpha(med, g, "eps")
    want = BQField.constant(g, Biquaternion.vector(1.0, 0.0, 0.0))
    assert (closed - want).linf() <= TOL
    # the numeric gradient of the same medium without factors agrees at
    # second order
    errs = {}
    for n in (17, 33):
        gg = box(n)
        errs[n] = (medium_alpha(replace(med, separable_eps=None), gg, "eps")
                   - medium_alpha(med, gg, "eps")).linf()
    assert 1.7 <= math.log(errs[17] / errs[33], 2) <= 2.3


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


def test_static_residual_constant_field():
    g = box()
    med = MediumFields(eps=2.0, mu=1.5)
    e_const = BQField.constant(g, Biquaternion.vector(1.0, -2.0, 0.5))
    assert static_maxwell_residual(e_const, med, which="E").linf() <= TOL
    assert static_maxwell_residual(e_const, med, which="H").linf() <= TOL


def test_static_manufactured_source_cancels_scalar_slot():
    g = box()
    med = MediumFields(eps=2.0, mu=1.0)
    e = smooth_field(g, 1).vector_part()
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


def test_diagonalization_roundtrip():
    g = box()
    e = smooth_field(g, 2).vector_part()
    h = smooth_field(g, 3).vector_part()
    phi, psi = diagonalize_em(e, h)
    e2, h2 = undiagonalize_em(phi, psi)
    assert (e2 - e).linf() <= TOL * e.linf()
    assert (h2 - h).linf() <= TOL * max(1.0, h.linf())


def test_slow_medium_wave_pair_and_helmholtz():
    nu = 1.5
    errs_pair = {}
    errs_helm = {}
    for n in (17, 33):
        g = box(n)
        b = circular_wave(g, nu, -1)
        e, h = b, 1j * b
        # D E = i nu H and D H = -i nu E at discretization accuracy
        r1 = nabla(e) - 1j * nu * h
        r2 = nabla(h) + 1j * nu * e
        errs_pair[n] = max(r1.linf(), r2.linf())
        phi, psi = diagonalize_em(e, h)
        assert phi.linf() <= TOL  # this helicity puts everything in psi
        r3 = nabla(psi) + nu * psi
        r4 = laplacian(psi) + nu ** 2 * psi
        errs_helm[n] = max(r3.linf(), r4.linf())
    assert 1.7 <= math.log(errs_pair[17] / errs_pair[33], 2) <= 2.3
    assert 1.7 <= math.log(errs_helm[17] / errs_helm[33], 2) <= 2.3


def test_forcefree_split_identity_random():
    g = box()
    f = smooth_field(g, 4)
    x1 = g.mesh()[0]
    nu = np.sin(x1) + 0.2j * x1
    fp, fm, resid = forcefree_split(f, nu)
    assert resid <= TOL
    assert (fp + fm - f).linf() <= TOL * f.linf()


def test_beltrami_fixture():
    # div part is exactly zero: the components vary along x1 only.  The
    # forcefree suite checks this on the coarse grid; here on the fine one.
    b = beltrami_field(box(33), 1.5)
    assert linf(np.nan_to_num(nabla(b).scalar, nan=0.0)) <= TOL


def test_circular_wave_sign_validation():
    with pytest.raises(ValueError):
        circular_wave(box(), 1.0, 0)
