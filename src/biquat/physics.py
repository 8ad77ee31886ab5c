"""Maxwell and force-free-field reductions to the first-order equation.

Covers: the medium coefficient vectors grad(sqrt(eps))/sqrt(eps) and
grad(sqrt(mu))/sqrt(mu), residuals of the static Maxwell pair, the
diagonalization E +- iH of the sourceless slow-medium system, and the
P_1^± splitting of force-free (Beltrami) fields with nonconstant
proportionality factor (a ``grid.RightSplit``, also the inner split of
the Dirac pseudoscalar reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ROUNDING_TOL, right_projector
from .alpha import SeparableAlpha
from .grid import (BQField, Grid3, RightSplit, _block_of, _check_finite, _on_mesh, linf,
                   nabla_alpha, partial_deriv, sample)

__all__ = [
    "MediumFields",
    "medium_alpha",
    "static_maxwell_residual",
    "diagonalize_em",
    "undiagonalize_em",
    "forcefree_split",
    "circular_wave",
]


@dataclass(frozen=True)
class MediumFields:
    """Positive permittivity and permeability, as callables of (x1,x2,x3).

    separable_eps optionally supplies the factorization
    eps = e1(x1)*e2(x2)*e3(x3) as three (factor, derivative) pairs; when
    present, medium_alpha evaluates the eps coefficient vector in closed
    form.
    """

    eps: Callable | float
    mu: Callable | float
    separable_eps: tuple | None = None  # ((f1, df1), (f2, df2), (f3, df3))

    def eps_values(self, grid: Grid3) -> np.ndarray:
        vals = np.real(sample(grid, self.eps))
        if not np.all(vals > 0):
            raise ValueError("permittivity must be positive at all nodes")
        return vals

    def mu_values(self, grid: Grid3) -> np.ndarray:
        vals = np.real(sample(grid, self.mu))
        if not np.all(vals > 0):
            raise ValueError("permeability must be positive at all nodes")
        return vals

    def check_separable(self, grid: Grid3) -> None:
        if self.separable_eps is None:
            raise ValueError("no separable factorization supplied")
        prod = np.ones(grid.shape)
        for k, (fk, _) in enumerate(self.separable_eps):
            prod = prod * np.real(grid.sample_axis(k, fk))
        ref = self.eps_values(grid)
        if linf(prod - ref) > ROUNDING_TOL * max(1.0, linf(ref)):
            raise ValueError("separable factors do not reproduce eps")


def medium_alpha(m: MediumFields, grid: Grid3, which: str = "eps") -> BQField:
    """The coefficient vector grad(sqrt(w))/sqrt(w) for w = eps or mu.

    For eps with separable factors, after checking that they reproduce eps,
    a_k = w_k'(x_k) / (2 w_k(x_k)) exactly, sampled as a ``SeparableAlpha``
    (a non-finite quotient raises); otherwise central differences of
    sqrt(w) (invalid rim).
    """
    if which not in ("eps", "mu"):
        raise ValueError("which must be 'eps' or 'mu'")
    if which == "eps" and m.separable_eps is not None:
        m.check_separable(grid)
        return SeparableAlpha([lambda x, fk=fk, dfk=dfk: np.asarray(dfk(x), dtype=complex)
                               / (2.0 * np.asarray(fk(x), dtype=complex))
                               for fk, dfk in m.separable_eps]).vector_field(grid)
    w = m.eps_values(grid) if which == "eps" else m.mu_values(grid)
    root = np.sqrt(w)
    comps = [partial_deriv(root, grid, k) / root for k in range(3)]
    return BQField.from_vector(grid, *comps)


def static_maxwell_residual(scaled: BQField, m: MediumFields, which: str = "E",
                            rho=None, current=None) -> BQField:
    """Residual of the static equations on the scaled fields.

    For which='E' (scaled = sqrt(eps)*E):  (D + M^eps_vec) E_s + rho/sqrt(eps),
    the source stored in the scalar slot.  For which='H'
    (scaled = sqrt(mu)*H):  (D + M^mu_vec) H_s - sqrt(mu)*j with the vector
    current j subtracted componentwise.  Zero for exact solutions.  Raises
    ValueError when the source used is not finite at an interior node; the
    rim is not checked, since the residual is NaN there.
    """
    if which not in ("E", "H"):
        raise ValueError("which must be 'E' or 'H'")
    grid = scaled.grid
    res = nabla_alpha(scaled, medium_alpha(m, grid, "eps" if which == "E" else "mu"))
    inner = (slice(1, -1),) * 3
    # the sources are added in place: res is a fresh field
    if which == "E" and rho is not None:
        rho_arr = _on_mesh(grid, rho)
        _check_finite([_block_of(rho_arr, inner)], "rho")
        res.data[0] += rho_arr / np.sqrt(m.eps_values(grid))
    if which == "H" and current is not None:
        root = np.sqrt(m.mu_values(grid))
        for k in range(3):
            j_k = _on_mesh(grid, current[k])
            _check_finite([_block_of(j_k, inner)], "current")
            res.data[k + 1] -= root * j_k
    return res


def diagonalize_em(e: BQField, h: BQField):
    """phi = E + iH, psi = E - iH; decouples the sourceless slow-medium
    pair into (D - nu) phi = 0 and (D + nu) psi = 0."""
    return e + 1j * h, e - 1j * h


def undiagonalize_em(phi: BQField, psi: BQField):
    """Exact inverse of ``diagonalize_em``."""
    e = 0.5 * (phi + psi)
    h = (phi - psi) * (-0.5j)
    return e, h


def forcefree_split(f: BQField, nu) -> RightSplit:
    """The P_1^± split of (D + nu) f for a scalar factor nu(x):

        (D + nu) f = (D + M^{i nu e1}) f_+  +  (D - M^{i nu e1}) f_-,

    with f_± = f P_1^± = f (1 ± i e1)/2, filed under the keys ±1 with the
    reduced alphas ±nu i e1.  The identity is exact for any biquaternion
    field f.  nu may be a constant, an array or a callable, kept in the
    shape it broadcasts from, so a constant nu costs no grid array; raises
    ValueError when it is not finite at every node.
    """
    (nu_arr,) = _check_finite([_on_mesh(f.grid, nu)], "nu")
    zero = np.zeros((1, 1, 1), dtype=complex)
    return RightSplit(field=f, alpha=(nu_arr, zero, zero, zero),
                      parts={a: f * right_projector(1, a) for a in (1, -1)},
                      alphas={a: (zero, 1j * (a * nu_arr), zero, zero) for a in (1, -1)})


def circular_wave(grid: Grid3, nu: float, sign: int) -> BQField:
    """Circularly polarized transverse wave B with (D - sign*nu) B = 0.

    sign=-1 is the classic constant-factor force-free (Beltrami) field
    B = (0, sin(nu x1), -cos(nu x1)), with div B = 0 and curl B + nu B = 0;
    sign=+1 the mirrored helicity (0, sin(nu x1), +cos(nu x1)).  Pairing
    E = B with H = -sign*i*B gives an exact solution of the sourceless
    slow-medium system D E = i nu H, D H = -i nu E; the diagonal
    combinations E +- iH then solve (D -+ nu)(.) = 0 and each field solves
    (lap + nu**2)(.) = 0.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x1, _, _ = grid.mesh()
    return BQField.from_vector(grid, 0.0, np.sin(nu * x1), float(sign) * np.cos(nu * x1))
