"""The C^4 <-> H(C) bridge for first-order Dirac-type operators.

A four-component spinor field Phi is carried to a biquaternion field by a
constant 4x4 matrix composed with the x3 reflection; under that transform
the free operator with energy omega and mass m, plus a scalar, electric or
pseudoscalar potential, becomes right multiplication by a constant-plus-
potential vector alpha (or, in the pseudoscalar case, a scalar term nu and
a constant beta whose splitting is handled by ``pseudoscalar_split``).

Convention note: with the standard Dirac gamma matrices used here, the
exact operator identity is

    (D + M^alpha) o T  =  + T o (g1 g2 g3) o Dirac,

where T is ``spinor_to_bq``; the sign of the similarity factor is fixed by
the representation and pinned by the test suite.  Potentials always enter
alpha through their x3-reflected samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Biquaternion, qmul, right_projector, split_projectors
from .grid import (BQField, Field4, Grid3, ie1_field, nabla, nabla_alpha,
                   partial_deriv, reflect_x3, sample)

__all__ = [
    "SpinorField",
    "GammaSet",
    "DiracParams",
    "spinor_to_bq",
    "bq_to_spinor",
    "apply_dirac",
    "equivalent_alpha",
    "intertwining_residual",
    "PseudoscalarSplit",
    "pseudoscalar_split",
    "pseudoscalar_identity_residual",
    "manufactured_split_solution",
    "free_plane_wave",
]


# the two constant matrices of the transform; the forward one carries the
# global factor 1/2 and the pair is mutually inverse (asserted in tests)
_FWD = 0.5 * np.array([
    [0, -1, 1, 0],
    [1j, 0, 0, -1j],
    [-1, 0, 0, -1],
    [0, 1j, 1j, 0],
], dtype=complex)

_INV = np.array([
    [0, -1j, -1, 0],
    [-1, 0, 0, -1j],
    [1, 0, 0, -1j],
    [0, 1j, -1, 0],
], dtype=complex)


class SpinorField(Field4):
    """C^4-valued function on a Grid3; data shape (4, n1, n2, n3)."""

    def apply_matrix(self, m: np.ndarray) -> "SpinorField":
        return SpinorField(self.grid, np.einsum("ab,b...->a...", m, self.data))


@dataclass(frozen=True)
class GammaSet:
    """A 4x4 gamma representation: g0**2 = I, g_k**2 = -I, anticommuting."""

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g5: np.ndarray

    @classmethod
    def standard(cls) -> "GammaSet":
        """Standard Dirac representation."""
        i2 = np.eye(2, dtype=complex)
        z2 = np.zeros((2, 2), dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        g0 = np.block([[i2, z2], [z2, -i2]])
        g1, g2, g3 = (np.block([[z2, s], [-s, z2]]) for s in (sx, sy, sz))
        g5 = 1j * g0 @ g1 @ g2 @ g3
        return cls(g0=g0, g1=g1, g2=g2, g3=g3, g5=g5)

    @property
    def spatial(self):
        return (self.g1, self.g2, self.g3)

    @property
    def volume(self) -> np.ndarray:
        """The similarity factor g1 g2 g3 of the quaternionic reduction."""
        return self.g1 @ self.g2 @ self.g3


@dataclass(frozen=True)
class DiracParams:
    """Energy, mass and potential of a first-order Dirac-type operator.

    kind selects how the real potential phi enters: 'scalar' adds
    i*phi*I, 'electric' adds i*phi*g0, 'pseudoscalar' adds phi*g0*g5.
    phi may be a callable of (x1, x2, x3), an array, a constant, or None
    (treated as zero).
    """

    omega: float
    m: float
    kind: str = "scalar"
    phi: Callable | float | None = None

    def __post_init__(self):
        if self.kind not in ("scalar", "electric", "pseudoscalar"):
            raise ValueError(f"unknown potential kind {self.kind!r}")

    def phi_values(self, grid: Grid3) -> np.ndarray:
        if self.phi is None:
            return np.zeros(grid.shape, dtype=complex)
        return sample(grid, self.phi)

    def phi_reflected(self, grid: Grid3) -> np.ndarray:
        """Potential sampled at (x1, x2, -x3); node-exact on symmetric grids."""
        if self.phi is None:
            return np.zeros(grid.shape, dtype=complex)
        if callable(self.phi):
            return sample(grid, lambda x1, x2, x3: self.phi(x1, x2, -x3))
        return sample(grid, self.phi)  # constants are reflection invariant


def spinor_to_bq(phi: SpinorField) -> BQField:
    """Forward transform: F = (1/2) * M * Phi~ with the constant matrix M
    and the x3-reflected spinor samples."""
    return BQField(phi.grid, np.einsum("ab,b...->a...", _FWD, reflect_x3(phi).data))


def bq_to_spinor(f: BQField) -> SpinorField:
    """Inverse transform: Phi = M_inv * F~; inverse of ``spinor_to_bq``."""
    return SpinorField(f.grid, np.einsum("ab,b...->a...", _INV, reflect_x3(f).data))


def apply_dirac(phi: SpinorField, p: DiracParams, g: GammaSet) -> SpinorField:
    """i*omega*g0*Phi + sum_k g_k d_k Phi + i*m*Phi + potential term,
    with central differences (one-node rim invalidated)."""
    grid = phi.grid
    out = 1j * p.omega * np.einsum("ab,b...->a...", g.g0, phi.data)
    out = out + 1j * p.m * phi.data
    for k, gk in enumerate(g.spatial):
        dk = partial_deriv(phi.data, grid, k)
        out = out + np.einsum("ab,b...->a...", gk, dk)
    if p.phi is not None:
        pot = p.phi_values(grid)
        if p.kind == "scalar":
            out = out + 1j * pot * phi.data
        elif p.kind == "electric":
            out = out + 1j * pot * np.einsum("ab,b...->a...", g.g0, phi.data)
        else:  # pseudoscalar
            m05 = g.g0 @ g.g5
            out = out + pot * np.einsum("ab,b...->a...", m05, phi.data)
    return SpinorField(grid, out)


def equivalent_alpha(p: DiracParams, grid: Grid3):
    """The right-multiplication data equivalent to the Dirac operator.

    scalar:         alpha = -(i*omega e1 + (m + phi~) e2)
    electric:       alpha = -(i*(omega + phi~) e1 + m e2)
    pseudoscalar:   (nu, beta) with nu = -i*phi~ samples and constant
                    beta = -(i*omega e1 + m e2); requires m**2 != omega**2
                    for the four-way splitting.

    For scalar/electric the return value is a BQField on the grid (the
    potential reflected in x3); for pseudoscalar it is the (nu, beta) pair.
    """
    if p.kind == "scalar":
        pot = p.phi_reflected(grid)
        a2 = -(p.m + pot)
        a1 = np.full(grid.shape, -1j * p.omega, dtype=complex)
        return BQField.from_vector(grid, a1, a2, np.zeros(grid.shape, dtype=complex))
    if p.kind == "electric":
        pot = p.phi_reflected(grid)
        a1 = -1j * (p.omega + pot)
        a2 = np.full(grid.shape, -p.m, dtype=complex)
        return BQField.from_vector(grid, a1, a2, np.zeros(grid.shape, dtype=complex))
    # pseudoscalar
    nu = -1j * p.phi_reflected(grid)
    beta = Biquaternion.vector(-1j * p.omega, -p.m, 0.0)
    return nu, beta


def intertwining_residual(phi: SpinorField, p: DiracParams, g: GammaSet):
    """Residual field of the transform identity for scalar/electric kinds:

        (D + M^alpha)(T Phi) - T(g1 g2 g3 Dirac Phi)

    Both sides use the same central differences, so the identity is
    algebraic in the discrete derivatives and the residual sits at rounding
    level.  Returns (residual BQField, scale) where scale is the larger
    L-inf norm of the two sides.
    """
    if p.kind == "pseudoscalar":
        raise ValueError("pseudoscalar kind is handled by pseudoscalar_split")
    grid = phi.grid
    alpha = equivalent_alpha(p, grid)
    f = spinor_to_bq(phi)
    lhs = nabla_alpha(f, alpha)
    rhs = spinor_to_bq(apply_dirac(phi, p, g).apply_matrix(g.volume))
    res = lhs - rhs
    scale = max(lhs.linf(), rhs.linf())
    return res, scale


# --------------------------------------------------------------------------
# pseudoscalar four-way splitting
# --------------------------------------------------------------------------

@dataclass
class PseudoscalarSplit:
    """The four projections f * s_b * p_a (the beta splitting applied
    first, then the e1 projector).

    ``parts`` maps the sign pair (P-sign, S-sign) to its part; the parts
    sum to f exactly.  When f solves (D + nu + M^beta) f = 0, the part
    with signs (a, b) solves (D + a * M^{(nu + b*lam) i e1}) part = 0.
    The two projector families do not commute when beta has components
    orthogonal to e1; the composition order here is the one under which
    the four diagonal equations hold.
    """

    parts: dict
    lam: complex
    nu: np.ndarray

    def recombined(self) -> BQField:
        pp, mp, pm, mm = self.parts.values()
        return pp + mp + pm + mm

    def part_residual(self, p_sign: int, s_sign: int) -> BQField:
        """(D + p_sign * M^{(nu + s_sign*lam) i e1}) applied to the part."""
        part = self.parts[(p_sign, s_sign)]
        mult = ie1_field(part.grid, p_sign * (self.nu + s_sign * self.lam))
        return nabla_alpha(part, mult)


def pseudoscalar_split(f: BQField, nu, beta: Biquaternion) -> PseudoscalarSplit:
    """Split f into the four parts P_1^± applied after S^±.

    beta must lie outside the zero-divisor set (for the Dirac case this is
    m**2 != omega**2).  nu may be a constant, array or callable.
    """
    pair = split_projectors(beta)
    grid = f.grid
    nu_arr = sample(grid, nu)
    p_plus, p_minus = right_projector(1, 1), right_projector(1, -1)
    f_p = f * pair.plus
    f_m = f * pair.minus
    parts = {(1, 1): f_p * p_plus, (-1, 1): f_p * p_minus,
             (1, -1): f_m * p_plus, (-1, -1): f_m * p_minus}
    return PseudoscalarSplit(parts=parts, lam=pair.lam, nu=nu_arr)


def pseudoscalar_identity_residual(f: BQField, nu, beta: Biquaternion):
    """Exact four-term operator identity on an arbitrary field f:

        (D + nu + M^beta) f  =  sum_{a,b} S^b [ P_1^a (D + a M^{(nu+b*lam) i e1}) f ]

    (projectors applied to the operator output, P first then S).  Returns
    (residual BQField, scale).
    """
    pair = split_projectors(beta)
    grid = f.grid
    nu_arr = sample(grid, nu)
    df = nabla(f)
    lhs = df + nu_arr * f + f * beta
    rhs = BQField.zeros(grid)
    for a in (1, -1):
        p_mult = right_projector(1, a)
        for b, s_mult in ((1, pair.plus), (-1, pair.minus)):
            c_field = ie1_field(grid, nu_arr + b * pair.lam)
            term = df + float(a) * (f * c_field)
            rhs = rhs + (term * p_mult) * s_mult
    res = lhs - rhs
    return res, max(lhs.linf(), rhs.linf())


def manufactured_split_solution(grid: Grid3, nu: complex, beta: Biquaternion,
                                coeffs=(1.0, 1.0, 1.0, 1.0)) -> BQField:
    """An exact closed-form solution of (D + nu + M^beta) f = 0 for
    constant nu and admissible constant beta.

    Built from one-component exponentials: with c_± = nu ± lam, the fields
    exp(-i c x1) (1 + i e1)/2 and exp(+i c x1) (1 - i e1)/2 solve
    (D + c)(.) = 0, and pushing a combination for each lam branch through
    S^± assembles a full solution.  coeffs weights the four exponentials.
    """
    pair = split_projectors(beta)
    x1, _, _ = grid.mesh()
    p_plus = right_projector(1, 1).components.reshape(4, 1, 1, 1)
    p_minus = right_projector(1, -1).components.reshape(4, 1, 1, 1)
    a, b, c, d = (complex(v) for v in coeffs)
    out = np.zeros((4, *grid.shape), dtype=complex)
    for s_mult, cc, (w_p, w_m) in (
            (pair.plus, nu + pair.lam, (a, b)),
            (pair.minus, nu - pair.lam, (c, d))):
        branch = (w_p * np.exp(-1j * cc * x1)[np.newaxis] * p_plus
                  + w_m * np.exp(1j * cc * x1)[np.newaxis] * p_minus)
        out = out + qmul(branch, s_mult.components.reshape(4, 1, 1, 1))
    return BQField(grid, out)


def free_plane_wave(grid: Grid3, kvec, m: float, g: GammaSet):
    """A plane-wave null solution of the free operator at wave vector kvec.

    Solves the 4x4 symbol equation numerically: omega is set on the
    positive-energy shell, omega = sqrt(<k,k> + m^2), and the amplitude is
    the singular vector of the symbol matrix with smallest singular value.
    Returns (SpinorField, DiracParams).
    """
    kvec = np.asarray(kvec, dtype=float)
    omega = float(np.sqrt(kvec @ kvec + m ** 2))
    symbol = 1j * omega * g.g0 + 1j * m * np.eye(4)
    for kk, gk in zip(kvec, g.spatial):
        symbol = symbol + 1j * kk * gk
    _, s, vh = np.linalg.svd(symbol)
    if s[-1] > 1e-10 * max(s[0], 1.0):
        raise ValueError("symbol matrix is not singular: parameters off shell")
    amp = vh[-1].conj()
    x1, x2, x3 = grid.mesh()
    phase = np.exp(1j * (kvec[0] * x1 + kvec[1] * x2 + kvec[2] * x3))
    data = amp.reshape(4, 1, 1, 1) * phase[np.newaxis]
    return SpinorField(grid, data), DiracParams(omega=omega, m=m, kind="scalar", phi=None)
