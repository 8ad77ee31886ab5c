"""The C^4 <-> H(C) bridge for first-order Dirac-type operators.

A four-component spinor field Phi is carried to a biquaternion field by a
constant 4x4 matrix composed with the x3 reflection; under that transform
the free operator with energy omega and mass m, plus a scalar, electric or
pseudoscalar potential, becomes right multiplication by a constant-plus-
potential alpha (in the pseudoscalar case a scalar term nu plus a constant
vector beta, which ``pseudoscalar_split`` diagonalizes into a
``grid.RightSplit`` of four parts).

The transform matrix is built for one representation, the standard Dirac
gamma matrices ``G0``-``G3`` and ``G5`` of this module, and every operator
here uses them.  With them the exact operator identity is

    (D + M^alpha) o T  =  + T o (G1 G2 G3) o Dirac,

where T is ``spinor_to_bq``; the sign of the similarity factor is fixed by
the representation and pinned by the test suite.  Potentials always enter
alpha through their x3-reflected samples, the node reversal of
``grid.reflect_x3``, so the grid must be symmetric about x3 = 0.

Every row of ``G0``-``G3`` and of each kind's potential matrix holds one
entry, +-1 or +-i, asserted at import.  ``apply_dirac`` therefore reads
each of its terms off one component of Phi, or of its central
difference, and sums them block by block in one ``grid._blocked_output``
kernel, with no four-component temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Biquaternion, qmul, right_projector, split_projectors
from .grid import (BQField, Field4, Grid3, RightSplit, _block_of, _blocked_output,
                   _central_difference, _check_finite, _on_mesh, _reversed_x3, nabla_alpha)
from .physics import forcefree_split

__all__ = [
    "SpinorField",
    "G0",
    "G1",
    "G2",
    "G3",
    "G5",
    "DiracParams",
    "spinor_to_bq",
    "bq_to_spinor",
    "apply_dirac",
    "equivalent_alpha",
    "intertwining_residual",
    "pseudoscalar_split",
    "manufactured_split_solution",
    "free_plane_wave",
]


# the standard Dirac representation: G0**2 = I, G_k**2 = -I, anticommuting
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
G0 = np.block([[_I2, _Z2], [_Z2, -_I2]])
G1, G2, G3 = (np.block([[_Z2, s], [-s, _Z2]]) for s in _PAULI)
G5 = 1j * G0 @ G1 @ G2 @ G3
for _g in (G0, G1, G2, G3, G5):
    _g.flags.writeable = False
# the similarity factor G1 G2 G3 of the quaternionic reduction
_VOLUME = G1 @ G2 @ G3

# the two constant matrices of the transform, built for G0-G3 above; the
# forward one carries the global factor 1/2.  The rows of 2 _FWD are
# orthogonal with squared norm 2, so _FWD (2 _FWD)^H = I: the inverse is
# the conjugate transpose of 2 _FWD (round trips asserted in tests)
_FWD = 0.5 * np.array([
    [0, -1, 1, 0],
    [1j, 0, 0, -1j],
    [-1, 0, 0, -1],
    [0, 1j, 1j, 0],
], dtype=complex)
_INV = (2.0 * _FWD).conj().T

# each potential kind: the 4x4 matrix that phi multiplies in the Dirac
# operator, and the biquaternion q the transform turns that term into, so
# that alpha = -(i omega e1 + m e2) + phi~ q
_KINDS = {
    "scalar": (1j * np.eye(4), Biquaternion(0, 0, -1, 0)),
    "electric": (1j * G0, Biquaternion(0, -1j, 0, 0)),
    "pseudoscalar": (G5 @ G0, Biquaternion(-1j, 0, 0, 0)),
}


def _unit_terms(m: np.ndarray) -> tuple:
    """(column, coefficient) of the one nonzero entry in each row of m,
    which must be +-1 or +-i: row r of m Phi is then the coefficient
    times Phi's component at the column, exactly."""
    terms = []
    for row in m:
        (col,) = np.flatnonzero(row)
        assert row[col] in (1, -1, 1j, -1j), f"not a unit entry: {row[col]}"
        terms.append((int(col), complex(row[col])))
    return tuple(terms)


def _signed_terms(m: np.ndarray) -> tuple:
    """(column, sign, times_i) of each row of m: its one entry is sign,
    times i when times_i."""
    return tuple((col, int(coef.real + coef.imag), bool(coef.imag))
                 for col, coef in _unit_terms(m))


# apply_dirac's terms for each row r: G0's, whose entries are real, so
# the energy term folds the sign into i*omega exactly; G1-G3's, one per
# axis, whose signs the central differences take; and each kind's
_G0_TERMS = _signed_terms(G0)
assert not any(times_i for _, _, times_i in _G0_TERMS)
_DERIV_TERMS = tuple(zip(*map(_signed_terms, (G1, G2, G3))))
_KIND_TERMS = {kind: _unit_terms(mat) for kind, (mat, _) in _KINDS.items()}


def _apply(m: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The constant 4x4 matrix m applied at every node of a (4, ...) stack."""
    return (m @ data.reshape(4, -1)).reshape(data.shape)


class SpinorField(Field4):
    """C^4-valued function on a Grid3; data shape (4, n1, n2, n3)."""


@dataclass(frozen=True)
class DiracParams:
    """Energy, mass and potential of a first-order Dirac-type operator.

    kind selects how the real potential phi enters: 'scalar' adds
    i*phi*I, 'electric' adds i*phi*G0, 'pseudoscalar' adds phi*G5*G0.
    phi may be a callable of (x1, x2, x3), an array, a constant, or None
    (treated as zero); its samples, as ``grid._on_mesh`` takes them (a
    constant or None stays (1, 1, 1)), must be finite at every node.
    """

    omega: float
    m: float
    kind: str = "scalar"
    phi: Callable | np.ndarray | float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")

    def phi_values(self, grid: Grid3) -> np.ndarray:
        vals = _on_mesh(grid, 0.0 if self.phi is None else self.phi)
        _check_finite([vals], "phi")
        return vals

    def phi_reflected(self, grid: Grid3) -> np.ndarray:
        """The potential at (x1, x2, -x3): the node reversal along x3 that
        ``reflect_x3`` applies, so the grid must be symmetric about x3 = 0."""
        return _reversed_x3(self.phi_values(grid), grid)


def spinor_to_bq(phi: SpinorField) -> BQField:
    """Forward transform: F = (1/2) * M * Phi~ with the constant matrix M
    and the x3-reflected spinor samples.  M acts node by node, so it is
    applied first and its output reversed in x3 as a view, with no
    reflected copy of Phi."""
    return BQField(phi.grid, _reversed_x3(_apply(_FWD, phi.data), phi.grid))


def bq_to_spinor(f: BQField) -> SpinorField:
    """Inverse transform: Phi = M_inv * F~; inverse of ``spinor_to_bq``,
    reversed in x3 as a view after M_inv in the same way."""
    return SpinorField(f.grid, _reversed_x3(_apply(_INV, f.data), f.grid))


def apply_dirac(phi: SpinorField, p: DiracParams) -> SpinorField:
    """i*omega*G0*Phi + i*m*Phi + sum_k G_k d_k Phi + phi*K*Phi, with K the
    kind's matrix and central differences d_k.

    One block of x1-planes at a time, the blocks split across CPUs by
    ``grid._blocked_output``: each component sums its six terms in that order
    into the output, with one block temporary per run.  Every row of G0-G3
    and K holds one entry, +-1 or +-i (``_unit_terms``), so each term is
    one component of Phi or of its difference, taken exactly.  The
    one-node rim is NaN.
    """
    grid = phi.grid
    data = phi.data
    pot = None if p.phi is None else p.phi_values(grid)
    kind = _KIND_TERMS[p.kind]
    energy, mass = 1j * p.omega, 1j * p.m

    def block(out, sl, t):
        for r, out_r in enumerate(out):
            o = out_r[sl]
            col, sign, _ = _G0_TERMS[r]
            np.multiply(energy * sign, data[col][sl], out=o)
            np.multiply(mass, data[r][sl], out=t)
            np.add(o, t, out=o)
            for axis, (col, sign, times_i) in enumerate(_DERIV_TERMS[r]):
                _central_difference(data[col], sl, axis, grid.spacing[axis], t, sign)
                if times_i:
                    np.multiply(t, 1j, out=t)
                np.add(o, t, out=o)
            if pot is not None:
                col, coef = kind[r]
                np.multiply(data[col][sl], coef, out=t)
                np.multiply(_block_of(pot, sl), t, out=t)
                np.add(o, t, out=o)

    return SpinorField(grid, _blocked_output((4, *grid.shape), (0, 1, 2), 1, block, (complex,)))


def _alpha_components(p: DiracParams, grid: Grid3) -> tuple:
    """The four components of ``equivalent_alpha`` as arrays that
    broadcast against the grid: q's one nonzero component j carries
    phi~ q_j + c_j, of the shape phi is sampled in, each other component
    its constant c_k of -(i*omega e1 + m e2) as a (1, 1, 1) array."""
    q = _KINDS[p.kind][1].components
    c = Biquaternion.vector(-1j * p.omega, -p.m, 0.0).components
    (j,) = np.flatnonzero(q)
    out = [_on_mesh(grid, ck) for ck in c]
    out[j] = p.phi_reflected(grid) * q[j] + c[j]
    return tuple(out)


def equivalent_alpha(p: DiracParams, grid: Grid3) -> BQField:
    """The right-multiplication field equivalent to the Dirac operator,

        alpha = -(i*omega e1 + m e2) + phi~ q,

    with q from the kind's row of ``_KINDS`` and phi~ the potential
    reflected in x3:

    scalar:         alpha = -(i*omega e1 + (m + phi~) e2)
    electric:       alpha = -(i*(omega + phi~) e1 + m e2)
    pseudoscalar:   alpha = nu + beta, the scalar nu = -i*phi~ and the
                    constant vector beta = -(i*omega e1 + m e2); the
                    four-way splitting of beta requires m**2 != omega**2.

    Raises ValueError when the grid is not symmetric about x3 = 0.
    """
    return BQField.from_components(grid, *_alpha_components(p, grid))


# the forward transform after the similarity factor, one constant matrix
_FWD_VOLUME = _FWD @ _VOLUME


def intertwining_residual(phi: SpinorField, p: DiracParams):
    """Residual field of the transform identity, for every potential kind:

        (D + M^alpha)(T Phi) - T(G1 G2 G3 Dirac Phi)

    Both sides use the same central differences, so the identity is
    algebraic in the discrete derivatives and the residual sits at rounding
    level.  Returns (residual BQField, scale) where scale is the larger
    L-inf norm of the two sides.  The right side applies _FWD @ _VOLUME
    to the Dirac output once and reverses x3 as a view, and alpha enters
    as the four arrays of ``_alpha_components``, so neither is copied to
    a further field.
    """
    grid = phi.grid
    alpha = _alpha_components(p, grid)
    rhs = BQField(grid, _reversed_x3(_apply(_FWD_VOLUME, apply_dirac(phi, p).data), grid))
    lhs = nabla_alpha(spinor_to_bq(phi), alpha)
    scale = max(lhs.linf(), rhs.linf())
    return lhs - rhs, scale


# --------------------------------------------------------------------------
# pseudoscalar four-way splitting
# --------------------------------------------------------------------------

def pseudoscalar_split(f: BQField, nu, beta: Biquaternion) -> RightSplit:
    """The four-way split of (D + nu + M^beta) f, whose alpha is nu + beta.

    S^b from ``split_projectors`` commutes with M^beta, which is b*lam on
    its range, so ``forcefree_split(f S^b, nu + b*lam)`` gives the parts
    (f S^b) P_1^a, filed under (a, b).  When f solves (D + nu + M^beta)
    f = 0, each part solves (D + a M^{(nu + b*lam) i e1}) part = 0; the
    projector families do not commute when beta has components orthogonal
    to e1, and this composition order is the one under which they hold.

    beta must lie outside the zero-divisor set (for the Dirac case this is
    m**2 != omega**2).  nu may be a constant, array or callable, finite
    at every node.
    """
    pair = split_projectors(beta)
    nu_arr = _on_mesh(f.grid, nu)
    parts, alphas = {}, {}
    # one half at a time, so that only its field f S^b is held beside the parts
    for b, s_mult in ((1, pair.plus), (-1, pair.minus)):
        half = forcefree_split(f * s_mult, nu_arr + b * pair.lam)
        for a in half.parts:
            parts[a, b], alphas[a, b] = half.parts[a], half.alphas[a]
        del half
    return RightSplit(field=f, alpha=(nu_arr, *beta.components[1:].reshape(3, 1, 1, 1)),
                      parts=parts, alphas=alphas)


# weights of the four exponentials of manufactured_split_solution
_SPLIT_WEIGHTS = (1.0, 0.5, 0.8, 1.2)


def manufactured_split_solution(grid: Grid3, nu: complex, beta: Biquaternion) -> BQField:
    """An exact closed-form solution of (D + nu + M^beta) f = 0 for
    constant nu and admissible constant beta.

    Built from one-component exponentials: with c_± = nu ± lam, the fields
    exp(-i c x1) (1 + i e1)/2 and exp(+i c x1) (1 - i e1)/2 solve
    (D + c)(.) = 0, and pushing a combination for each lam branch through
    S^± assembles a full solution, the four exponentials weighted by
    _SPLIT_WEIGHTS.  Raises ValueError unless nu is a finite scalar.
    """
    if np.ndim(nu) != 0 or not np.isfinite(nu):
        raise ValueError(f"nu must be a finite scalar, got {nu!r}")
    pair = split_projectors(beta)
    x1, _, _ = grid.mesh()
    p_plus = right_projector(1, 1).components.reshape(4, 1, 1, 1)
    p_minus = right_projector(1, -1).components.reshape(4, 1, 1, 1)
    a, b, c, d = (complex(v) for v in _SPLIT_WEIGHTS)
    out = np.zeros((4, *grid.shape), dtype=complex)
    for s_mult, cc, (w_p, w_m) in (
            (pair.plus, nu + pair.lam, (a, b)),
            (pair.minus, nu - pair.lam, (c, d))):
        branch = (w_p * np.exp(-1j * cc * x1) * p_plus
                  + w_m * np.exp(1j * cc * x1) * p_minus)
        out = out + qmul(branch, s_mult.components.reshape(4, 1, 1, 1))
    return BQField(grid, out)


def free_plane_wave(grid: Grid3, kvec, m: float):
    """A plane-wave null solution of the free operator at wave vector kvec.

    Solves the 4x4 symbol equation numerically: omega is set on the
    positive-energy shell, omega = sqrt(<k,k> + m^2), and the amplitude is
    the singular vector of the symbol matrix with smallest singular value.
    Returns (SpinorField, DiracParams).  Raises ValueError unless kvec
    has three finite entries and m is finite.
    """
    kvec = np.asarray(kvec, dtype=float)
    if kvec.shape != (3,) or not np.all(np.isfinite(kvec)) or not np.isfinite(m):
        raise ValueError(f"need three finite kvec entries and a finite m, "
                         f"got {kvec.tolist()} and {m!r}")
    omega = float(np.sqrt(kvec @ kvec + m ** 2))
    symbol = 1j * omega * G0 + 1j * m * np.eye(4)
    for kk, gk in zip(kvec, (G1, G2, G3)):
        symbol = symbol + 1j * kk * gk
    _, s, vh = np.linalg.svd(symbol)
    if s[-1] > 1e-10 * max(s[0], 1.0):
        raise ValueError("symbol matrix is not singular: parameters off shell")
    amp = vh[-1].conj()
    x1, x2, x3 = grid.mesh()
    phase = np.exp(1j * (kvec[0] * x1 + kvec[1] * x2 + kvec[2] * x3))
    data = amp.reshape(4, 1, 1, 1) * phase
    return SpinorField(grid, data), DiracParams(omega=omega, m=m, kind="scalar", phi=None)
