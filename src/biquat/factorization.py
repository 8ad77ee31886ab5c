"""Factorization of the Schrodinger operator through first-order factors.

The central objects: the quaternionic Riccati balance
D(alpha) + alpha**2 = -v, the scalar factorization
(-lap + v) = (D + M^alpha)(D - M^alpha) on scalar functions, its
componentwise diagonalization for separable alpha (potentials v_k, w_k),
closed-form one-component solution families, a right inverse of
D + M^alpha built from four Dirichlet solves by per-axis diagonalization
(sparse LU only for an ill-conditioned eigenvector basis), and the
quaternionic-potential machinery for axial alpha: the alpha-free pointwise
maps C, J, Q^± and Pi (``c_map``, ``j_map``, ``q_map``, ``pi_map``), the
alpha-dependent operators in ``AxialOperators`` and the zero-divisor
reductions to scalar equations.

The factor D + M^alpha is ``grid.nabla_alpha``; D - M^alpha is
``build_solution``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sla

from .algebra import INVOLUTION_SIGNS, ROUNDING_TOL, qmul, right_projector
from .alpha import AlphaSpec, AxialAlpha, SeparableAlpha
from .grid import (BQField, Grid3, alpha_arrays, laplacian, laplacian_wide,
                   linf, nabla, nabla_alpha, sample)

__all__ = [
    "riccati_residual",
    "factored_product",
    "factorization_residual",
    "PotentialSet",
    "d_alpha_involution",
    "potentials",
    "build_solution",
    "ClosedFormFamily",
    "one_component_family",
    "RightInverseResult",
    "right_inverse",
    "AxialOperators",
    "c_map",
    "j_map",
    "q_map",
    "pi_map",
    "ReductionReport",
    "zero_divisor_reduction",
]

def riccati_residual(alpha: AlphaSpec, v, grid: Grid3) -> BQField:
    """The biquaternion field D(alpha) + alpha**2 + v.

    Zero exactly when alpha solves the quaternionic Riccati equation for v.
    The scalar slot carries the Riccati balance; the vector slot carries
    curl(alpha), whose vanishing is what forces alpha to be a gradient.
    D(alpha) is exact when alpha.has_exact_derivatives(), central
    differences otherwise.
    """
    res = alpha.d_alpha(grid)
    res.data[0] += alpha.alpha_sq(grid) + sample(grid, v)
    return res


def factored_product(u: BQField, alpha) -> BQField:
    """(D + M^alpha)(D - M^alpha) u with the discrete first-order operator;
    alpha is anything ``alpha_arrays`` takes; it is sampled once."""
    a = alpha_arrays(alpha, u.grid)
    return nabla_alpha(build_solution(u, a), a)


# relative Riccati residual above which factorization_residual refuses alpha
_RICCATI_TOL = 1e-10


def factorization_residual(alpha: AlphaSpec, phi, v, grid: Grid3):
    """Residual of (-lap + v) phi = (D + M^alpha)(D - M^alpha) phi on a
    scalar function phi.

    Checks the Riccati precondition first and raises when alpha does not
    solve it for v within _RICCATI_TOL (relative).  Returns
    (residual BQField, scale).
    """
    rres = riccati_residual(alpha, v, grid)
    scale0 = max(1.0, linf(alpha.alpha_sq(grid)), linf(sample(grid, v)))
    rel = rres.linf() / scale0
    if rel > _RICCATI_TOL:
        raise ValueError(
            f"Riccati precondition violated: relative residual {rel:.3e} > {_RICCATI_TOL:.1e}")
    phi_field = BQField.from_scalar(grid, phi)
    v_arr = sample(grid, v)
    lhs = -laplacian(phi_field) + v_arr * phi_field
    rhs = factored_product(phi_field, alpha)
    res = lhs - rhs
    return res, max(lhs.linf(), rhs.linf(), 1e-300)


# --------------------------------------------------------------------------
# separable alpha: the four scalar potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSet:
    """The scalar potentials v_k = -D(alpha^(k)) - alpha**2 and
    w_k = +D(alpha^(k)) - alpha**2, k = 0..3.

    Their sum is -2*alpha**2 at every node: the derivative parts cancel.
    """

    v: tuple
    w: tuple
    alpha_sq: np.ndarray

    def pairing_defect(self) -> float:
        """max_k || v_k + w_k + 2*alpha**2 ||_inf (zero to rounding)."""
        worst = 0.0
        for vk, wk in zip(self.v, self.w):
            worst = max(worst, linf(vk + wk + 2.0 * self.alpha_sq))
        return worst


def d_alpha_involution(derivs, k: int) -> np.ndarray:
    """The scalar field D(alpha^(k)) = -sum_j s_j a_j' of a separable alpha,
    from its three derivative arrays a_j'(x_j) and the involution signs s."""
    s = INVOLUTION_SIGNS[k]
    return -(s[0] * derivs[0] + s[1] * derivs[1] + s[2] * derivs[2])


def potentials(alpha: AlphaSpec, grid: Grid3) -> PotentialSet:
    """The diagonalized potentials; requires separable alpha, since only
    then is every D(alpha^(k)) a scalar."""
    if not isinstance(alpha, SeparableAlpha):
        raise ValueError("potentials require separable alpha: D(alpha^(k)) is not scalar otherwise")
    derivs = alpha.deriv_components(grid)
    asq = alpha.alpha_sq(grid)
    v, w = [], []
    for k in range(4):
        d_inv = d_alpha_involution(derivs, k)
        v.append(-d_inv - asq)
        w.append(d_inv - asq)
    return PotentialSet(v=tuple(v), w=tuple(w), alpha_sq=asq)


def build_solution(g: BQField, alpha) -> BQField:
    """f = (D - M^alpha) g; alpha is anything ``alpha_arrays`` takes.

    When each component g_k solves (-lap + v_k) g_k = 0, f solves
    D f + f*alpha = 0 (at discretization accuracy when g is sampled);
    conversely a solution f of that form forces the g_k to solve their
    Schrodinger equations.
    """
    out = nabla(g)
    out.data -= qmul(g.data, alpha_arrays(alpha, g.grid))
    return out


# --------------------------------------------------------------------------
# closed-form one-component solutions
# --------------------------------------------------------------------------

# exponent signs of Lambda_j in f_k: f_k = exp(sum_j SIGNS[k][j] * Lambda_j),
# the negated involution signs, so that grad(f_k)/f_k = -alpha^(k)
_FAMILY_SIGNS = tuple(tuple(-s for s in row) for row in INVOLUTION_SIGNS)


@dataclass(frozen=True)
class ClosedFormFamily:
    """One-component solutions f_k e_k of D f + f*alpha = 0 for separable
    alpha, from the antiderivatives Lambda_k of the factors.

    Each f_k has log-gradient -alpha^(k); the reciprocals phi_k = 1/f_k
    solve (-lap + v_k) phi_k = 0 and the f_k themselves solve
    (-lap + w_k) f_k = 0.  Any combination sum_k c_k f_k e_k solves the
    first-order equation.
    """

    alpha: SeparableAlpha

    def f_values(self, grid: Grid3, k: int) -> np.ndarray:
        l1, l2, l3 = self.alpha.antideriv_components(grid)
        s = _FAMILY_SIGNS[k]
        return np.exp(s[0] * l1 + s[1] * l2 + s[2] * l3)

    def phi_values(self, grid: Grid3, k: int) -> np.ndarray:
        return 1.0 / self.f_values(grid, k)

    def combination(self, grid: Grid3, coeffs) -> BQField:
        cs = np.asarray(coeffs, dtype=complex)
        return BQField(grid, np.stack([cs[k] * self.f_values(grid, k) for k in range(4)]))

    def equation_residual_analytic(self, grid: Grid3, coeffs):
        """D f + f*alpha evaluated with exact derivatives of the family,
        for f = sum_k c_k f_k e_k.  Returns (residual BQField, scale)."""
        cs = np.asarray(coeffs, dtype=complex)
        alpha = alpha_arrays(self.alpha, grid)
        a = alpha[1:]
        basis = np.eye(4, dtype=complex)
        acc = np.zeros((4, *grid.shape), dtype=complex)
        fdata = np.zeros((4, *grid.shape), dtype=complex)
        for k in range(4):
            fk = cs[k] * self.f_values(grid, k)
            fdata[k] = fk
            s = _FAMILY_SIGNS[k]
            for j in range(3):
                ej_ek = qmul(basis[j + 1], basis[k])  # constant quaternion e_j e_k
                dj_fk = s[j] * a[j] * fk
                acc += ej_ek.reshape(4, 1, 1, 1) * dj_fk[np.newaxis]
        f = BQField(grid, fdata)
        acc += qmul(fdata, alpha)
        total = BQField(grid, acc)
        scale = max(f.linf() * max(1.0, *map(linf, a)), 1e-300)
        return total, scale

    def schrodinger_residual_analytic(self, grid: Grid3, k: int, which: str = "v"):
        """(-lap + v_k) phi_k (which='v') or (-lap + w_k) f_k (which='w'),
        with the Laplacian evaluated from exact derivatives.  Returns
        (residual array, scale).  Raises when alpha has no derivative
        callables."""
        if which not in ("v", "w"):
            raise ValueError("which must be 'v' or 'w'")
        if not self.alpha.has_exact_derivatives():
            raise ValueError("analytic residual requires derivative callables")
        a = self.alpha.components(grid)
        da = self.alpha.deriv_components(grid)
        d_inv = d_alpha_involution(da, k)
        asq = self.alpha.alpha_sq(grid)
        s = _FAMILY_SIGNS[k]
        if which == "v":
            vals = self.phi_values(grid, k)
            # d_j phi = -s_j a_j phi  ->  d_j^2 phi = (-s_j a_j' + a_j^2) phi
            lap_factor = sum(-s[j] * da[j] + a[j] ** 2 for j in range(3))
            pot = -d_inv - asq  # v_k, as in potentials()
        else:
            vals = self.f_values(grid, k)
            lap_factor = sum(s[j] * da[j] + a[j] ** 2 for j in range(3))
            pot = d_inv - asq   # w_k
        res = -lap_factor * vals + pot * vals
        # scale by the magnitude of the terms entering the cancellation, not
        # by their (identically vanishing) sum
        gross = sum(np.abs(da[j]) + np.abs(a[j]) ** 2 for j in range(3)) * np.abs(vals)
        scale = max(linf(gross), linf(np.abs(pot) * np.abs(vals)), 1e-300)
        return res, scale


def one_component_family(alpha: AlphaSpec) -> ClosedFormFamily:
    if not isinstance(alpha, SeparableAlpha):
        raise ValueError("one-component closed forms require separable alpha")
    if not alpha.has_antiderivatives():
        raise ValueError("missing antiderivative for separable alpha")
    return ClosedFormFamily(alpha=alpha)


# --------------------------------------------------------------------------
# right inverse via four Dirichlet solves by fast diagonalization
# --------------------------------------------------------------------------

# The diagonalized solve loses relative accuracy in proportion to the
# condition number of the 3-D eigenvector basis,
# cond(V1 ⊗ V2 ⊗ V3) = cond(V1) cond(V2) cond(V3): about 1e-18 times it
# for -d^2 + i c x (2e-13 at 1.4e5, 2e-9 at 2e9).  Below this limit even
# eps times it is 2e-12, two orders inside _SOLVER_TOL; above it the
# component is solved by sparse LU on the same operator.
_COND_LIMIT = 1e4

# relative residual of a component solve above which right_inverse raises
_SOLVER_TOL = 1e-10

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RightInverseResult:
    field: BQField          # T f  (variant 'v') or the preimage g (variant 'w')
    u: BQField              # the four Schrodinger solves, zero on the boundary
    solver_residual: float  # worst relative linear-system residual


def _axis_operators(alpha: SeparableAlpha, grid: Grid3):
    """Per axis j, the two 1-D interior operators
    A_j^σ = -d^2/dx_j^2 + σ a_j' + a_j**2 (σ = ±1) with zero Dirichlet
    ends, as a dict keyed by σ.  Component k takes σ_j = ±s_kj on axis j
    (+ for 'v', - for 'w'), and A_1^σ1 ⊕ A_2^σ2 ⊕ A_3^σ3 is then
    -lap + v_k (or w_k) on the interior nodes."""
    comps = alpha.components(grid)
    derivs = alpha.deriv_components(grid)
    ops = []
    for j in range(3):
        m, h = grid.shape[j] - 2, grid.spacing[j]
        lap = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h ** 2
        pair = {}
        for sigma in (1, -1):
            q = sigma * derivs[j].ravel()[1:-1] + comps[j].ravel()[1:-1] ** 2
            if not np.all(np.isfinite(q)):
                raise ValueError("potential has invalid interior values")
            pair[sigma] = lap + np.diag(q)
        ops.append(pair)
    return ops


def _diagonalize(a: np.ndarray):
    """eig of a 1-D operator, A = V diag(lam) V^-1: (lam, V, cond(V), V^-1),
    with V^-1 None when cond(V) alone exceeds _COND_LIMIT, since the
    component's product of conditions then does too."""
    lam, vec = np.linalg.eig(a)
    cond = np.linalg.cond(vec)
    return lam, vec, cond, np.linalg.inv(vec) if cond <= _COND_LIMIT else None


def _along(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix mat along one axis of the 3-D array x."""
    return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)


def right_inverse(f: BQField, alpha: AlphaSpec, variant: str = "v") -> RightInverseResult:
    """Apply a discrete right inverse of D + M^alpha (variant 'v') or
    produce a preimage under D - M^alpha (variant 'w').

    Per component k, (-lap + p_k) u_k = f_k is solved with zero Dirichlet
    boundary values (p = v for 'v', p = w for 'w'); then

        variant 'v':  T f = (D - M^alpha) u   with (D + M^alpha)(T f) = f,
        variant 'w':  g   = (D + M^alpha) u   with (D - M^alpha) g   = f,

    both up to the O(h^2) defect between the product of the two discrete
    first-order factors and the compact second-order operator.

    For separable alpha each p_k is a sum of 1-D functions, so -lap + p_k
    is the Kronecker sum of three tridiagonal 1-D operators A_j, each one
    of the two an axis has (``_axis_operators``).  Each of the six is
    diagonalized once, A_j = V_j diag(lam_j) V_j^-1, and the solve is three
    contractions with the V_j^-1, a division by lam_1 + lam_2 + lam_3 and
    three contractions with the V_j (Lynch, Rice & Thomas 1964).  A
    component whose eigenvector bases have cond(V_1) cond(V_2) cond(V_3)
    above _COND_LIMIT is solved by sparse LU on the same Kronecker sum
    instead, and the call logs the condition number once.  A ValueError is
    raised when min |lam_1 + lam_2 + lam_3| shows a singular operator, and
    when the relative residual of any component solve exceeds _SOLVER_TOL.
    """
    if variant not in ("v", "w"):
        raise ValueError("variant must be 'v' or 'w'")
    if not isinstance(alpha, SeparableAlpha):
        raise ValueError("right inverse requires separable alpha: D(alpha^(k)) is not scalar otherwise")
    grid = f.grid
    sign = 1 if variant == "v" else -1
    axis_ops = _axis_operators(alpha, grid)
    axis_eigs = [{sigma: _diagonalize(a) for sigma, a in pair.items()} for pair in axis_ops]
    inner = tuple(slice(1, -1) for _ in range(3))
    u = np.zeros((4, *grid.shape), dtype=complex)
    worst = 0.0
    fallback = {}
    for k, s in enumerate(INVOLUTION_SIGNS):
        sigmas = [sign * s_j for s_j in s]
        ops = [axis_ops[j][sigma] for j, sigma in enumerate(sigmas)]
        lams, vecs, conds, invs = zip(*(axis_eigs[j][sigma] for j, sigma in enumerate(sigmas)))
        total = lams[0][:, None, None] + lams[1][None, :, None] + lams[2][None, None, :]
        smallest, largest = np.abs(total).min(), np.abs(total).max()
        if smallest <= total.size * np.finfo(float).eps * largest:
            raise ValueError(
                "discrete operator singular or near-singular: "
                f"min |lam| {smallest:.3e}, max |lam| {largest:.3e}")
        rhs = f.data[k][inner]
        cond = float(np.prod(conds))
        if cond <= _COND_LIMIT:
            sol = rhs
            for j, v_inv in enumerate(invs):
                sol = _along(v_inv, sol, j)
            sol = sol / total
            for j, v in enumerate(vecs):
                sol = _along(v, sol, j)
        else:
            fallback[k] = cond
            mats = [sparse.csr_matrix(a) for a in ops]
            mat = sparse.kronsum(sparse.kronsum(mats[2], mats[1]), mats[0], format="csc")
            try:
                lu = sla.splu(mat, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as err:
                raise ValueError(f"discrete operator singular: {err}") from err
            sol = lu.solve(rhs.ravel()).reshape(rhs.shape)
        applied = sum(_along(a, sol, j) for j, a in enumerate(ops))
        rhs_scale = max(float(np.abs(rhs).max(initial=0.0)), 1e-300)
        worst = max(worst, float(np.abs(applied - rhs).max(initial=0.0)) / rhs_scale)
        u[k][inner] = sol
    if fallback:
        _log.warning("right_inverse: eigenvector basis cond(V) up to %.3e > %.1e; "
                     "components %s solved by sparse LU",
                     max(fallback.values()), _COND_LIMIT, sorted(fallback))
    if worst > _SOLVER_TOL:
        raise ValueError(f"linear solver residual {worst:.3e} exceeds {_SOLVER_TOL:.1e}")
    u_field = BQField(grid, u)
    out = build_solution(u_field, alpha) if variant == "v" else nabla_alpha(u_field, alpha)
    return RightInverseResult(field=out, u=u_field, solver_residual=worst)


# --------------------------------------------------------------------------
# axial alpha: quaternionic-potential operators
# --------------------------------------------------------------------------

# The pointwise maps C, J, Q^± and Pi do not depend on alpha.

def c_map(u: BQField) -> BQField:
    """C u = -e1 u e1: flips the signs of the e2 and e3 components."""
    data = u.data.copy()
    data[2] = -data[2]
    data[3] = -data[3]
    return BQField(u.grid, data)


def j_map(u: BQField) -> BQField:
    """J u = i e1 u (left multiplication)."""
    u0, u1, u2, u3 = u.data
    return BQField(u.grid, np.stack([-1j * u1, 1j * u0, -1j * u3, 1j * u2]))


def q_map(u: BQField, sign: int) -> BQField:
    """Q^± u = (u ± JC u)/2 = u P_1^±, since JC u = u (i e1); Q^+ + Q^- = I."""
    return u * right_projector(1, sign)


def pi_map(u: BQField) -> BQField:
    """The involution (1/2)(I + J - C + JC).

    For axial alpha whose varying component does not depend on x1, this
    maps solutions of the quaternionic Schrodinger equation (A + BC)u = 0
    one-to-one onto solutions of the diagonal '+' equation.
    """
    cu = c_map(u)
    return 0.5 * (u + j_map(u) - cu + j_map(cu))


class AxialOperators:
    """The alpha-dependent operators for alpha = a1(x) e1 + a2 e2 + a3 e3.

    A u = -lap u - alpha**2 u, B u = -(D alpha) u (left multiplication),
    the second-order factor product D_alpha D_{-alpha} = A + BC and the
    diagonal pair A ± BJ, with C, J and Q^± the module-level maps
    ``c_map``, ``j_map`` and ``q_map``.
    """

    def __init__(self, alpha: AxialAlpha, grid: Grid3):
        if not isinstance(alpha, AxialAlpha):
            raise ValueError("axial operators require axial alpha")
        self.alpha = alpha
        self.grid = grid
        self.alpha_sq = alpha.alpha_sq(grid)
        # grad a1, sampled once for both multipliers
        g1, g2, g3 = alpha.grad_a1_components(grid)
        self.d_alpha1 = BQField.from_vector(grid, g1, g2, g3)
        # -(D alpha) = -(D a1) e1 = g1 - g3 e2 + g2 e3
        self.b_mult = BQField.from_components(grid, g1, 0.0, -g3, g2)

    def a(self, u: BQField, wide: bool = False) -> BQField:
        lap = laplacian_wide(u) if wide else laplacian(u)
        return -lap - self.alpha_sq * u

    def b(self, u: BQField) -> BQField:
        return self.b_mult * u

    def abc(self, u: BQField, wide: bool = False) -> BQField:
        """(A + BC) u."""
        return self.a(u, wide) + self.b(c_map(u))

    def schro(self, u: BQField, sign: int) -> BQField:
        """(A ± B J) u = -lap u - (alpha**2 ∓ i D a1) u, the diagonal pair."""
        return self.a(u) + float(sign) * 1j * (self.d_alpha1 * u)

    def split_identity_residual(self, u: BQField) -> float:
        """Relative defect of (A + BC)u = (A + BJ)Q^+u + (A - BJ)Q^-u,
        an exact pointwise operator identity."""
        lhs = self.abc(u)
        rhs = self.schro(q_map(u, 1), 1) + self.schro(q_map(u, -1), -1)
        return (lhs - rhs).linf() / max(lhs.linf(), 1e-300)

    def factq_residual(self, u: BQField, wide: bool = True):
        """Residual of the product identity D_alpha D_{-alpha} = A + BC.

        With wide=True the Laplacian inside A uses the doubled-spacing
        stencil that the squared first-order operator produces on its
        diagonal, which makes the identity exact for constant a1 (to
        rounding); for varying a1 the defect is the O(h^2) discrete
        product-rule error.  Returns (residual BQField, scale).
        """
        lhs = factored_product(u, self.alpha)
        rhs = self.abc(u, wide=wide)
        return lhs - rhs, max(lhs.linf(), rhs.linf(), 1e-300)


# --------------------------------------------------------------------------
# zero-divisor reductions of the diagonal '+' equation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """Classification of the diagonal '+' equation for axial alpha.

    case 'i'   : (i D a1 - alpha**2) is a zero divisor; the ansatz
                 v = (i D a1 + alpha**2) f turns the equation into the
                 Laplace equation for the product v itself.
    case 'ii'  : D a1 is a zero divisor (null gradient); v = (D a1) f with
                 scalar equation (lap + alpha**2) f = 0 (exact closure for
                 constant D a1).
    case 'iii' : generic; with beta = i D a1 and beta0 a square root of
                 beta**2, v = (beta0 - beta) f with scalar equation
                 (lap + beta0 + alpha**2) f = 0.
    'degenerate' flags constant a1 (D a1 = 0): coupling only through
    alpha**2, already scalar.

    ``multiplier`` is the ansatz factor as a field; ``potential`` the
    scalar potential of the reduced equation written as
    (lap + potential) f = 0 (None for case 'i'); ``unknown`` records which
    function the closing scalar equation is for.
    """

    case: str
    multiplier: BQField | None
    potential: np.ndarray | None
    beta0: np.ndarray | None
    unknown: str


def zero_divisor_reduction(alpha: AxialAlpha, grid: Grid3) -> ReductionReport:
    if not isinstance(alpha, AxialAlpha):
        raise ValueError("zero-divisor reduction requires axial alpha")
    g1, g2, g3 = alpha.grad_a1_components(grid)
    asq = alpha.alpha_sq(grid)
    grad_sq = g1 ** 2 + g2 ** 2 + g3 ** 2          # <grad a1, grad a1>
    grad_mag = np.abs(g1) + np.abs(g2) + np.abs(g3)
    scale = float(np.nanmax(grad_mag, initial=0.0))
    if scale <= ROUNDING_TOL:
        return ReductionReport(case="degenerate", multiplier=None,
                               potential=None, beta0=None, unknown="f")

    def all_zero(arr, ref):
        vals = np.abs(arr)
        refs = ROUNDING_TOL * np.maximum(1.0, np.abs(ref))
        mask = np.isfinite(vals)
        return bool(np.all(vals[mask] <= refs[mask]))

    # case i: Q = i D a1 - alpha**2 in the zero-divisor set:
    #   Sc(Q)^2 = (alpha**2)^2 must equal Vec(Q)^2 = <grad a1, grad a1>
    if all_zero(asq ** 2 - grad_sq, asq ** 2 + grad_sq):
        mult = BQField.from_components(grid, asq, 1j * g1, 1j * g2, 1j * g3)
        return ReductionReport(case="i", multiplier=mult, potential=None,
                               beta0=None, unknown="v")
    # case ii: D a1 itself a zero divisor: <grad a1, grad a1> = 0
    if all_zero(grad_sq, grad_mag ** 2):
        mult = BQField.from_vector(grid, g1, g2, g3)
        return ReductionReport(case="ii", multiplier=mult, potential=asq,
                               beta0=None, unknown="f")
    # case iii: beta = i D a1, beta0**2 = beta**2 = <grad a1, grad a1>
    beta0 = np.sqrt(grad_sq + 0j)
    mult = BQField.from_components(grid, beta0, -1j * g1, -1j * g2, -1j * g3)
    return ReductionReport(case="iii", multiplier=mult,
                           potential=beta0 + asq, beta0=beta0, unknown="f")
