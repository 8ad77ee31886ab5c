"""Factorization of the Schrodinger operator through first-order factors.

The central objects: the quaternionic Riccati balance
D(alpha) + alpha**2 = -v, the scalar factorization
(-lap + v) = (D + M^alpha)(D - M^alpha) on scalar functions, its
componentwise diagonalization for separable alpha (potentials v_k, w_k),
closed-form one-component solution families, a right inverse of
D + M^alpha from four solves of one separable Dirichlet solver, which puts
each 1-D operator once in a unitary (eigh or Schur) form, and the
quaternionic-potential machinery for axial alpha: the alpha-free pointwise
maps C, J, Q^± and Pi (``c_map``, ``j_map``, ``q_map``, ``pi_map``), the
alpha-dependent operators in ``AxialOperators`` and the zero-divisor
reductions to scalar equations.

The factor D + M^alpha is ``grid.nabla_alpha``; D - M^alpha is
``build_solution``.  Both are grid's blocked first-order kernel, which
adds or subtracts f*alpha, summed from ``QMUL_TERMS`` as grid's field
products are, block by block inside nabla's loop: a factor holds its
output and no whole-field product.  The factorization's own passes run
block by block through ``grid._run_blocks`` too, split across CPUs with
each node's arithmetic unchanged: the ``PotentialSet`` of
``potentials``, which holds alpha's 1-D lines alone and forms each v_k,
w_k and alpha**2 from them when read, its pairing defect, and in
``factorization_residual`` the first factor grad phi - phi a_k and the
last pass, which forms lhs - rhs and the norm of rhs.  For a separable
alpha, D(alpha) + alpha**2 + v is v - v_0, so ``factorization_residual``
checks the Riccati precondition on the potentials' v_0.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, schur
# not called here: the benchmark tracer patches this name to time scipy's sparse solvers
from scipy.sparse import linalg as sla  # noqa: F401

from .algebra import E1, INVOLUTION_SIGNS, QMUL_TERMS, ROUNDING_TOL, right_projector
from .alpha import AlphaSpec, AxialAlpha, SeparableAlpha, _negated_sum, _times_e1
from .grid import (BQField, Grid3, _block_of, _blocked_output, _central_difference, _check_finite,
                   _first_order, _linf_of_tops, _negate, _on_mesh, _product, _run_blocks,
                   _schrodinger, _top, alpha_arrays, linf, nabla_alpha, sample)

__all__ = [
    "riccati_residual",
    "factored_product",
    "factorization_residual",
    "PotentialSet",
    "potentials",
    "build_solution",
    "ClosedFormFamily",
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
    differences otherwise.  Raises ValueError when sampled v is not finite.
    """
    (v_arr,) = _check_finite([_on_mesh(grid, v)], "v")
    return _riccati(alpha, v_arr, grid)[0]


def _riccati(alpha: AlphaSpec, v_arr: np.ndarray, grid: Grid3):
    """(riccati_residual, alpha**2) for v already sampled on the grid."""
    asq = alpha.alpha_sq(grid)
    res = alpha.d_alpha(grid)
    res.data[0] += asq + v_arr
    return res, asq


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

    The operators act on the one component phi occupies, but the residual
    is, node for node and NaN rim included, -laplacian(phi e0) + v phi e0
    minus factored_product(phi e0, alpha).  Raises when sampled v or phi
    is not finite, and when alpha does not solve the Riccati precondition
    for v within _RICCATI_TOL (relative).  Returns (residual BQField, scale).
    """
    (v_arr,) = _check_finite([_on_mesh(grid, v)], "v")
    if isinstance(alpha, SeparableAlpha):
        # D(alpha) + alpha**2 + v is v - v_0, zero in the vector slots; v_0 - v
        # is formed in the fresh v_0, with the same magnitudes
        pots = potentials(alpha, grid)
        v0 = pots.v[0]
        res_norm = linf(np.subtract(v0, v_arr, out=v0))
        del v0
        asq_norm = linf(pots.alpha_sq)
    else:
        rres, asq = _riccati(alpha, v_arr, grid)
        res_norm, asq_norm = rres.linf(), linf(asq)
        del rres, asq  # a field-sized array and alpha**2, not needed past the check
    rel = res_norm / max(1.0, asq_norm, linf(v_arr))
    if not rel <= _RICCATI_TOL:
        raise ValueError(
            f"Riccati precondition violated: relative residual {rel:.3e} > {_RICCATI_TOL:.1e}")
    # phi is a scalar, so each factor is taken on the one component phi
    # occupies: -lap phi + v phi
    (phi_arr,) = _check_finite([sample(grid, phi)], "phi")
    lhs = _schrodinger(phi_arr[np.newaxis], (v_arr,), grid)[0]
    del v_arr
    # (D - M^alpha) phi = grad phi - phi alpha, all vector: alpha has no
    # scalar part.  Written block by block inside the NaN rim build_solution
    # leaves, which the nodes of nabla_alpha next to it read.
    a = alpha_arrays(alpha, grid)

    def block(first, sl, t):
        first[0][sl] = 0.0
        for axis in range(3):
            fk = first[axis + 1][sl]
            np.multiply(phi_arr[sl], _block_of(a[axis + 1], sl), out=fk)
            _central_difference(phi_arr, sl, axis, grid.spacing[axis], t)
            np.subtract(t, fk, out=fk)

    first = _blocked_output((4, *grid.shape), (0, 1, 2), 1, block, (complex,))
    del phi_arr
    res = nabla_alpha(BQField(grid, first), a)
    del first
    rhs_tops = []

    def finish(sl, mag):
        # lhs - rhs: -rhs, with lhs in the scalar slot (x - y is x + (-y))
        for rc in res.data:
            rhs_tops.append(_top(np.abs(rc[sl], out=mag)))
            _negate(rc[sl])
        res.data[0][sl] += lhs[sl]

    _run_blocks(finish, tuple(slice(0, n) for n in grid.shape), (float,))
    return res, max(linf(lhs), _linf_of_tops(rhs_tops), 1e-300)


# --------------------------------------------------------------------------
# separable alpha: the four scalar potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSet:
    """The scalar potentials v_k = -D(alpha^(k)) - alpha**2 and
    w_k = +D(alpha^(k)) - alpha**2, k = 0..3, of a separable alpha.

    Each is a sum of functions of x1, x2 and x3 alone, so the set holds
    alpha's component lines a_j and derivative lines a_j' and no grid
    array: ``v[k]``, ``w[k]`` and ``alpha_sq`` form a new array on each
    read.  A caller who needs one of them more than once should keep it.
    v_k + w_k is -2*alpha**2 at every node: the derivative parts cancel.
    """

    components: tuple
    deriv_components: tuple

    @property
    def v(self) -> _Potentials:
        """The four v_k = X_k - alpha**2, for X_k = -D(alpha^(k))."""
        return _Potentials(self, 1)

    @property
    def w(self) -> _Potentials:
        """The four w_k = (-X_k) - alpha**2."""
        return _Potentials(self, -1)

    @property
    def alpha_sq(self) -> np.ndarray:
        """alpha**2 = -(a1**2 + a2**2 + a3**2), a new array."""
        out = np.empty(self._shape(), dtype=complex)
        self._run_parts(lambda part: _alpha_sq_block(self.components, part, out[part]))
        return out

    def _shape(self) -> tuple:
        """The grid's shape, which the component lines span."""
        return np.broadcast_shapes(*(a.shape for a in self.components))

    def _run_parts(self, body, temps: tuple = ()) -> None:
        """body(part, *temporaries) on each part of two x1-planes of the
        blocks ``grid._run_blocks`` deals out, its temporaries cut to the
        part: a few passes over a part stay in cache, and an array of a
        part's shape is a quarter of a block's."""
        def block(sl, *ts):
            planes = range(sl[0].start, sl[0].stop)
            for i in range(0, len(planes), 2):
                q = planes[i:i + 2]
                body((slice(q.start, q.stop), *sl[1:]), *(t[i:i + 2] for t in ts))

        _run_blocks(block, tuple(slice(0, n) for n in self._shape()), temps)

    def pairing_defect(self) -> float:
        """max_k || v_k + w_k + 2*alpha**2 ||_inf (zero to rounding), with
        v_k, w_k and alpha**2 formed part by part from the lines."""
        tops = [[] for _ in range(4)]

        def body(part, a, vk, total, mag):
            _alpha_sq_block(self.components, part, a)
            d = [_block_of(dj, part) for dj in self.deriv_components]
            for k, top in enumerate(tops):
                # v_k + w_k as v_k - (X_k + alpha**2), both from one X_k:
                # w_k = (-X_k) - alpha**2 is -(X_k + alpha**2) to the bit but
                # for the sign of a zero, which no |.| reads
                _signed_line_sum(d, k, out=total)
                np.subtract(total, a, out=vk)
                np.add(total, a, out=total)
                np.subtract(vk, total, out=vk)
                np.add(vk, np.multiply(2.0, a, out=total), out=vk)
                top.append(_top(np.abs(vk, out=mag)))

        self._run_parts(body, (complex, complex, complex, float))
        return max(_linf_of_tops(top) for top in tops)


class _Potentials(Sequence):
    """The v (sign 1) or w (sign -1) of a PotentialSet: index k forms
    sign * X_k - alpha**2, a new array."""

    def __init__(self, pots: PotentialSet, sign: int):
        self._pots, self._sign = pots, sign

    def __len__(self) -> int:
        return 4

    def __getitem__(self, k) -> np.ndarray:
        k = range(4)[operator.index(k)]  # IndexError past either end
        pots = self._pots
        out = np.empty(pots._shape(), dtype=complex)

        def body(part):
            o = out[part]
            _alpha_sq_block(pots.components, part, o)
            x = _signed_line_sum([_block_of(dj, part) for dj in pots.deriv_components], k)
            np.subtract(_negate(x) if self._sign < 0 else x, o, out=o)

        pots._run_parts(body)
        return out


def _alpha_sq_block(comps, sl, out) -> np.ndarray:
    """alpha**2 on the block sl from the component lines, into out, as
    ``AlphaSpec.alpha_sq`` sums it on the whole grid."""
    return _negated_sum(*(_block_of(c, sl) ** 2 for c in comps), out=out)


def _signed_line_sum(derivs, k: int, out=None) -> np.ndarray:
    """sum_j s_j a_j' = -D(alpha^(k)) from the derivative arrays a_j'(x_j)
    of a separable alpha and the involution signs s of k, into out when
    given."""
    s = INVOLUTION_SIGNS[k]
    return np.add(s[0] * derivs[0] + s[1] * derivs[1], s[2] * derivs[2], out=out)


def potentials(alpha: AlphaSpec, grid: Grid3) -> PotentialSet:
    """The diagonalized potentials; requires separable alpha, since only
    then is every D(alpha^(k)) a scalar."""
    if not isinstance(alpha, SeparableAlpha):
        raise ValueError("potentials require separable alpha: D(alpha^(k)) is not scalar otherwise")
    derivs = alpha.deriv_components(grid)
    return PotentialSet(alpha.components(grid), derivs)


def build_solution(g: BQField, alpha) -> BQField:
    """f = (D - M^alpha) g; alpha is anything ``alpha_arrays`` takes.

    When each component g_k solves (-lap + v_k) g_k = 0, f solves
    D f + f*alpha = 0 (at discretization accuracy when g is sampled);
    conversely a solution f of that form forces the g_k to solve their
    Schrodinger equations.
    """
    return _first_order(g, alpha_arrays(alpha, g.grid), -1)


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
    first-order equation.  Raises ValueError unless alpha is separable with
    antiderivatives.
    """

    alpha: SeparableAlpha

    def __post_init__(self):
        if not isinstance(self.alpha, SeparableAlpha):
            raise ValueError("one-component closed forms require separable alpha")
        if not self.alpha.has_antiderivatives():
            raise ValueError("missing antiderivative for separable alpha")

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
        f = self.combination(grid, coeffs)
        alpha = alpha_arrays(self.alpha, grid)
        a = alpha[1:]
        # D f from the terms sign * d_(i-1) f_j that QMUL_TERMS gives it,
        # with d_(i-1) f_j = s_j[i-1] a_(i-1) f_j, summed in the order of j
        acc = np.zeros_like(f.data)
        for acc_c, terms in zip(acc, QMUL_TERMS):
            for sgn, i, j in sorted(terms, key=lambda t: t[2]):
                if i:
                    d = _FAMILY_SIGNS[j][i - 1] * a[i - 1] * f.data[j]
                    (np.add if sgn > 0 else np.subtract)(acc_c, d, out=acc_c)
        acc += _product(f.data, alpha, grid)
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
        pot = getattr(PotentialSet(a, da), which)[k]  # v_k or w_k
        s = _FAMILY_SIGNS[k]
        if which == "v":
            vals = self.phi_values(grid, k)
            # d_j phi = -s_j a_j phi  ->  d_j^2 phi = (-s_j a_j' + a_j^2) phi
            lap_factor = sum(-s[j] * da[j] + a[j] ** 2 for j in range(3))
        else:
            vals = self.f_values(grid, k)
            lap_factor = sum(s[j] * da[j] + a[j] ** 2 for j in range(3))
        res = -lap_factor * vals + pot * vals
        # scale by the magnitude of the terms entering the cancellation, not
        # by their (identically vanishing) sum
        gross = sum(np.abs(da[j]) + np.abs(a[j]) ** 2 for j in range(3)) * np.abs(vals)
        scale = max(linf(gross), linf(np.abs(pot) * np.abs(vals)), 1e-300)
        return res, scale


# --------------------------------------------------------------------------
# right inverse via four Dirichlet solves in per-axis unitary forms
# --------------------------------------------------------------------------

# relative residual of a component solve above which right_inverse raises
_SOLVER_TOL = 1e-10

# planes of the back-substitution whose trailing update is one matrix product
_PLANE_BLOCK = 16


@dataclass(frozen=True)
class RightInverseResult:
    field: BQField          # T f, with (D + M^alpha)(T f) = f
    u: BQField              # the four Schrodinger solves, zero on the boundary
    solver_residual: float  # worst relative linear-system residual
    condition: float        # worst max|lam| / min|lam| of a component operator


def _axis_operators(pots: PotentialSet, grid: Grid3):
    """Per axis j, a dict keyed by σ = ±1 of the 1-D interior operators
    A_j^σ = -d^2/dx_j^2 + σ a_j' + a_j**2, zero Dirichlet ends, from the
    lines a_j, a_j' pots holds.  Component k takes σ_j = s_kj on axis j:
    A_1^σ1 ⊕ A_2^σ2 ⊕ A_3^σ3 is then -lap + v_k on the interior nodes."""
    ops = []
    for j, (a, da) in enumerate(zip(pots.components, pots.deriv_components)):
        m, h = grid.shape[j] - 2, grid.spacing[j]
        lap = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h ** 2
        q = {sigma: sigma * da.ravel()[1:-1] + a.ravel()[1:-1] ** 2 for sigma in (1, -1)}
        if not all(np.isfinite(qs).all() for qs in q.values()):
            raise ValueError("potential has invalid interior values")
        ops.append({sigma: lap + np.diag(qs) for sigma, qs in q.items()})
    return ops


def _diagonalize(a: np.ndarray):
    """A unitary form A = Q T Q^H of a 1-D operator: (T, Q).  An operator
    with real values is symmetric, -d^2 + diag(q), so eigh gives T diagonal,
    held as the 1-D array of its eigenvalues, and Q orthogonal; any other
    takes the complex Schur form, T upper triangular."""
    if not a.imag.any():
        return np.linalg.eigh(a.real)
    return schur(a, output="complex")


def _along(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix mat along one axis of the 3-D array x."""
    return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)


def _kronecker_sum_apply(ops, x: np.ndarray) -> np.ndarray:
    """(A_1 ⊕ A_2 ⊕ A_3) x for tridiagonal A_j, from their three diagonals:
    O(1) work per entry of x, where ``_along`` with a dense A_j takes O(m).
    The shifted slices read a contiguous copy of x, faster than the
    transposed array a solve returns."""
    x = np.ascontiguousarray(x)
    d1, d2, d3 = (np.diagonal(a) for a in ops)
    out = (d1[:, None, None] + d2[:, None] + d3) * x
    for j, a in enumerate(ops):
        line = (-1,) + (1,) * (2 - j)
        lo, up = ((slice(None),) * j + (s,) for s in (slice(1, None), slice(None, -1)))
        out[lo] += np.diagonal(a, -1).reshape(line) * x[up]
        out[up] += np.diagonal(a, 1).reshape(line) * x[lo]
    return out


def _plane_solve(shift, rhs: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """Solve (shift + T_2 ⊕ T_3) z = rhs on one plane: a division when both
    T are diagonal (1-D), else the Sylvester equation
    (T_2 + shift) z + z T_3^T = rhs by LAPACK trsyl, with T_3^T passed as
    conj(T_3)^H since complex trsyl has no plain transpose."""
    if t2.ndim == 1:
        return rhs / (shift + t2[:, None] + t3[None, :])
    b = np.diag(t3) if t3.ndim == 1 else t3
    z, scale, info = lapack.ztrsyl(t2 + shift * np.eye(len(t2)), b.conj(), rhs, tranb="C")
    if info != 0 or scale != 1.0:
        raise ValueError(f"discrete operator singular or near-singular: trsyl info {info}, "
                         f"scale {scale:.3e}")
    return z


def _triangular_solve(y: np.ndarray, t1: np.ndarray, t2: np.ndarray,
                      t3: np.ndarray) -> np.ndarray:
    """Solve (T_1 ⊕ T_2 ⊕ T_3) z = y for upper triangular T_1, by
    back-substitution over its planes z[i].  The planes of a block of
    _PLANE_BLOCK take their update from the solved planes after the block
    in one matrix product, and from those inside it one at a time."""
    m = len(t1)
    rest = y.reshape(m, -1)
    z = np.empty((m, rest.shape[1]), dtype=complex)
    for stop in range(m, 0, -_PLANE_BLOCK):
        start = max(stop - _PLANE_BLOCK, 0)
        block = rest[start:stop] - t1[start:stop, stop:] @ z[stop:]
        for i in range(stop - 1, start - 1, -1):
            plane = block[i - start] - t1[i, i + 1:stop] @ z[i + 1:stop]
            z[i] = _plane_solve(t1[i, i], plane.reshape(y.shape[1:]), t2, t3).ravel()
    return z.reshape(y.shape)


class _DirichletSolver:
    """Solves (A_1 ⊕ A_2 ⊕ A_3) u = rhs on a grid's interior nodes, u zero
    on its boundary, for tridiagonal 1-D operators A_j = axes[j][σ], σ = ±1.

    Each of the six is put once, when the solver is built, in a unitary form
    A_j = Q_j T_j Q_j^H (``_diagonalize``: eigh for real values, T_j then
    diagonal; complex Schur otherwise, T_j upper triangular).  A solve
    contracts with the Q_j^H, solves with T_1 ⊕ T_2 ⊕ T_3 and contracts
    with the Q_j (Bartels & Stewart 1972).  With every T_j diagonal the
    middle step divides by the eigenvalue sums lam_1 + lam_2 + lam_3, fast
    diagonalization (Lynch, Rice & Thomas 1964); else it back-substitutes
    along a triangular axis, each plane a division or one LAPACK trsyl.
    A singular operator, seen in min |lam_1 + lam_2 + lam_3|, raises.
    """

    def __init__(self, axes):
        self._axes = [{s: (a, _diagonalize(a)) for s, a in pair.items()} for pair in axes]

    def solve(self, rhs: np.ndarray, signs):
        """(u, relative residual, condition) for A_j = axes[j][signs[j]]:
        the residual is max |A u - rhs| / max |rhs|, NaN kept, with A
        applied from its diagonals (``_kronecker_sum_apply``); the
        condition is max |lam| / min |lam| over the eigenvalue sums."""
        ops, forms = zip(*(self._axes[j][s_j] for j, s_j in enumerate(signs)))
        lams = [t if t.ndim == 1 else np.diagonal(t) for t, _ in forms]
        total = lams[0][:, None, None] + lams[1][None, :, None] + lams[2][None, None, :]
        mag = np.abs(total)
        smallest, largest = mag.min(), mag.max()
        del mag  # an n^3 array no later step reads
        if smallest <= total.size * np.finfo(float).eps * largest:
            raise ValueError("discrete operator singular or near-singular: "
                             f"min |lam| {smallest:.3e}, max |lam| {largest:.3e}")
        y = rhs
        for j, (_, q) in enumerate(forms):
            y = _along(q.conj().T, y, j)
        if all(t.ndim == 1 for t, _ in forms):
            y = y / total
        else:
            # triangular axes first, so the back-substitution runs along one of
            # them and a plane is triangular only where a Sylvester solve is due
            order = sorted(range(3), key=lambda j: -forms[j][0].ndim)
            y = np.ascontiguousarray(np.transpose(y, order))
            y = _triangular_solve(y, *(forms[j][0] for j in order))
            y = np.transpose(y, np.argsort(order))
        for j, (_, q) in enumerate(forms):
            y = _along(q, y, j)
        rhs_scale = max(float(np.abs(rhs).max(initial=0.0)), 1e-300)
        residual = np.abs(_kronecker_sum_apply(ops, y) - rhs).max(initial=0.0) / rhs_scale
        return y, residual, largest / smallest


def right_inverse(f: BQField, alpha: AlphaSpec) -> RightInverseResult:
    """Apply a discrete right inverse T of D + M^alpha.

    Per component k, (-lap + v_k) u_k = f_k is solved with zero Dirichlet
    boundary values; then T f = (D - M^alpha) u, with (D + M^alpha)(T f) = f
    up to the O(h^2) defect between the product of the two discrete
    first-order factors and the compact second-order operator.  Since
    D - M^alpha = D + M^-alpha and w_k(alpha) = v_k(-alpha), a preimage
    under D - M^alpha is ``right_inverse(f, -alpha).field``.

    For separable alpha each v_k is a sum of 1-D functions, so -lap + v_k
    is a Kronecker sum of 1-D operators (``_axis_operators``, from
    ``potentials``, which raises for any other alpha); one
    ``_DirichletSolver`` built per call solves the four components (see it
    for the algorithm and its singular case), and ``condition`` is the
    worst of theirs.  A ValueError is also raised when a component of f is
    not finite at an interior node (the boundary values are not used) and
    when any solve's relative residual exceeds _SOLVER_TOL or is NaN.
    """
    grid = f.grid
    solver = _DirichletSolver(_axis_operators(potentials(alpha, grid), grid))
    inner = tuple(slice(1, -1) for _ in range(3))
    u = np.zeros((4, *grid.shape), dtype=complex)
    worst = condition = 0.0
    for k, s in enumerate(INVOLUTION_SIGNS):
        rhs = f.data[k][inner]
        if not np.isfinite(rhs).all():
            raise ValueError(f"f component {k} is not finite at an interior node")
        u[k][inner], residual, cond = solver.solve(rhs, s)
        # np.maximum keeps a NaN, which Python's max would drop
        worst = float(np.maximum(worst, residual))
        condition = float(np.maximum(condition, cond))
    if not worst <= _SOLVER_TOL:
        raise ValueError(f"linear solver residual {worst:.3e} exceeds {_SOLVER_TOL:.1e}")
    u_field = BQField(grid, u)
    return RightInverseResult(field=build_solution(u_field, alpha), u=u_field,
                              solver_residual=worst, condition=condition)


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
    return (1j * E1) * u


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

    A u = (-lap + v) u with v = -alpha**2 on every component (compact, or
    wide for ``a(u, wide=True)``), B u = -(D alpha) u (left multiplication),
    the second-order factor product D_alpha D_{-alpha} = A + BC and the
    diagonal pair A ± BJ, with C, J and Q^± the module-level maps
    ``c_map``, ``j_map`` and ``q_map``.  ``alpha_sq``, ``d_alpha1`` (D a1)
    and ``b_mult`` (-(D alpha)) are arrays that broadcast against the grid,
    as the spec samples them; B and the J term are ``grid._product``s.
    """

    def __init__(self, alpha: AxialAlpha, grid: Grid3):
        if not isinstance(alpha, AxialAlpha):
            raise ValueError("axial operators require axial alpha")
        self.alpha = alpha
        self.grid = grid
        self.alpha_sq = alpha.alpha_sq(grid)
        # grad a1, sampled once for both multipliers
        grad = alpha.grad_a1_components(grid)
        self.d_alpha1 = (_on_mesh(grid, 0.0), *grad)
        self.b_mult = -_times_e1(grad)  # -(D alpha) = -(D a1) e1

    def a(self, u: BQField, wide: bool = False) -> BQField:
        v = -self.alpha_sq
        return BQField(self.grid, _schrodinger(u.data, (v,) * 4, self.grid, 2 if wide else 1))

    def _times(self, mult, u: BQField) -> BQField:
        return BQField(self.grid, _product(mult, u.data, self.grid))

    def b(self, u: BQField) -> BQField:
        return self._times(self.b_mult, u)

    def abc(self, u: BQField, wide: bool = False) -> BQField:
        """(A + BC) u."""
        return self.a(u, wide) + self.b(c_map(u))

    def schro(self, u: BQField, sign: int) -> BQField:
        """(A ± B J) u = -lap u - (alpha**2 ∓ i D a1) u, the diagonal pair;
        sign is +1 or -1."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        return self.a(u) + float(sign) * 1j * self._times(self.d_alpha1, u)

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
    (lap + potential) f = 0 (None for case 'i'), like ``beta0`` an array
    that broadcasts against the grid; ``unknown`` records which function
    the closing scalar equation is for.
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
