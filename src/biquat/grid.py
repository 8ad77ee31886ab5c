"""Uniform 3-D grids, biquaternion-valued fields, and discrete operators.

Differential operators use second-order central differences.  Nodes where
a stencil would reach outside the grid are marked invalid by storing NaN;
applying an operator twice therefore widens the invalid rim automatically,
and all norms ignore invalid nodes.  Residual checks are thus always taken
over the interior on which the discrete operators are actually defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import ROUNDING_TOL, Biquaternion, qmul

__all__ = [
    "Grid3",
    "Field4",
    "BQField",
    "Norms",
    "sample",
    "partial_deriv",
    "divergence",
    "curl",
    "nabla",
    "as_alpha_field",
    "nabla_alpha",
    "ie1_field",
    "laplacian",
    "laplacian_wide",
    "reflect_x3",
    "linf",
    "l2",
    "norms",
]


@dataclass(frozen=True)
class Grid3:
    """Uniform tensor-product grid with n_k nodes per axis.

    Node coordinates along axis k are origin[k] + j*spacing[k] for
    j = 0..n_k-1.  At least 5 nodes per axis so that interior second-order
    stencils (including the doubled-spacing ones) have room.
    """

    shape: tuple[int, int, int]
    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        if len(self.shape) != 3:
            raise ValueError("shape must have three entries")
        if any(int(n) < 5 for n in self.shape):
            raise ValueError(f"grid too small for interior stencils: {self.shape}")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("spacing must be positive")

    @classmethod
    def box(cls, lo, hi, n) -> "Grid3":
        """Grid over the box [lo1,hi1] x [lo2,hi2] x [lo3,hi3].

        lo, hi and n may be scalars (applied to all axes) or triples.
        """
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (3,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (3,))
        n = np.broadcast_to(np.asarray(n, dtype=int), (3,))
        spacing = tuple((hi[k] - lo[k]) / (n[k] - 1) for k in range(3))
        return cls(shape=tuple(int(m) for m in n), origin=tuple(lo), spacing=spacing)

    def refine(self) -> "Grid3":
        """Same box with doubled resolution (n -> 2n - 1, h -> h/2)."""
        n = tuple(2 * m - 1 for m in self.shape)
        h = tuple(s / 2 for s in self.spacing)
        return Grid3(shape=n, origin=self.origin, spacing=h)

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing[k] * np.arange(self.shape[k])

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.axis(0), self.axis(1), self.axis(2)

    def mesh(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def sample_axis(self, k: int, fn) -> np.ndarray:
        """Evaluate fn(x_k) (or a constant) on axis k as a complex line:
        length n_k along axis k and 1 along the others, so it broadcasts
        against full grid arrays without being copied to the grid."""
        x = self.axis(k)
        if callable(fn):
            # poles are reported by the callers' finiteness checks, not by
            # numpy noise
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.asarray(fn(x), dtype=complex)
        else:
            vals = complex(fn)
        shape = [1, 1, 1]
        shape[k] = self.shape[k]
        return np.broadcast_to(vals, x.shape).reshape(shape)

    @property
    def cell_volume(self) -> float:
        return float(self.spacing[0] * self.spacing[1] * self.spacing[2])

    @property
    def hmax(self) -> float:
        return float(max(self.spacing))

    @property
    def x3_symmetric(self) -> bool:
        """True when x3 -> -x3 maps the node set onto itself."""
        n3 = self.shape[2]
        center = self.origin[2] + 0.5 * (n3 - 1) * self.spacing[2]
        return abs(center) <= 1e-12 * max(1.0, abs(self.origin[2]))


def sample(grid: Grid3, fn) -> np.ndarray:
    """Evaluate fn(X1, X2, X3) on the grid; constants broadcast."""
    if callable(fn):
        x1, x2, x3 = grid.mesh()
        out = np.asarray(fn(x1, x2, x3), dtype=complex)
        return np.broadcast_to(out, grid.shape).astype(complex)
    return np.broadcast_to(np.asarray(fn, dtype=complex), grid.shape).astype(complex)


class Field4:
    """Four complex components sampled on a Grid3; data shape (4, n1, n2, n3).

    + and - combine two fields of the same type on the same grid; * by a
    complex scalar or a scalar array (grid.shape) scales every component.
    Fields of different types never mix.  All operations are pure.
    """

    __array_ufunc__ = None  # defer numpy binary ops to our __rmul__ etc.

    def __init__(self, grid: Grid3, data: np.ndarray):
        data = np.asarray(data, dtype=complex)
        if data.shape != (4, *grid.shape):
            raise ValueError(f"data shape {data.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.data = data

    @classmethod
    def zeros(cls, grid: Grid3):
        return cls(grid, np.zeros((4, *grid.shape), dtype=complex))

    @classmethod
    def from_components(cls, grid: Grid3, c0=0.0, c1=0.0, c2=0.0, c3=0.0):
        return cls(grid, np.stack([sample(grid, c) for c in (c0, c1, c2, c3)]))

    def _same_grid(self, other: "Field4") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    def _binary(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_grid(other)
        return type(self)(self.grid, op(self.data, other.data))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return type(self)(self.grid, -self.data)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return type(self)(self.grid, self.data * other)
        if isinstance(other, np.ndarray):
            return type(self)(self.grid, self.data * other[np.newaxis])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return type(self)(self.grid, other * self.data)
        if isinstance(other, np.ndarray):
            return type(self)(self.grid, other[np.newaxis] * self.data)
        return NotImplemented

    def linf(self) -> float:
        return linf(self.data)

    def l2(self) -> float:
        return l2(self.data, self.grid)


class BQField(Field4):
    """Biquaternion-valued function sampled on a Grid3.

    Index 0 of data is the scalar part.  Fields behave like elements of the
    algebra pointwise: on top of Field4's componentwise arithmetic, * with
    a BQField or a Biquaternion is the quaternion product.
    """

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_scalar(cls, grid: Grid3, f) -> "BQField":
        return cls.from_components(grid, c0=f)

    @classmethod
    def from_vector(cls, grid: Grid3, v1, v2, v3) -> "BQField":
        return cls.from_components(grid, 0.0, v1, v2, v3)

    @classmethod
    def constant(cls, grid: Grid3, q: Biquaternion) -> "BQField":
        return cls.from_components(grid, *q.components)

    # -- parts -----------------------------------------------------------
    @property
    def scalar(self) -> np.ndarray:
        return self.data[0]

    @property
    def vector(self) -> np.ndarray:
        """The three vector component arrays, shape (3, n1, n2, n3)."""
        return self.data[1:]

    def vector_part(self) -> "BQField":
        out = self.data.copy()
        out[0] = 0.0
        return BQField(self.grid, out)

    def is_vectorial(self) -> bool:
        scale = max(1.0, float(np.nanmax(np.abs(self.data), initial=0.0)))
        return float(np.nanmax(np.abs(self.data[0]), initial=0.0)) <= ROUNDING_TOL * scale

    # -- quaternion product ------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, BQField):
            self._same_grid(other)
            return BQField(self.grid, qmul(self.data, other.data))
        if isinstance(other, Biquaternion):
            return BQField(self.grid, qmul(self.data, other.components.reshape(4, 1, 1, 1)))
        return super().__mul__(other)

    def __rmul__(self, other):
        if isinstance(other, Biquaternion):
            return BQField(self.grid, qmul(other.components.reshape(4, 1, 1, 1), self.data))
        return super().__rmul__(other)

    def conj(self) -> "BQField":
        out = self.data.copy()
        out[1:] = -out[1:]
        return BQField(self.grid, out)

    def __repr__(self):
        return f"BQField(grid={self.grid.shape}, linf={self.linf():.6g})"


# --------------------------------------------------------------------------
# norms (NaN entries mark invalid nodes and are excluded)
# --------------------------------------------------------------------------

def linf(a) -> float:
    data = a.data if isinstance(a, Field4) else np.asarray(a)
    m = np.abs(data)
    if not np.any(np.isfinite(m)):
        raise ValueError("no valid nodes to take a norm over")
    return float(np.nanmax(m))


def l2(a, grid: Grid3 | None = None) -> float:
    if isinstance(a, Field4):
        grid = a.grid
        data = a.data
    else:
        data = np.asarray(a)
        if grid is None:
            raise ValueError("l2 of a bare array needs the grid for the volume weight")
    m = np.abs(data) ** 2
    if not np.any(np.isfinite(m)):
        raise ValueError("no valid nodes to take a norm over")
    return float(np.sqrt(np.nansum(m) * grid.cell_volume))


class Norms(NamedTuple):
    linf: float
    l2: float


def norms(a, grid: Grid3 | None = None) -> Norms:
    return Norms(linf(a), l2(a, grid))


# --------------------------------------------------------------------------
# discrete operators
# --------------------------------------------------------------------------

def partial_deriv(arr: np.ndarray, grid: Grid3, axis: int) -> np.ndarray:
    """Central-difference partial derivative along a spatial axis.

    arr may be a scalar array (grid.shape) or a component stack
    (4, *grid.shape); the two boundary slabs along the axis are invalidated.
    """
    spatial_axis = axis + (arr.ndim - 3)
    out = np.gradient(arr, grid.spacing[axis], axis=spatial_axis)
    sl = [slice(None)] * arr.ndim
    sl[spatial_axis] = 0
    out[tuple(sl)] = np.nan
    sl[spatial_axis] = -1
    out[tuple(sl)] = np.nan
    return out


def divergence(v1, v2, v3, grid: Grid3) -> np.ndarray:
    return (partial_deriv(v1, grid, 0) + partial_deriv(v2, grid, 1)
            + partial_deriv(v3, grid, 2))


def curl(v1, v2, v3, grid: Grid3):
    return (
        partial_deriv(v3, grid, 1) - partial_deriv(v2, grid, 2),
        partial_deriv(v1, grid, 2) - partial_deriv(v3, grid, 0),
        partial_deriv(v2, grid, 0) - partial_deriv(v1, grid, 1),
    )


def nabla(f: BQField) -> BQField:
    """First-order operator sum_k e_k d_k f.

    Assembled as (-div f_vec) + grad f0 + curl f_vec so that the scalar and
    vector parts are, by construction, the same arithmetic as the vector
    calculus operators above.
    """
    g = f.grid
    f0, f1, f2, f3 = f.data
    d = -divergence(f1, f2, f3, g)
    g1, g2, g3 = (partial_deriv(f0, g, k) for k in range(3))
    c1, c2, c3 = curl(f1, f2, f3, g)
    return BQField(g, np.stack([d, g1 + c1, g2 + c2, g3 + c3]))


def as_alpha_field(alpha, grid: Grid3) -> BQField:
    """Normalize a BQField, a constant Biquaternion, or an AlphaSpec (anything
    exposing vector_field(grid)) to a field on the grid."""
    if isinstance(alpha, BQField):
        return alpha
    if isinstance(alpha, Biquaternion):
        return BQField.constant(grid, alpha)
    return alpha.vector_field(grid)


def nabla_alpha(f: BQField, alpha) -> BQField:
    """The perturbed operator f -> nabla(f) + f * alpha (right multiplication).

    alpha may be a BQField, a constant Biquaternion, or an AlphaSpec.
    """
    return nabla(f) + f * as_alpha_field(alpha, f.grid)


def ie1_field(grid: Grid3, c) -> BQField:
    """The multiplier field c * i e1 for a complex scalar (array or constant) c."""
    data = np.zeros((4, *grid.shape), dtype=complex)
    data[1] = 1j * c
    return BQField(grid, data)


def _second_difference(f: BQField, step: int) -> BQField:
    """Componentwise sum of the second differences over +-step nodes,
    divided by (step*h)**2; a rim of step nodes invalidated."""
    g = f.grid
    data = f.data
    inner = slice(step, -step)
    out = np.full_like(data, np.nan)
    c = data[:, inner, inner, inner]
    acc = np.zeros_like(c)
    for axis, h in enumerate(g.spacing):
        sl_p = [slice(None), inner, inner, inner]
        sl_m = [slice(None), inner, inner, inner]
        sl_p[axis + 1] = slice(2 * step, None)
        sl_m[axis + 1] = slice(0, -2 * step)
        acc = acc + (data[tuple(sl_p)] - 2 * c + data[tuple(sl_m)]) / (step * h) ** 2
    out[:, inner, inner, inner] = acc
    return BQField(g, out)


def laplacian(f: BQField) -> BQField:
    """Componentwise 7-point Laplacian; one-node rim invalidated."""
    return _second_difference(f, 1)


def laplacian_wide(f: BQField) -> BQField:
    """Laplacian on the doubled-spacing stencil (what nabla(nabla(.)) sees
    on the diagonal); two-node rim invalidated."""
    return _second_difference(f, 2)


def reflect_x3(f: Field4) -> Field4:
    """Pull back along x3 -> -x3 (an exact node permutation); involutive.
    Returns a field of the argument's type."""
    if not f.grid.x3_symmetric:
        raise ValueError("reflection not node-exact: grid is not symmetric about x3 = 0")
    return type(f)(f.grid, f.data[..., ::-1].copy())
