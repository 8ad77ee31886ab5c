"""Uniform 3-D grids, biquaternion-valued fields, and discrete operators.

Differential operators use second-order central differences.  Nodes where
a stencil would reach outside the grid are marked invalid by storing NaN;
applying an operator twice therefore widens the invalid rim automatically,
and all norms ignore invalid nodes.  Residual checks are thus always taken
over the interior on which the discrete operators are actually defined.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import QMUL_TERMS, Biquaternion, qmul

__all__ = [
    "Grid3",
    "Field4",
    "BQField",
    "Norms",
    "sample",
    "partial_deriv",
    "nabla",
    "alpha_arrays",
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
        if not len(self.shape) == len(self.origin) == len(self.spacing) == 3:
            raise ValueError("shape, origin and spacing must have three entries")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in self.shape):
            raise ValueError(f"node counts must be integers, got {self.shape}")
        if any(n < 5 for n in self.shape):
            raise ValueError(f"grid too small for interior stencils: {self.shape}")
        if not np.all(np.isfinite((*self.origin, *self.spacing))):
            raise ValueError("origin and spacing must be finite")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("spacing must be positive")

    @classmethod
    def box(cls, lo, hi, n) -> "Grid3":
        """Grid over the box [lo1,hi1] x [lo2,hi2] x [lo3,hi3].

        lo, hi and n may be scalars (applied to all axes) or triples; the
        node counts n must be integers.
        """
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (3,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (3,))
        n = np.broadcast_to(np.asarray(n), (3,))
        if not np.issubdtype(n.dtype, np.integer):
            raise ValueError(f"node counts must be integers, got {n.tolist()}")
        spacing = tuple((hi[k] - lo[k]) / (n[k] - 1) for k in range(3))
        return cls(shape=tuple(int(m) for m in n), origin=tuple(lo), spacing=spacing)

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


def _check_finite(arrays, what="alpha"):
    """Raise ValueError unless each sampled coefficient array is finite at
    every node.  Only operator outputs carry the invalid rim; norms skip a
    NaN node, so a NaN coefficient would let its residual read at
    rounding level."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{what} pole on grid: non-finite values at sampled nodes")


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
        """Each component a constant, an array broadcasting to grid.shape
        or a callable of (X1, X2, X3), as ``sample`` takes it; written once
        into the field."""
        data = np.empty((4, *grid.shape), dtype=complex)
        mesh = None
        for k, c in enumerate((c0, c1, c2, c3)):
            if callable(c):
                if mesh is None:
                    mesh = grid.mesh()
                c = c(*mesh)
            data[k] = np.asarray(c, dtype=complex)
        return cls(grid, data)

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

    def vector_part(self) -> "BQField":
        out = self.data.copy()
        out[0] = 0.0
        return BQField(self.grid, out)

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

def _abs_values(a, grid: Grid3 | None):
    """|entries| of a field or array, and the grid for the volume weight."""
    if isinstance(a, Field4):
        return np.abs(a.data), a.grid
    return np.abs(np.asarray(a)), grid


def _linf_of(m: np.ndarray) -> float:
    # fmax skips NaN: the reduction np.nanmax makes, without its temporaries
    top = np.fmax.reduce(m, axis=None)
    if np.isnan(top) or (np.isinf(top) and not np.any(np.isfinite(m))):
        raise ValueError("no valid nodes to take a norm over")
    return float(top)


def _l2_of(m: np.ndarray, grid: Grid3 | None) -> float:
    """Overwrites m.  Zeroing the NaNs and summing is np.nansum's reduction."""
    if grid is None:
        raise ValueError("l2 of a bare array needs the grid for the volume weight")
    np.square(m, out=m)
    invalid = np.isnan(m)
    np.copyto(m, 0.0, where=invalid)
    total = m.sum()
    # a finite sum over a not-all-NaN array has a finite entry; an
    # overflowed one needs the count
    if invalid.all() or (np.isinf(total) and not np.any(np.isfinite(m) & ~invalid)):
        raise ValueError("no valid nodes to take a norm over")
    return float(np.sqrt(total * grid.cell_volume))


def linf(a) -> float:
    return _linf_of(_abs_values(a, None)[0])


def l2(a, grid: Grid3 | None = None) -> float:
    return _l2_of(*_abs_values(a, grid))


class Norms(NamedTuple):
    linf: float
    l2: float


def norms(a, grid: Grid3 | None = None) -> Norms:
    m, grid = _abs_values(a, grid)
    return Norms(_linf_of(m), _l2_of(m, grid))


# --------------------------------------------------------------------------
# discrete operators
# --------------------------------------------------------------------------

# The kernels write only the interior of a NaN-rimmed output, one block of
# x1-planes at a time, so each block's operands and temporaries stay in
# cache.  At n = 129 a complex plane is 266 kB.
_BLOCK_PLANES = 8

# Interior nodes (per component) each run must get for a call to be split
# across CPUs.  At 17^3 two runs took twice as long as one, at 33^3 they
# saved a fifth; this keeps n <= 52 inline, so the (17, 33) grid pair runs
# as on one CPU, and bounds the runs, and with them the temporaries, that
# one call makes at any CPU count: at most 3 at 65^3.
_RUN_NODES = 2 ** 16


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


# The threads that run a split call's other runs: made by the first call
# that splits, and dropped in a forked child, which inherits the executor
# but none of its threads and would wait on them forever.  Two threads
# splitting their first calls at once may each make one; the one that
# loses serves its call and is then collected.
_pool = None


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """This process's ThreadPoolExecutor: one thread per CPU besides the
    caller's, each started when first needed."""
    global _pool
    pool = _pool
    if pool is None:
        # imported here: a process that never splits a call never needs it
        from concurrent.futures import ThreadPoolExecutor

        threads = max(_cpus() - 1, 1)  # the mask may have shrunk since the caller read it
        pool = _pool = ThreadPoolExecutor(threads, thread_name_prefix="biquat-blocks")
    return pool


def _run(block, region, blocks, temps) -> None:
    _, r1, r2 = region
    for i0, i1 in blocks:
        block((slice(i0, i1), r1, r2), *[t[:i1 - i0] for t in temps])


def _run_blocks(block, region: tuple, temps: int = 0) -> None:
    """Call block(sl, *temporaries) for the blocks sl of at most
    _BLOCK_PLANES x1-planes that cover region, three slices with steps
    of 1.

    The blocks are dealt into one contiguous run per CPU, each run with
    its own `temps` complex arrays of one block's shape, allocated here.
    The calling thread takes the first run and the pool the others, each
    under a copy of the caller's context, so numpy's error state holds.
    A call runs inline, as one run, unless each run gets _RUN_NODES
    interior nodes.  Blocks must write disjoint planes; then the output
    does not depend on which thread writes a block.
    """
    r0, r1, r2 = region
    blocks = [(i0, min(i0 + _BLOCK_PLANES, r0.stop))
              for i0 in range(r0.start, r0.stop, _BLOCK_PLANES)]
    planes = r0.stop - r0.start
    shape = (min(_BLOCK_PLANES, planes), r1.stop - r1.start, r2.stop - r2.start)
    runs = min(len(blocks), planes * shape[1] * shape[2] // _RUN_NODES)
    if runs < 2 or (runs := min(runs, _cpus())) < 2:
        _run(block, region, blocks, [np.empty(shape, dtype=complex) for _ in range(temps)])
        return
    parts = [blocks[r * len(blocks) // runs:(r + 1) * len(blocks) // runs]
             for r in range(runs)]
    tmp = [[np.empty(shape, dtype=complex) for _ in range(temps)] for _ in parts]
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, _run, block, region, part, t)
               for part, t in zip(parts[1:], tmp[1:])]
    try:
        _run(block, region, parts[0], tmp[0])
    finally:
        for fut in futures:
            fut.result()


def _nan_rimmed(shape, axes, width: int, dtype=complex) -> np.ndarray:
    """Uninitialized array whose first and last `width` slabs along each of
    the given axes are NaN."""
    out = np.empty(shape, dtype=dtype)
    for ax in axes:
        sl = [slice(None)] * len(shape)
        sl[ax] = slice(0, width)
        out[tuple(sl)] = np.nan
        sl[ax] = slice(shape[ax] - width, None)
        out[tuple(sl)] = np.nan
    return out


def _divide(a: np.ndarray, divisor: float) -> None:
    """a /= divisor in place.  numpy divides complex by real with Smith's
    formula, which for a real divisor and finite values is exactly a
    multiply by 1/divisor, so complex128 is scaled through its float64 view."""
    if a.dtype == np.complex128:
        v = a.view(np.float64)
        np.multiply(v, 1.0 / divisor, out=v)
    else:
        a /= divisor


def _shift(sl: tuple, axis: int, by: int) -> tuple:
    """The block slices sl moved by `by` nodes along axis."""
    out = list(sl)
    out[axis] = slice(sl[axis].start + by, sl[axis].stop + by)
    return tuple(out)


def _central_difference(a: np.ndarray, sl: tuple, axis: int, h: float,
                        out: np.ndarray) -> None:
    """out = (a[i+1] - a[i-1]) / (2h) along axis over the 3-D block sl of a."""
    np.subtract(a[_shift(sl, axis, 1)], a[_shift(sl, axis, -1)], out=out)
    _divide(out, 2.0 * h)


def partial_deriv(arr: np.ndarray, grid: Grid3, axis: int) -> np.ndarray:
    """Central-difference partial derivative along a spatial axis.

    arr may be a scalar array (grid.shape), a component stack
    (4, *grid.shape) or a line that is 1 along the other axes; the two
    boundary slabs along the axis are invalidated.
    """
    a = np.asarray(arr)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    out = _nan_rimmed(a.shape, (axis + a.ndim - 3,), 1, a.dtype)
    # leading axes (components) first, then the three spatial ones
    spatial = a.shape[-3:]
    src, dst = a.reshape(-1, *spatial), out.reshape(-1, *spatial)
    region = [slice(0, n) for n in spatial]
    region[axis] = slice(1, spatial[axis] - 1)

    def block(sl):
        for c in range(src.shape[0]):
            _central_difference(src[c], sl, axis, grid.spacing[axis], dst[c][sl])

    _run_blocks(block, tuple(region))
    return out


# nabla's components as the terms of (-div f_vec) + grad f0 + curl f_vec,
# each d_axis f_comp: (comp, axis) of the first term, then (sign, comp,
# axis) of the terms added or subtracted in turn; the scalar part is
# negated at the end
_NABLA_TERMS = (
    ((1, 0), ((+1, 2, 1), (+1, 3, 2))),
    ((3, 1), ((-1, 2, 2), (+1, 0, 0))),
    ((1, 2), ((-1, 3, 0), (+1, 0, 1))),
    ((2, 0), ((-1, 1, 1), (+1, 0, 2))),
)


def _block_of(a: np.ndarray, sl: tuple) -> np.ndarray:
    """The part of an array broadcasting against the grid that meets the
    block sl: cut along its axes longer than 1 (trailing axes aligned, as
    numpy broadcasts), so lines and constants still broadcast."""
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(sl[3 - a.ndim:], a.shape))]


def _first_order(f: BQField, alpha=None, sign: int = 1) -> BQField:
    """nabla(f), plus (sign +1) or minus (sign -1) the right product
    f * alpha when alpha is given as four arrays from ``alpha_arrays``.

    One block of x1-planes at a time, the blocks split across CPUs by
    ``_run_blocks``: nabla's terms in the order ``nabla`` states, then for
    each component the four terms of f * alpha that ``QMUL_TERMS`` lists,
    summed in qmul's order over the block's slices of f and of alpha into
    one temporary, which is added or subtracted.  Node for node this is
    what adding the whole-field ``qmul`` product would give, with no
    product field and no allocation per block.  The NaN rim is left as
    it is.
    """
    g = f.grid
    out = _nan_rimmed((4, *g.shape), (1, 2, 3), 1)
    combine = np.add if sign > 0 else np.subtract

    def block(sl, t, acc=None):
        for c, ((comp, axis), rest) in enumerate(_NABLA_TERMS):
            o = out[c][sl]
            _central_difference(f.data[comp], sl, axis, g.spacing[axis], o)
            for sgn, comp, axis in rest:
                _central_difference(f.data[comp], sl, axis, g.spacing[axis], t)
                (np.add if sgn > 0 else np.subtract)(o, t, out=o)
        np.negative(out[0][sl], out=out[0][sl])
        if alpha is None:
            return
        p = [fc[sl] for fc in f.data]
        q = [_block_of(a, sl) for a in alpha]
        for out_c, ((_, i, j), *rest) in zip(out, QMUL_TERMS):
            np.multiply(p[i], q[j], out=acc)
            for sgn, i, j in rest:
                np.multiply(p[i], q[j], out=t)
                (np.add if sgn > 0 else np.subtract)(acc, t, out=acc)
            o = out_c[sl]
            combine(o, acc, out=o)

    _run_blocks(block, tuple(slice(1, n - 1) for n in g.shape), 1 if alpha is None else 2)
    return BQField(g, out)


def nabla(f: BQField) -> BQField:
    """First-order operator sum_k e_k d_k f.

    Evaluated as (-div f_vec) + grad f0 + curl f_vec, term by term in that
    order: the scalar part sums d1 f1 + d2 f2 + d3 f3 before negating, and
    each vector component adds its curl pair first, then its gradient term.
    """
    return _first_order(f)


def alpha_arrays(alpha, grid: Grid3):
    """alpha as four arrays that broadcast against grid.shape, for qmul.

    A BQField (alpha known by its samples) gives its data, an AlphaSpec
    (anything with components(grid)) a zero scalar part and its three
    components (the 1-D lines of a separable alpha), and four such arrays
    are returned as they are.
    """
    if isinstance(alpha, BQField):
        if alpha.grid != grid:
            raise ValueError("fields live on different grids")
        return alpha.data
    if isinstance(alpha, (tuple, np.ndarray)):
        return alpha
    return (np.zeros((1, 1, 1), dtype=complex), *alpha.components(grid))


def nabla_alpha(f: BQField, alpha) -> BQField:
    """The perturbed operator f -> nabla(f) + f * alpha (right multiplication).

    alpha is anything ``alpha_arrays`` takes.
    """
    return _first_order(f, alpha_arrays(alpha, f.grid))


def ie1_field(grid: Grid3, c) -> BQField:
    """The multiplier field c * i e1 for a complex scalar (array or constant) c."""
    data = np.zeros((4, *grid.shape), dtype=complex)
    data[1] = 1j * c
    return BQField(grid, data)


def _second_difference(f: BQField, step: int) -> BQField:
    """Componentwise sum over the axes of (f[i+step] - 2 f[i] + f[i-step])
    / (step*h)**2; a rim of step nodes invalidated."""
    g = f.grid
    out = _nan_rimmed((4, *g.shape), (1, 2, 3), step)

    def block(sl, t2, t):
        for a, out_c in zip(f.data, out):
            o = out_c[sl]
            np.multiply(2, a[sl], out=t2)
            for axis, h in enumerate(g.spacing):
                d = o if axis == 0 else t
                np.subtract(a[_shift(sl, axis, step)], t2, out=d)
                np.add(d, a[_shift(sl, axis, -step)], out=d)
                _divide(d, (step * h) ** 2)
                if axis:
                    np.add(o, d, out=o)

    _run_blocks(block, tuple(slice(step, n - step) for n in g.shape), 2)
    return BQField(g, out)


def laplacian(f: BQField) -> BQField:
    """Componentwise 7-point Laplacian; one-node rim invalidated."""
    return _second_difference(f, 1)


def laplacian_wide(f: BQField) -> BQField:
    """Laplacian on the doubled-spacing stencil (what nabla(nabla(.)) sees
    on the diagonal); two-node rim invalidated."""
    return _second_difference(f, 2)


def _reversed_x3(a: np.ndarray, grid: Grid3) -> np.ndarray:
    """a (x3 last) at (x1, x2, -x3): a view with its x3 nodes reversed."""
    if not grid.x3_symmetric:
        raise ValueError("reflection not node-exact: grid is not symmetric about x3 = 0")
    return a[..., ::-1]


def reflect_x3(f: Field4) -> Field4:
    """Pull back along x3 -> -x3 (an exact node permutation); involutive.
    Returns a field of the argument's type."""
    return type(f)(f.grid, _reversed_x3(f.data, f.grid).copy())
