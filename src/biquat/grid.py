"""Uniform 3-D grids, biquaternion-valued fields, and discrete operators.

Differential operators use second-order central differences.  Nodes where
a stencil would reach outside the grid are marked invalid by storing NaN;
applying an operator twice therefore widens the invalid rim automatically,
and all norms ignore invalid nodes.  Residual checks are thus always taken
over the interior on which the discrete operators are actually defined.
"""

from __future__ import annotations

import contextvars
import operator
import os
from dataclasses import dataclass
from functools import reduce
from numbers import Number
from typing import NamedTuple

import numpy as np

from .algebra import QMUL_TERMS, Biquaternion

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
    "RightSplit",
    "laplacian",
    "laplacian_wide",
    "reflect_x3",
    "linf",
    "l2",
    "norms",
]


def _check_index(k, n=3, what="axis") -> None:
    """Raise ValueError unless k is one of the integers 0 .. n-1 (not a
    bool): an axis, or with n=4 a component."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < n:
        *head, last = map(str, range(n))
        raise ValueError(f"{what} must be the integer {', '.join(head)} or {last}, got {k!r}")


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
        _check_index(k)
        return self.origin[k] + self.spacing[k] * np.arange(self.shape[k])

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.axis(0), self.axis(1), self.axis(2)

    def mesh(self):
        """The open mesh (x1, x2, x3), as numpy's ogrid gives it: x_k holds
        axis k's nodes along axis k and is 1 along the others, so an
        expression in them is evaluated only along the axes it reads."""
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    def sample_axis(self, k: int, fn) -> np.ndarray:
        """Evaluate fn(x_k) (or a constant) on x_k of the open mesh as a
        complex line of its shape, so it broadcasts against full grid
        arrays without being copied to the grid; k is 0, 1 or 2."""
        _check_index(k)
        x = self.mesh()[k]
        # poles are reported by the callers' finiteness checks, not by
        # numpy noise
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(fn(x) if callable(fn) else fn, dtype=complex)
        return np.broadcast_to(vals, x.shape)

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


def _on_mesh(grid: Grid3, fn) -> np.ndarray:
    """fn as ``sample`` takes it, as a complex 3-D array that broadcasts
    against grid.shape without being copied to it: a constant stays
    (1, 1, 1) and a callable of x1 alone an x1 line.  The one sampler of
    alpha data; ``sample`` expands it for the stencils that need it."""
    out = np.asarray(fn(*grid.mesh()) if callable(fn) else fn, dtype=complex)
    if out.ndim > 3 or any(n not in (1, m) for n, m in zip(out.shape[::-1], grid.shape[::-1])):
        raise ValueError(f"values of shape {out.shape} do not broadcast to the grid {grid.shape}")
    return out.reshape((1,) * (3 - out.ndim) + out.shape)


def sample(grid: Grid3, fn) -> np.ndarray:
    """fn on the grid as a complex array of grid.shape.  A callable gets
    the open mesh (x1, x2, x3) of ``Grid3.mesh`` and may return anything
    that broadcasts to grid.shape; a constant or array broadcasts."""
    return np.broadcast_to(_on_mesh(grid, fn), grid.shape).astype(complex)


def _check_finite(arrays, what="alpha"):
    """arrays, once each sampled coefficient array in it is finite at every
    node; ValueError otherwise.  Only operator outputs carry the invalid
    rim; norms skip a NaN node, so a NaN coefficient would let its
    residual read at rounding level."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{what} pole on grid: non-finite values at sampled nodes")
    return arrays


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
        or a callable of the open mesh (x1, x2, x3), as ``sample`` takes
        it; written once into the field."""
        data = np.empty((4, *grid.shape), dtype=complex)
        for k, c in enumerate((c0, c1, c2, c3)):
            data[k] = _on_mesh(grid, c)
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
        if isinstance(other, Number):
            return type(self)(self.grid, self.data * other)
        if isinstance(other, np.ndarray):
            return type(self)(self.grid, self.data * other[np.newaxis])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
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
            return BQField(self.grid, _product(self.data, other.data, self.grid))
        if isinstance(other, Biquaternion):
            return BQField(self.grid, _product(self.data, other.components, self.grid))
        return super().__mul__(other)

    def __rmul__(self, other):
        if isinstance(other, Biquaternion):
            return BQField(self.grid, _product(other.components, self.data, self.grid))
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


def _top(m: np.ndarray) -> tuple:
    """What the L-inf norm reads of the magnitudes m: their largest entry
    by fmax, which skips NaN as np.nanmax does without its temporaries,
    and whether some entry is finite.  The tops of blocks of an array
    combine into its norm (``_linf_of_tops``)."""
    top = np.fmax.reduce(m, axis=None)
    return top, bool(np.isfinite(top) or (np.isinf(top) and np.any(np.isfinite(m))))


def _linf_of_tops(tops) -> float:
    """The L-inf norm of an array from the ``_top`` of each of its blocks:
    fmax is exact, so this is the top of the whole array in any block
    order.  Raises ValueError when no entry is finite."""
    top = np.fmax.reduce([t for t, _ in tops])
    if not any(finite for _, finite in tops):
        raise ValueError("no valid nodes to take a norm over")
    return float(top)


def _linf_of(m: np.ndarray) -> float:
    return _linf_of_tops([_top(m)])


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


def _run(block, region, blocks, temps) -> None:
    _, r1, r2 = region
    for i0, i1 in blocks:
        block((slice(i0, i1), r1, r2), *[t[:i1 - i0] for t in temps])


def _run_blocks(block, region: tuple, temps: tuple = ()) -> None:
    """Call block(sl, *temporaries) for the blocks sl of at most
    _BLOCK_PLANES x1-planes that cover region, three slices with steps
    of 1.

    The blocks are dealt into one contiguous run per CPU, each run with
    its own temporaries of one block's shape, one per dtype in temps,
    allocated here.
    The calling thread takes the first run.  Each other run gets a thread
    of its own, started for this call and joined before it returns, and
    runs under a copy of the caller's context, so numpy's error state
    holds.  A call runs inline, as one run, unless each run gets
    _RUN_NODES interior nodes.  Blocks must write disjoint planes; then
    the output does not depend on which thread writes a block.
    """
    r0, r1, r2 = region
    blocks = [(i0, min(i0 + _BLOCK_PLANES, r0.stop))
              for i0 in range(r0.start, r0.stop, _BLOCK_PLANES)]
    planes = r0.stop - r0.start
    shape = (min(_BLOCK_PLANES, planes), r1.stop - r1.start, r2.stop - r2.start)
    runs = min(len(blocks), planes * shape[1] * shape[2] // _RUN_NODES)
    if runs < 2 or (runs := min(runs, _cpus())) < 2:
        _run(block, region, blocks, [np.empty(shape, dtype=t) for t in temps])
        return
    parts = [blocks[r * len(blocks) // runs:(r + 1) * len(blocks) // runs]
             for r in range(runs)]
    tmp = [[np.empty(shape, dtype=t) for t in temps] for _ in parts]
    # imported here: a process that never splits a call never needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(runs - 1, thread_name_prefix="biquat-blocks") as pool:
        futures = [pool.submit(contextvars.copy_context().run, _run, block, region, part, t)
                   for part, t in zip(parts[1:], tmp[1:])]
        try:
            _run(block, region, parts[0], tmp[0])
        finally:
            for fut in futures:
                fut.result()


def _blocked_output(shape, axes, width: int, block, temps: tuple = (), dtype=complex):
    """An array of shape (..., n1, n2, n3) filled by block(out, sl, *temps)
    over the blocks ``_run_blocks`` deals out, and returned.

    The first and last `width` slabs along each spatial axis in axes
    (0, 1, 2) are NaN, written here at allocation; the blocks cover the
    nodes between them, the full extent of the other axes.
    """
    out = np.empty(shape, dtype=dtype)
    region = [slice(0, n) for n in shape[-3:]]
    for ax in axes:
        n = shape[ax - 3]
        for edge in (slice(0, width), slice(n - width, n)):
            idx = [slice(None)] * 3
            idx[ax] = edge
            out[(Ellipsis, *idx)] = np.nan
        region[ax] = slice(width, n - width)
    _run_blocks(lambda sl, *t: block(out, sl, *t), tuple(region), temps)
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


def _negate(a: np.ndarray) -> np.ndarray:
    """a = -a in place, returned.  Negation flips the sign bit of each
    part, so complex128 with contiguous rows is negated through its
    float64 view, which numpy does about four times faster."""
    if a.dtype == np.complex128 and a.ndim and a.strides[-1] == a.itemsize:
        v = a.view(np.float64)
        np.negative(v, out=v)
    else:
        np.negative(a, out=a)
    return a


def _shift(sl: tuple, axis: int, by: int) -> tuple:
    """The block slices sl moved by `by` nodes along axis."""
    out = list(sl)
    out[axis] = slice(sl[axis].start + by, sl[axis].stop + by)
    return tuple(out)


def _central_difference(a: np.ndarray, sl: tuple, axis: int, h: float,
                        out: np.ndarray, sign: int = 1) -> None:
    """out = sign (a[i+1] - a[i-1]) / (2h) along axis over the 3-D block
    sl of a; sign -1 swaps the operands, which negates exactly."""
    np.subtract(a[_shift(sl, axis, sign)], a[_shift(sl, axis, -sign)], out=out)
    _divide(out, 2.0 * h)


def partial_deriv(arr: np.ndarray, grid: Grid3, axis: int) -> np.ndarray:
    """Central-difference partial derivative along a spatial axis.

    arr may be a scalar array (grid.shape), a component stack
    (4, *grid.shape) or a line that is 1 along the other axes; the two
    boundary slabs along the axis are invalidated.  axis is 0, 1 or 2.
    """
    _check_index(axis)
    a = np.asarray(arr)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    # leading axes (components) first, then the three spatial ones
    src = a.reshape(-1, *a.shape[-3:])

    def block(out, sl):
        for c in range(src.shape[0]):
            _central_difference(src[c], sl, axis, grid.spacing[axis], out[c][sl])

    return _blocked_output(src.shape, (axis,), 1, block, dtype=a.dtype).reshape(a.shape)


# D f is the left product of the symbol (0, d1, d2, d3) with f, so
# component c of D f has a term sign * d_(i-1) f_j for each term
# (sign, i, j) of QMUL_TERMS[c] with i > 0; listed here as (sign, axis,
# comp), curl terms (j > 0) first, then the gradient term
_D_TERMS = tuple(
    tuple((sgn, i - 1, j) for sgn, i, j in sorted(terms, key=lambda t: t[2] == 0) if i)
    for terms in QMUL_TERMS)


def _block_of(a: np.ndarray, sl: tuple) -> np.ndarray:
    """The part of an array broadcasting against the grid that meets the
    block sl: cut along its axes longer than 1 (trailing axes aligned, as
    numpy broadcasts), so lines and constants still broadcast."""
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(sl[3 - a.ndim:], a.shape))]


def _sum_terms(terms, p, q, acc, t) -> None:
    """acc = the component of p * q (four arrays each) whose row of
    ``QMUL_TERMS`` is terms, summed in order; t is a temporary like acc."""
    (_, i, j), *rest = terms
    np.multiply(p[i], q[j], out=acc)
    for sgn, i, j in rest:
        np.multiply(p[i], q[j], out=t)
        (np.add if sgn > 0 else np.subtract)(acc, t, out=acc)


def _product(p, q, grid: Grid3) -> np.ndarray:
    """p * q as a (4, *grid.shape) array, p and q each four arrays or
    scalars that broadcast against the grid, summed by ``_sum_terms`` per
    block into the output with one temporary per run: ``algebra.qmul``."""
    def block(out, sl, t):
        pb = [_block_of(a, sl) for a in p]
        qb = [_block_of(a, sl) for a in q]
        for out_c, terms in zip(out, QMUL_TERMS):
            _sum_terms(terms, pb, qb, out_c[sl], t)

    return _blocked_output((4, *grid.shape), (), 0, block, (complex,))


def _first_order(f: BQField, alpha=None, sign: int = 1) -> BQField:
    """nabla(f), plus (sign +1) or minus (sign -1) the right product
    f * alpha when alpha is given as four arrays from ``alpha_arrays``.

    One block of x1-planes at a time, the blocks split across CPUs by
    ``_run_blocks``: D's terms from ``QMUL_TERMS`` (``_D_TERMS``), then
    for each component of f * alpha its row of ``QMUL_TERMS``, summed by
    ``_sum_terms`` over the block's slices of f and of alpha into one
    temporary, which is added or subtracted.  Node for node this is what
    adding the whole-field product ``_product`` would give, with no
    product field and no allocation per block.  The NaN rim is left as
    it is.
    """
    g = f.grid
    combine = np.add if sign > 0 else np.subtract

    def block(out, sl, t, acc=None):
        for out_c, terms in zip(out, _D_TERMS):
            o = out_c[sl]
            for n, (sgn, axis, comp) in enumerate(terms):
                d = o if n == 0 else t
                _central_difference(f.data[comp], sl, axis, g.spacing[axis], d, sgn)
                if n:
                    np.add(o, t, out=o)
        if alpha is None:
            return
        p = [fc[sl] for fc in f.data]
        q = [_block_of(a, sl) for a in alpha]
        for out_c, terms in zip(out, QMUL_TERMS):
            _sum_terms(terms, p, q, acc, t)
            o = out_c[sl]
            combine(o, acc, out=o)

    return BQField(g, _blocked_output((4, *g.shape), (0, 1, 2), 1, block,
                                      (complex,) if alpha is None else (complex, complex)))


def nabla(f: BQField) -> BQField:
    """First-order operator sum_k e_k d_k f.

    Its terms are those ``QMUL_TERMS`` gives the left product of the
    symbol (0, d1, d2, d3) with f, summed as (-div f_vec) + grad f0 +
    curl f_vec: the scalar part sums -d1 f1 - d2 f2 - d3 f3, and each
    vector component adds its curl pair first, then its gradient term.
    """
    return _first_order(f)


def alpha_arrays(alpha, grid: Grid3):
    """alpha as four arrays that broadcast against grid.shape.

    A BQField (alpha known by its samples) gives its data, an AlphaSpec
    (anything with components(grid)) a zero scalar part and its three
    components (the 1-D lines of a separable alpha), and four such arrays
    are returned as they are; anything else, or a field on another grid,
    raises ValueError.
    """
    if isinstance(alpha, BQField):
        if alpha.grid != grid:
            raise ValueError("fields live on different grids")
        return alpha.data
    if isinstance(alpha, (tuple, np.ndarray)):
        if len(alpha) != 4 or not all(isinstance(a, np.ndarray) and a.ndim <= 3 and all(
                n in (1, m) for n, m in zip(a.shape[::-1], grid.shape[::-1])) for a in alpha):
            raise ValueError(f"alpha must be four arrays broadcasting to the grid {grid.shape}")
        return alpha
    if not callable(getattr(alpha, "components", None)):
        raise ValueError("alpha must be a BQField, an AlphaSpec or a tuple of four arrays, "
                         f"got {type(alpha).__name__}")
    return (np.zeros((1, 1, 1), dtype=complex), *alpha.components(grid))


def nabla_alpha(f: BQField, alpha) -> BQField:
    """The perturbed operator f -> nabla(f) + f * alpha (right multiplication).

    alpha is anything ``alpha_arrays`` takes.
    """
    return _first_order(f, alpha_arrays(alpha, f.grid))


@dataclass(frozen=True)
class RightSplit:
    """A field f split by constant right projectors X that sum to 1, each
    commuting with D and turning M^alpha into a reduced M^{c_X}, so that
    for every f

        (D + M^alpha) f  =  sum_X (D + M^{c_X}) (f X).

    factors maps each key to the constant Biquaternion multipliers whose
    product in order is X, and alphas to its c_X; alpha and each c_X are
    four arrays, as ``alpha_arrays`` takes them, so constant zero
    components stay (1, 1, 1).  No part is stored: ``part(key)`` forms f X.
    Built by ``physics.forcefree_split`` and ``dirac.pseudoscalar_split``.
    """

    field: BQField
    alpha: tuple
    factors: dict
    alphas: dict

    def part(self, key) -> BQField:
        """f X for the key, f times X's factors in order."""
        return reduce(operator.mul, self.factors[key], self.field)

    def recombined(self) -> BQField:
        """The parts summed in key order: f up to rounding."""
        return reduce(operator.add, map(self.part, self.factors))

    def part_residual(self, key) -> BQField:
        return nabla_alpha(self.part(key), self.alphas[key])

    def identity_residual(self):
        """(D + M^alpha) f minus the summed part residuals, at rounding
        level for any f, and the L-inf norm of (D + M^alpha) f.

        That norm is a fair scale for the defect of a generic f only.  For
        an f that nearly solves (D + M^alpha) f = 0 it is O(h**2) |f|,
        while the defect's rounding stays at the size of the terms, so the
        ratio reads far above rounding: 1.0e-12 on demo 03's manufactured
        pseudoscalar solution at 17^3, against 3.2e-16 on a random field.
        Scale such an f by |f| / h instead.
        """
        lhs = nabla_alpha(self.field, self.alpha)
        rhs = reduce(operator.add, map(self.part_residual, self.factors))
        return lhs - rhs, lhs.linf()


def _second_difference(data: np.ndarray, grid: Grid3, step: int) -> np.ndarray:
    """Per component of the stack data (c, *grid.shape), the sum over the
    axes of (a[i+step] - 2 a[i] + a[i-step]) / (step*h)**2; a rim of step
    nodes invalidated."""
    def block(out, sl, t2, t):
        for a, out_c in zip(data, out):
            o = out_c[sl]
            np.multiply(2, a[sl], out=t2)
            for axis, h in enumerate(grid.spacing):
                d = o if axis == 0 else t
                np.subtract(a[_shift(sl, axis, step)], t2, out=d)
                np.add(d, a[_shift(sl, axis, -step)], out=d)
                _divide(d, (step * h) ** 2)
                if axis:
                    np.add(o, d, out=o)

    return _blocked_output(data.shape, (0, 1, 2), step, block, (complex, complex))


def _schrodinger(data: np.ndarray, v, grid: Grid3, step: int = 1) -> np.ndarray:
    """The Schrodinger operator -lap_h + v_c on each component c of the
    stack data (c, *grid.shape): v holds one potential per component, each
    an array broadcasting against the grid.  lap_h is
    ``_second_difference`` at step (1 compact, 2 wide), negated in place,
    then v_c data_c is added; its rim of step nodes stays NaN."""
    out = _negate(_second_difference(data, grid, step))
    for out_c, v_c, data_c in zip(out, v, data, strict=True):
        out_c += v_c * data_c
    return out


def laplacian(f: BQField) -> BQField:
    """Componentwise 7-point Laplacian; one-node rim invalidated."""
    return BQField(f.grid, _second_difference(f.data, f.grid, 1))


def laplacian_wide(f: BQField) -> BQField:
    """Laplacian on the doubled-spacing stencil (what nabla(nabla(.)) sees
    on the diagonal); two-node rim invalidated."""
    return BQField(f.grid, _second_difference(f.data, f.grid, 2))


def _reversed_x3(a: np.ndarray, grid: Grid3) -> np.ndarray:
    """a (x3 last) at (x1, x2, -x3): a view with its x3 nodes reversed."""
    if not grid.x3_symmetric:
        raise ValueError("reflection not node-exact: grid is not symmetric about x3 = 0")
    return a[..., ::-1]


def reflect_x3(f: Field4) -> Field4:
    """Pull back along x3 -> -x3 (an exact node permutation); involutive.
    Returns a field of the argument's type."""
    return type(f)(f.grid, _reversed_x3(f.data, f.grid).copy())
