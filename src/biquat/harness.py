"""Verification suites and report emission.

A run chooses only the suite, the grid pair and the seed (SuiteConfig);
the gate and the fixtures are module constants.  Each suite runs a fixed
list of checks.  A check is either *exact* (an algebraic identity whose
relative residual must sit at rounding level, or at exactly 0 when it is
proved on the basis) or an *order* check (a discretization residual
measured on a coarse/fine grid pair whose observed convergence order must
fall in a window).  Reports are deterministic under a fixed seed: rows are
emitted in a stable order and the CSV contains no timing data.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra, dirac, factorization as fz, grid as _grid, physics
from .algebra import Biquaternion
from .alpha import AxialAlpha, GradientAlpha, SeparableAlpha, reciprocal_alpha
from .grid import (BQField, Field4, Grid3, _schrodinger, l2, laplacian, laplacian_wide, linf,
                   nabla, nabla_alpha, norms, partial_deriv, reflect_x3)

__all__ = [
    "SuiteConfig",
    "CheckRow",
    "VerificationReport",
    "SUITE_NAMES",
    "CSV_COLUMNS",
    "EXACT_ORDER",
    "TOL",
    "ORDER_WINDOW",
    "convergence_order",
    "run_suite",
]

EXACT_ORDER = "exact"
CSV_COLUMNS = ("suite", "check", "h", "linf", "l2",
               "expected_order", "observed_order", "pass")


_log = logging.getLogger(__name__)


# the verification gate: an exact check passes when its relative residual
# is at most TOL, an order check when its observed order lies in ORDER_WINDOW
TOL = 1e-12
ORDER_WINDOW = (1.7, 2.3)

# suite fixtures: the (1,2)^3 box, the dirac suite's omega and m, the
# Beltrami and circular-wave nu, and the reciprocal alpha's pole B, which
# lies outside the box
LO = (1.0, 1.0, 1.0)
HI = (2.0, 2.0, 2.0)
OMEGA = 0.7
M = 1.3
NU = 1.5
B = (0.0, 0.0, 0.0)
# beta = -(i omega e1 + m e2) of the dirac suite's pseudoscalar split
DIRAC_BETA = Biquaternion.vector(-1j * OMEGA, -M, 0.0)


# axial alphas with exact gradients: a1 = x2 (D a1 = e2, reduction case
# iii); a1 = x2 + i x3, whose gradient is a null vector (case ii); and
# a1 = tan(x2 + 0.2) with a2 = 1, for which i D a1 - alpha**2 is a zero
# divisor (case i)
ALPHA_X2 = AxialAlpha(lambda a, b, c: b + 0j, 0.0, 0.0, grad_a1=(0.0, 1.0, 0.0))
ALPHA_NULL = AxialAlpha(lambda a, b, c: b + 1j * c, 0.0, 0.0, grad_a1=(0.0, 1.0, 1j))
ALPHA_TAN = AxialAlpha(lambda a, b, c: np.tan(b + 0.2) + 0j, 1.0, 0.0,
                       grad_a1=(0.0, lambda a, b, c: 1.0 / np.cos(b + 0.2) ** 2, 0.0))


def null_direction_solution(grid: Grid3) -> BQField:
    """v = (D a1) f = f (e2 + i e3), which solves the diagonal '+' equation
    of ALPHA_NULL: f = exp(s**3/3 + t) with s = x2 + i x3, t = (x2 - i x3)/4."""
    _, x2, x3 = grid.mesh()
    s = x2 + 1j * x3
    t = (x2 - 1j * x3) / 4.0
    f = np.exp(s ** 3 / 3.0 + t)
    return BQField.from_components(grid, 0.0, 0.0, f, 1j * f)


@dataclass(frozen=True)
class SuiteConfig:
    """What a run may choose: the suite, the grid pair and the seed.

    grids holds the node counts of the convergence pair (coarse, fine);
    the domain box is fixed while h halves, so the counts must nest:
    fine = 2*coarse - 1, as in (17, 33).  The gate (TOL, ORDER_WINDOW) and
    the fixtures (LO, HI, OMEGA, M, NU, B, DIRAC_BETA and the axial alphas)
    are module constants.
    Construction rejects an unknown suite, a grid pair that is not two
    nested counts >= 5, and a seed that is not a non-negative integer.
    """

    suite: str = "all"
    grids: tuple = (17, 33)
    seed: int = 1234

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        grids = tuple(self.grids)
        if len(grids) != 2 or not all(isinstance(n, (int, np.integer)) for n in grids):
            raise ValueError(f"grids must be two integer node counts (coarse, fine), got {grids}")
        n1, n2 = grids
        if n1 < 5 or n2 != 2 * n1 - 1:
            raise ValueError(f"grids must nest as (n, 2n - 1) with n >= 5, got {grids}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    def grid_pair(self, lo=LO, hi=HI):
        return tuple(Grid3.box(lo, hi, n) for n in self.grids)

    def dirac_grid_pair(self):
        # the transform needs node-exact x3 reflection: center axis 3 on 0
        return self.grid_pair(lo=(1.0, 1.0, -0.5), hi=(2.0, 2.0, 0.5))


@dataclass(frozen=True)
class CheckRow:
    suite: str
    check: str
    h: float | None
    linf: float
    l2: float
    expected_order: float | None
    observed_order: float | str | None
    passed: bool

    def csv_cells(self):
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, str):
                return x
            return repr(float(x))
        return (self.suite, self.check, fmt(self.h), fmt(self.linf), fmt(self.l2),
                fmt(self.expected_order), fmt(self.observed_order),
                "pass" if self.passed else "FAIL")


@dataclass
class VerificationReport:
    rows: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def n_fail(self) -> int:
        return len(self.rows) - self.n_pass

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0

    def write_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(r.csv_cells()))
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_dict(self) -> dict:
        return {
            "rows": [dict(zip(CSV_COLUMNS, r.csv_cells())) for r in self.rows],
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "wall_time_s": self.wall_time,
        }

    def print_lines(self) -> None:
        for r in self.rows:
            tag = "PASS" if r.passed else "FAIL"
            extra = ""
            if r.observed_order is not None:
                extra = f"  order={r.observed_order if isinstance(r.observed_order, str) else f'{r.observed_order:.2f}'}"
            print(f"{tag}  {r.suite}/{r.check}  linf={r.linf:.3e}  l2={r.l2:.3e}{extra}")
        print(f"{self.n_pass} passed, {self.n_fail} failed "
              f"({self.wall_time:.1f} s)")


def convergence_order(coarse, fine):
    """Observed order log(n1/n2)/log(h1/h2) from two (h, norm) pairs.

    Returns the string sentinel ``EXACT_ORDER`` when both norms already sit
    at or below TOL (no order measurable, counts as converged).  Raises on
    nonpositive norms otherwise.
    """
    (h1, n1), (h2, n2) = coarse, fine
    if not (h1 > h2 > 0):
        raise ValueError("need h1 > h2 > 0")
    if n1 <= TOL and n2 <= TOL:
        return EXACT_ORDER
    if n1 <= 0 or n2 <= 0:
        raise ValueError("norms must be positive for an order estimate")
    return math.log(n1 / n2) / math.log(h1 / h2)


# --------------------------------------------------------------------------
# deterministic smooth random fields
# --------------------------------------------------------------------------

# wavenumbers of the random Fourier modes lie in [-_KMAX, _KMAX]^3
_KMAX = 2


def _modes(rng, n_modes=3):
    """Frozen Fourier modes; evaluate on any grid for nested convergence."""
    out = []
    for _ in range(n_modes):
        kv = rng.integers(-_KMAX, _KMAX + 1, size=3)
        c = complex(rng.normal(), rng.normal())
        out.append((kv.astype(float), c))
    return out

def _eval_modes(grid, modes, out=None):
    """The sum of the modes c exp(i k.x) on the grid, added into out (a
    fresh zero array when None).  Each mode is the product of three 1-D
    exponentials on the open mesh, so no n^3 complex exp is formed."""
    if out is None:
        out = np.zeros(grid.shape, dtype=complex)
    x1, x2, x3 = grid.mesh()
    for kv, c in modes:
        out += (c * np.exp(1j * kv[0] * x1) * np.exp(1j * kv[1] * x2)
                * np.exp(1j * kv[2] * x3))
    return out

def _bq_modes(modes, rng):
    """Frozen modes of a four-component field: modes for component 0,
    three fresh sets from rng for components 1-3."""
    return [modes] + [_modes(rng) for _ in range(3)]

def _eval_bq(grid, bq_modes):
    data = np.zeros((4, *grid.shape), dtype=complex)
    for comp, modes in zip(data, bq_modes):
        _eval_modes(grid, modes, out=comp)
    return BQField(grid, data)

def _smooth_bq(grid, rng):
    return _eval_bq(grid, [_modes(rng) for _ in range(4)])

def _smooth_spinor(grid, rng):
    return dirac.SpinorField(grid, _smooth_bq(grid, rng).data)

def _rng(cfg: SuiteConfig, salt: int):
    return np.random.default_rng([cfg.seed, salt])


# --------------------------------------------------------------------------
# row builders
# --------------------------------------------------------------------------

# the builders leave the suite empty: run_suite stamps the SUITES key on
# every row that a suite returns
def _exact_row(check, value_linf, h=None, scale=1.0, value_l2=None) -> CheckRow:
    return CheckRow(suite="", check=check, h=h,
                    linf=value_linf,
                    l2=value_linf if value_l2 is None else value_l2,
                    expected_order=None, observed_order=None,
                    passed=bool(value_linf <= TOL * scale))


def _exact_field_row(check, res: BQField, scale=1.0) -> CheckRow:
    n = norms(res)
    return _exact_row(check, n.linf, h=res.grid.hmax, scale=scale, value_l2=n.l2)


def _windowed(field: BQField, coarse: Grid3, frac: float) -> BQField:
    """field with NaN outside the observation window: along each axis the
    nodes i with j r <= i <= n - 1 - j r are kept, where r = (n - 1) /
    (n_c - 1) is the refinement over the coarse grid and j = max(1,
    round(frac (n_c - 1))) coarse cells are cut from each face.  The window
    is node-aligned on the coarse grid and on every nested refinement, so
    its edge nodes sit at identical physical points across the pair:
    otherwise the argmax node of a residual with strong (but bounded)
    derivative growth toward the boundary creeps as h shrinks and
    contaminates the measured order."""
    data = field.data.copy()
    for k, (n, n_c) in enumerate(zip(field.grid.shape, coarse.shape)):
        edge = max(1, round(frac * (n_c - 1))) * (n - 1) / (n_c - 1)
        i = np.arange(n)
        data[(slice(None),) * (k + 1) + ((i < edge) | (i > n - 1 - edge),)] = np.nan
    return BQField(field.grid, data)


def _order_check(check, grids, residual_at, window=None) -> CheckRow:
    """Grid-halving convergence study of one residual, or of several.

    residual_at(g) builds the residual BQField on grid g, or returns
    (field, scale) to measure it relative to scale, or yields such pairs,
    as many on each grid.  Each residual's norms are taken before the next
    residual is built.  window, when set to a fraction, restricts the norms
    to the node-aligned observation box of the coarse grid.  Each residual
    has its own observed order, which passes when it lies in ORDER_WINDOW
    or when both norms sit at the tolerance (EXACT_ORDER).  The row reports
    the fine grid's norms and the order of the residual with the largest
    fine-grid L-inf norm, and passes only when every order passes.
    """
    points = []
    for g in grids:
        built = residual_at(g)
        if isinstance(built, Field4):
            built = (built, 1.0)
        rel = []
        for res, scale in (built,) if isinstance(built, tuple) else built:
            if window is not None:
                res = _windowed(res, grids[0], window)
            scale = max(scale, 1e-300)
            n = norms(res)
            del res
            rel.append((n.linf / scale, n.l2 / scale))
        del built
        points.append((g.hmax, rel))
    (h1, coarse), (h2, fine) = points
    orders = [convergence_order((h1, c), (h2, f))
              for (c, _), (f, _) in zip(coarse, fine, strict=True)]
    lo, hi = ORDER_WINDOW
    worst = max(range(len(fine)), key=lambda i: fine[i][0])
    return CheckRow(suite="", check=check, h=h2, linf=fine[worst][0], l2=fine[worst][1],
                    expected_order=2.0, observed_order=orders[worst],
                    passed=all(o == EXACT_ORDER or lo <= o <= hi for o in orders))


# --------------------------------------------------------------------------
# suite: algebra
# --------------------------------------------------------------------------

def _basis_defect(identity, arity):
    """max |lhs - rhs| over the (lhs, rhs) pairs that identity(*qs) returns,
    for every arity-tuple qs of the basis e0..e3.

    Both sides of each identity checked this way are linear in every
    argument, so an identity that holds on the basis holds on all of H(C);
    and products of 0, ±1, ±i and ±0.5 are exact in float64, so a true
    identity reads exactly 0: a proof, not a sample.
    """
    return np.max([(lhs - rhs).abs_max()
                   for qs in itertools.product(algebra.BASIS, repeat=arity)
                   for lhs, rhs in identity(*qs)])


def _table_product(p, q):
    """e_i e_j from the table: e0 is the unit, e_k**2 = -1, and e1 e2 = e3
    cyclically, with the sign flipped when the two factors swap."""
    i, j = algebra.BASIS.index(p), algebra.BASIS.index(q)
    if 0 in (i, j):
        return algebra.BASIS[i + j]
    if i == j:
        return -algebra.E0
    ek = algebra.BASIS[6 - i - j]
    return ek if (j - i) % 3 == 1 else -ek


def check_algebra(cfg: SuiteConfig):
    rows = []
    one, basis = algebra.E0, algebra.BASIS

    def basis_row(check, arity, identity):
        # a multilinear identity, proved on the basis: passes only at 0
        rows.append(_exact_row(check, _basis_defect(identity, arity), scale=0.0))

    basis_row("mul_table", 2, lambda p, q: [(p * q, _table_product(p, q))])
    basis_row("identity_element", 1, lambda q: [(one * q, q), (q * one, q)])

    # zero-divisor criterion: q**2 = 2 q0 q on constructed zero divisors
    # zd; the classifier, the construction and that characterization
    # agreeing on zd, on zd moved off the set to half and to twice the
    # threshold, and on a random q
    tol = 1e-9

    def zd_distance(q):
        # |q**2 - 2 q0 q| = |q0**2 - q_vec**2| relative to max(1, |q|**2);
        # near the set |q|**2 is the classifier's |q0**2| + |q_vec**2|
        size = max(1.0, float(np.sum(np.abs(q.components) ** 2)))
        return (q * q - (2.0 * q.q0) * q).abs_max() / size

    rng = _rng(cfg, 1)
    worst = 0.0
    misclassified = 0
    for _ in range(200):
        scale = complex(rng.normal(), rng.normal())
        k = int(rng.integers(1, 4))
        sign = 1 if rng.random() < 0.5 else -1
        zd = scale * (one + 1j * float(sign) * basis[k])
        lhs = zd * zd
        rhs = (2.0 * zd.q0) * zd
        worst = np.maximum(worst, (lhs - rhs).abs_max() / max(1.0, lhs.abs_max()))
        q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        # zd + delta has q0**2 - q_vec**2 = delta (2 zd.q0 + delta), so
        # delta = r tol size / (2 zd.q0) puts it at distance r tol, up to
        # the delta**2 term
        size = max(1.0, 2.0 * abs(zd.q0) ** 2)
        near, far = (zd + (r * tol * size / (2.0 * zd.q0)) * one for r in (0.5, 2.0))
        for p, inside in ((zd, True), (near, True), (far, False), (q, zd_distance(q) <= tol)):
            if not algebra.is_zero_divisor(p, tol=tol) == inside == (zd_distance(p) <= tol):
                misclassified += 1
    row = _exact_row("zero_divisor_criterion", worst)
    rows.append(replace(row, passed=row.passed and misclassified == 0))

    basis_row("associativity", 3, lambda p, q, r: [((p * q) * r, p * (q * r))])
    basis_row("conj_antihomomorphism", 2, lambda p, q: [((p * q).conj(), q.conj() * p.conj())])

    # involutions: the sandwich form e_k q conj(e_k), involutive, and the
    # printed sign pattern of q^(1)
    basis_row("involution_identities", 1, lambda q: [
        pair for k, ek in enumerate(basis) for pair in (
            (q.involution(k), ek * q * ek.conj()), (q.involution(k).involution(k), q))
    ] + [(Biquaternion(1, 2, 3, 4).involution(1), Biquaternion(1, 2, -3, -4))])

    # q conj(q) = q0^2 + <qvec, qvec> in its polarized, bilinear form
    basis_row("norm_product", 2, lambda p, q: [
        (p * q.conj() + q * p.conj(),
         Biquaternion.scalar(2.0 * (p.components @ q.components)))])

    # P_k^± idempotent, mutually annihilating, complementary
    projectors = [(algebra.right_projector(k, 1), algebra.right_projector(k, -1)) for k in (1, 2, 3)]
    basis_row("p_projectors", 1, lambda q: [
        pair for pp, pm in projectors for pair in (
            ((q * pp) * pp, q * pp), ((q * pp) * pm, 0.0 * q), (q * pp + q * pm, q))])

    # S^± pair: partition of unity, idempotence, annihilation, conjugate
    # zero divisors; construction must reject zero-divisor beta
    worst = 0.0
    for _ in range(50):
        beta = Biquaternion.vector(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        try:
            pair = algebra.split_projectors(beta)
        except ValueError:
            continue
        both_zd = (algebra.is_zero_divisor(pair.plus, 1e-9)
                   and algebra.is_zero_divisor(pair.minus, 1e-9))
        check = (pair.lam * one + beta) * (pair.lam * one + beta) \
            - (2 * pair.lam) * (pair.lam * one + beta)
        worst = np.max([worst,
                        (pair.plus + pair.minus - one).abs_max(),
                        (pair.plus * pair.plus - pair.plus).abs_max(),
                        (pair.plus * pair.minus).abs_max(),
                        (pair.plus.conj() - pair.minus).abs_max(),
                        0.0 if both_zd else 1.0,
                        check.abs_max() / max(1.0, abs(pair.lam) ** 2)])
    rows.append(_exact_row("s_projectors", worst))

    rejected = 0.0
    try:
        algebra.split_projectors(Biquaternion.vector(-1j, -1.0, 0.0))
        rejected = 1.0  # m = omega case must raise
    except ValueError:
        pass
    rows.append(_exact_row("s_rejects_zero_divisor", rejected))

    # axial operator identities C, J, Q, Pi and Q B = B Q: the maps are
    # pointwise and linear, so on a field with Gaussian-integer components
    # they compute exactly and the row passes only at 0, while the data
    # still varies in space
    grid = Grid3.box(0.0, 1.0, 5)
    rng2 = _rng(cfg, 2)
    u = BQField(grid, rng2.integers(-4, 5, size=(4, *grid.shape))
                + 1j * rng2.integers(-4, 5, size=(4, *grid.shape)))
    ops = fz.AxialOperators(ALPHA_X2, grid)
    c_map, j_map, q_map = fz.c_map, fz.j_map, fz.q_map
    defect = np.max([
        (c_map(c_map(u)) - u).linf(),
        (j_map(j_map(u)) - u).linf(),
        (c_map(j_map(u)) - j_map(c_map(u))).linf(),
        (q_map(q_map(u, 1), 1) - q_map(u, 1)).linf(),
        (q_map(u, 1) + q_map(u, -1) - u).linf(),
        (fz.pi_map(fz.pi_map(u)) - u).linf(),
        (q_map(ops.b(u), 1) - ops.b(q_map(u, 1))).linf(),
    ])
    rows.append(_exact_row("axial_operator_identities", defect, scale=0.0))
    return rows


# --------------------------------------------------------------------------
# suite: calculus
# --------------------------------------------------------------------------

def check_calculus(cfg: SuiteConfig):
    rows = []
    grids = cfg.grid_pair()
    g_coarse = grids[0]
    rng = _rng(cfg, 10)

    # Sc/Vec split of the first-order operator vs the raw sum e_k d_k
    f = _smooth_bq(g_coarse, rng)
    df = nabla(f)
    raw = BQField.zeros(g_coarse)
    for k in (1, 2, 3):
        ek = algebra.BASIS[k]
        raw = raw + ek * BQField(g_coarse, partial_deriv(f.data, g_coarse, k - 1))
    rows.append(_exact_field_row("sc_vec_decomposition", df - raw, scale=df.linf()))

    # exactness on linear fields
    x1 = BQField.from_scalar(g_coarse, lambda a, b, c: a)
    res = nabla(x1) - BQField.constant(g_coarse, algebra.E1)
    rows.append(_exact_field_row("gradient_of_linear", res))
    xvec = BQField.from_vector(g_coarse, lambda a, b, c: a,
                               lambda a, b, c: b, lambda a, b, c: c)
    res = nabla(xvec) - BQField.constant(g_coarse, Biquaternion.scalar(-3.0))
    rows.append(_exact_field_row("divergence_of_linear", res))

    # Laplacian on quadratics and a harmonic quadratic
    q = BQField.from_scalar(g_coarse, lambda a, b, c: a ** 2)
    res = laplacian(q) - BQField.constant(g_coarse, Biquaternion.scalar(2.0))
    rows.append(_exact_field_row("laplacian_quadratic", res))
    harm = BQField.from_scalar(g_coarse, lambda a, b, c: a ** 2 - b ** 2)
    rows.append(_exact_field_row("laplacian_harmonic", laplacian(harm)))

    # D(D f) equals the doubled-spacing Laplacian on quadratics, exactly
    quad = BQField.from_components(g_coarse,
                                   lambda a, b, c: a * b,
                                   lambda a, b, c: a ** 2 - c ** 2,
                                   lambda a, b, c: b * c,
                                   lambda a, b, c: c ** 2)
    res = nabla(nabla(quad)) + laplacian_wide(quad)
    rows.append(_exact_field_row("dd_vs_wide_laplacian_quadratic", res,
                                 scale=laplacian_wide(quad).linf()))

    # order of || D^2 f + lap f || on a smooth field over the grid pair
    bq_modes = _bq_modes(_modes(rng), _rng(cfg, 11))
    def dd_plus_laplacian(g):
        fg = _eval_bq(g, bq_modes)
        return nabla(nabla(fg)) + laplacian(fg)
    rows.append(_order_check("dd_plus_laplacian_order", grids, dd_plus_laplacian))

    # O(h^2) of the 7-point Laplacian on sin(x1)
    def laplacian_sin(g):
        f_sin = BQField.from_scalar(g, lambda a, b, c: np.sin(a))
        return laplacian(f_sin) + f_sin
    rows.append(_order_check("laplacian_sin_order", grids, laplacian_sin))

    # scalar one-component solution of the reciprocal family:
    # f = e0 / ((x1-b1)(x2-b2)(x3-b3)) has D f + f alpha = 0 exactly
    alf = reciprocal_alpha(B)
    fam = fz.ClosedFormFamily(alf)
    def alpha_residual(g):
        f0 = fam.f_values(g, 0)
        return nabla_alpha(BQField.from_scalar(g, f0), alf), linf(f0)
    rows.append(_order_check("alpha_residual_reciprocal_order", grids, alpha_residual,
                             window=0.15))

    # reflection: involutive, commutes with d1/d2, anticommutes with d3
    gsym = cfg.dirac_grid_pair()[0]
    fsym = _smooth_bq(gsym, rng)
    scale = fsym.linf()
    worst = (reflect_x3(reflect_x3(fsym)) - fsym).linf()
    for axis in range(3):
        d_then_r = reflect_x3(BQField(gsym, partial_deriv(fsym.data, gsym, axis)))
        r_then_d = BQField(gsym, partial_deriv(reflect_x3(fsym).data, gsym, axis))
        sign = -1.0 if axis == 2 else 1.0
        worst = np.maximum(worst, (r_then_d - sign * d_then_r).linf())
    rows.append(_exact_row("reflect_derivative_commutation", worst / max(scale, 1.0),
                           h=gsym.hmax))

    # linearity of D + M^alpha in the field argument
    a_const = SeparableAlpha((0.3 + 0.1j, -0.2, 0.5j))
    f1 = _smooth_bq(g_coarse, rng)
    f2 = _smooth_bq(g_coarse, rng)
    lhs = nabla_alpha(f1 + 2j * f2, a_const)
    rhs = nabla_alpha(f1, a_const) + 2j * nabla_alpha(f2, a_const)
    rows.append(_exact_field_row("d_alpha_linearity", lhs - rhs, scale=lhs.linf()))

    # constant field times constant alpha reproduces the table: e1 * e2 = e3
    fconst = BQField.constant(g_coarse, algebra.E1)
    res = nabla_alpha(fconst, SeparableAlpha((0, 1, 0))) - BQField.constant(g_coarse, algebra.E3)
    rows.append(_exact_field_row("d_alpha_constant_table", res))
    return rows


# --------------------------------------------------------------------------
# suite: dirac
# --------------------------------------------------------------------------

def check_dirac(cfg: SuiteConfig):
    rows = []
    grids = cfg.dirac_grid_pair()
    g_coarse = grids[0]
    rng = _rng(cfg, 20)

    # gamma algebra
    gs = (dirac.G0, dirac.G1, dirac.G2, dirac.G3)
    eye = np.eye(4)
    worst = 0.0
    for a in range(4):
        for b_ in range(4):
            anti = gs[a] @ gs[b_] + gs[b_] @ gs[a]
            want = 2 * eye if a == b_ == 0 else (-2 * eye if a == b_ else 0 * eye)
            worst = np.maximum(worst, np.abs(anti - want).max())
    worst = np.maximum(worst, np.abs(dirac.G5 - 1j * gs[0] @ gs[1] @ gs[2] @ gs[3]).max())
    rows.append(_exact_row("gamma_relations", worst))

    # transform round trip, both orders
    phi = _smooth_spinor(g_coarse, rng)
    fwd = dirac.spinor_to_bq(phi)
    worst = (dirac.bq_to_spinor(fwd) - phi).linf() / max(phi.linf(), 1.0)
    fld = _smooth_bq(g_coarse, rng)
    back = dirac.spinor_to_bq(dirac.bq_to_spinor(fld))
    worst = np.maximum(worst, (back - fld).linf() / max(fld.linf(), 1.0))
    rows.append(_exact_row("transform_roundtrip", worst, h=g_coarse.hmax))

    # first column of the forward matrix
    unit = dirac.SpinorField.from_components(g_coarse, 1.0, 0.0, 0.0, 0.0)
    want = BQField.from_components(g_coarse, 0.0, 0.5j, -0.5, 0.0)
    res = dirac.spinor_to_bq(unit) - want
    rows.append(_exact_field_row("transform_unit_column", res))

    # intertwining for scalar and electric potentials, 20 random spinors
    for kind, name in (("scalar", "intertwining_scalar"),
                       ("electric", "intertwining_electric")):
        pot_modes = _modes(rng, n_modes=2)
        # the transform samples the potential reflected in x3, so a
        # potential constant in x3 would leave the reflection untested
        if all(kv[2] == 0 for kv, _ in pot_modes):
            pot_modes[0][0][2] = 1.0
        pot = np.real(_eval_modes(g_coarse, pot_modes))
        params = dirac.DiracParams(omega=OMEGA, m=M, kind=kind, phi=pot)
        worst = 0.0
        for _ in range(20):
            phi = _smooth_spinor(g_coarse, rng)
            res, scale = dirac.intertwining_residual(phi, params)
            worst = np.maximum(worst, res.linf() / max(scale, 1.0))
        rows.append(_exact_row(name, worst, h=g_coarse.hmax))

    # printed alpha formulas at omega = 1, m = 2, zero potential; nu sign
    p0 = dirac.DiracParams(omega=1.0, m=2.0, kind="scalar", phi=None)
    pe = dirac.DiracParams(omega=1.0, m=2.0, kind="electric", phi=None)
    pps = dirac.DiracParams(omega=1.0, m=2.0, kind="pseudoscalar", phi=1.0)
    # the pseudoscalar nu = -i sits in the scalar slot.  The data are read
    # directly, since linf() would skip a NaN node as invalid
    want = Biquaternion.vector(-1j, -2.0, 0.0)
    want_ps = Biquaternion(-1j, -1j, -2.0, 0.0)
    worst = np.max([np.abs(dirac.equivalent_alpha(p, g_coarse).data
                           - q.components.reshape(4, 1, 1, 1)).max()
                    for p, q in ((p0, want), (pe, want), (pps, want_ps))])
    rows.append(_exact_row("equivalent_alpha_formulas", worst))

    # pseudoscalar splitting: exact recombination and operator identity
    nu_c = 0.4 - 0.2j
    beta = DIRAC_BETA
    f = _smooth_bq(g_coarse, rng)
    split = dirac.pseudoscalar_split(f, nu_c, beta)
    res = split.recombined() - f
    rows.append(_exact_field_row("ps_recombination", res, scale=f.linf()))
    res, scale = split.identity_residual()
    rows.append(_exact_field_row("ps_operator_identity", res, scale=scale))

    # the coarse-grid fixtures are done: free them before the two-grid rows
    del phi, fwd, fld, back, unit, want, f, split, res, pot, params

    # manufactured constant-nu solution: per-part equation residuals O(h^2),
    # one grid's split at a time
    def part_residuals(g):
        split = dirac.pseudoscalar_split(dirac.manufactured_split_solution(g, nu_c, beta),
                                         nu_c, beta)
        scale = max(split.field.linf(), 1.0)
        for key in split.parts:
            yield split.part_residual(key), scale
    rows.append(_order_check("ps_part_equations_order", grids, part_residuals))

    # free plane wave: residual of the free operator O(h^2)
    def plane_wave(g):
        wave, params = dirac.free_plane_wave(g, (1.0, 0.5, -0.8), M)
        return BQField(g, dirac.apply_dirac(wave, params).data)
    rows.append(_order_check("plane_wave_order", grids, plane_wave))
    return rows


# --------------------------------------------------------------------------
# suite: maxwell
# --------------------------------------------------------------------------

def check_maxwell(cfg: SuiteConfig):
    rows = []
    grids = cfg.grid_pair()
    g_coarse = grids[0]
    rng = _rng(cfg, 30)

    # constant medium: coefficient vector vanishes
    med_const = physics.MediumFields(eps=2.5, mu=1.0)
    av = physics.medium_alpha(med_const, g_coarse, "eps")
    rows.append(_exact_field_row("medium_alpha_constant", av))

    # separable closed form vs numeric gradient, exp(2 x1) permittivity;
    # the same medium without factors is the numeric reference
    med = physics.MediumFields(
        eps=lambda a, b, c: np.exp(2.0 * a), mu=1.0,
        separable_eps=((lambda x: np.exp(2.0 * x), lambda x: 2.0 * np.exp(2.0 * x)),
                       (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
                       (lambda x: np.ones_like(x), lambda x: np.zeros_like(x))))
    closed = physics.medium_alpha(med, g_coarse, "eps")
    want = BQField.constant(g_coarse, algebra.E1)
    rows.append(_exact_field_row("medium_alpha_exp_closed", closed - want))
    def closed_vs_numeric(g):
        return (physics.medium_alpha(replace(med, separable_eps=None), g, "eps")
                - physics.medium_alpha(med, g, "eps"))
    rows.append(_order_check("medium_alpha_closed_vs_numeric_order", grids,
                             closed_vs_numeric))

    # diagonalization round trip
    e_f = _smooth_bq(g_coarse, rng).vector_part()
    h_f = _smooth_bq(g_coarse, rng).vector_part()
    phi, psi = physics.diagonalize_em(e_f, h_f)
    e2_, h2_ = physics.undiagonalize_em(phi, psi)
    worst = np.max([(e2_ - e_f).linf(), (h2_ - h_f).linf()]) / max(e_f.linf(), h_f.linf(), 1.0)
    rows.append(_exact_row("diagonalization_roundtrip", worst, h=g_coarse.hmax))
    del av, closed, want, e_f, h_f, phi, psi, e2_, h2_  # before the two-grid rows

    # slow-medium plane-wave pair: diagonal equations and Helmholtz, O(h^2)
    for sign, name in ((1, "diagonal_plus_order"), (-1, "diagonal_minus_order")):
        def diagonal(g, sign=sign):
            # phi = E + iH for sign +1, psi = E - iH for -1; b is not needed past it
            b = physics.circular_wave(g, NU, sign)
            active = physics.diagonalize_em(b, (-sign * 1j) * b)[0 if sign == 1 else 1]
            del b
            return nabla(active) - float(sign) * NU * active
        rows.append(_order_check(name, grids, diagonal))
    def helmholtz(g):
        b = physics.circular_wave(g, NU, -1)
        return laplacian(b) + NU ** 2 * b
    rows.append(_order_check("helmholtz_order", grids, helmholtz))

    # static system: constants, manufactured solution, manufactured source
    e_const = BQField.constant(g_coarse, Biquaternion.vector(1.0, -2.0, 0.5))
    res = physics.static_maxwell_residual(e_const, med_const, which="E")
    rows.append(_exact_field_row("static_constant", res))

    med_sep = physics.MediumFields(
        eps=lambda a, b, c: (a * b * c) ** 2, mu=1.0,
        separable_eps=tuple((lambda x: x ** 2, lambda x: 2.0 * x) for _ in range(3)))
    alf = reciprocal_alpha((0.0, 0.0, 0.0))  # equals grad(sqrt eps)/sqrt(eps)
    fam = fz.ClosedFormFamily(alf)
    def static_manufactured(g):
        e_man = BQField.from_vector(g, fam.f_values(g, 1), fam.f_values(g, 2),
                                    fam.f_values(g, 3))
        return physics.static_maxwell_residual(e_man, med_sep, which="E"), e_man.linf()
    rows.append(_order_check("static_manufactured_order", grids, static_manufactured,
                             window=0.15))

    e_smooth = _smooth_bq(g_coarse, rng).vector_part()
    bare = physics.static_maxwell_residual(e_smooth, med_const, which="E")
    rho = -np.sqrt(med_const.eps_values(g_coarse)) * bare.scalar
    cancelled = physics.static_maxwell_residual(e_smooth, med_const, which="E", rho=rho)
    worst = linf(cancelled.scalar) / max(bare.linf(), 1.0)
    rows.append(_exact_row("static_manufactured_source", worst, h=g_coarse.hmax))
    return rows


# --------------------------------------------------------------------------
# suite: forcefree
# --------------------------------------------------------------------------

def check_forcefree(cfg: SuiteConfig):
    rows = []
    grids = cfg.grid_pair()
    g_coarse = grids[0]
    rng = _rng(cfg, 40)

    # the split identity is exact for arbitrary f and scalar nu(x)
    worst = 0.0
    for _ in range(20):
        f = _smooth_bq(g_coarse, rng)
        nu_modes = _modes(rng, n_modes=2)
        nu_arr = _eval_modes(g_coarse, nu_modes)
        res, scale = physics.forcefree_split(f, nu_arr).identity_residual()
        worst = np.maximum(worst, res.linf() / max(scale, 1e-300))
    rows.append(_exact_row("split_identity_random", worst, h=g_coarse.hmax))

    # Beltrami fixture: div exactly zero, curl + nu B at O(h^2)
    b = physics.circular_wave(g_coarse, NU, -1)
    div_part = nabla(b).scalar
    rows.append(_exact_row("beltrami_divergence", linf(div_part), h=g_coarse.hmax))
    def beltrami(g):
        bg = physics.circular_wave(g, NU, -1)
        return nabla(bg) + NU * bg
    rows.append(_order_check("beltrami_residual_order", grids, beltrami))

    # full biquaternion accepted: nonzero scalar part, identity still exact;
    # a draw with no scalar part tests nothing, so it fails the row
    f = _smooth_bq(g_coarse, rng)
    res, scale = physics.forcefree_split(f, NU).identity_residual()
    row = _exact_row("scalar_part_accepted", res.linf() / max(scale, 1e-300), h=g_coarse.hmax)
    rows.append(replace(row, passed=row.passed and linf(f.scalar) > 0))
    return rows


# --------------------------------------------------------------------------
# suite: factorization
# --------------------------------------------------------------------------

def check_factorization(cfg: SuiteConfig):
    rows = []
    grids = cfg.grid_pair()
    g_coarse = grids[0]
    rng = _rng(cfg, 50)
    alf = reciprocal_alpha(B)
    x1, x2, x3 = g_coarse.mesh()
    b1, b2, b3 = (complex(v) for v in B)

    # reciprocal family: vanishing zeroth potential, printed v_1..v_3
    pots = fz.potentials(alf, g_coarse)
    v0 = pots.v[0]
    rows.append(_exact_row("reciprocal_zero_potential", linf(v0),
                           h=g_coarse.hmax, value_l2=l2(v0, g_coarse)))
    printed = (
        2.0 * (1.0 / (x2 - b2) ** 2 + 1.0 / (x3 - b3) ** 2),
        2.0 * (1.0 / (x1 - b1) ** 2 + 1.0 / (x3 - b3) ** 2),
        2.0 * (1.0 / (x1 - b1) ** 2 + 1.0 / (x2 - b2) ** 2),
    )
    worst = np.max([linf(pots.v[k + 1] - printed[k]) for k in range(3)])
    rows.append(_exact_row("reciprocal_printed_potentials", worst,
                           h=g_coarse.hmax, scale=max(linf(p) for p in printed)))

    # v_k + w_k = -2 alpha^2 for a generic separable alpha
    alf_gen = SeparableAlpha(
        (lambda x: np.sin(x) + 0.5j * x, lambda x: np.exp(0.3 * x), 0.7 - 0.2j),
        derivs=(lambda x: np.cos(x) + 0.5j, lambda x: 0.3 * np.exp(0.3 * x),
                lambda x: np.zeros_like(x)),
        antiderivs=(lambda x: -np.cos(x) + 0.25j * x ** 2,
                    lambda x: np.exp(0.3 * x) / 0.3, lambda x: (0.7 - 0.2j) * x))
    pots_gen = fz.potentials(alf_gen, g_coarse)
    defect = pots_gen.pairing_defect() / max(1.0, linf(pots_gen.alpha_sq))
    rows.append(_exact_row("potential_pairing", defect, h=g_coarse.hmax))

    # Riccati residuals with exact derivatives
    res = fz.riccati_residual(alf, 0.0, g_coarse)
    scale = max(1.0, linf(alf.alpha_sq(g_coarse)))
    rows.append(_exact_field_row("riccati_reciprocal", res, scale=scale))
    galf = GradientAlpha(lambda a, b, c: a, grad_phi=(1.0, 0.0, 0.0), lap_phi=0.0)
    res = fz.riccati_residual(galf, 0.0, g_coarse)
    rows.append(_exact_field_row("riccati_gradient_x1", res))

    # gradient alpha from the product phi matches the reciprocal family
    phi0 = lambda a, b, c: (a - b1) * (b - b2) * (c - b3)
    galf2 = GradientAlpha(
        phi0,
        grad_phi=(lambda a, b, c: (b - b2) * (c - b3),
                  lambda a, b, c: (a - b1) * (c - b3),
                  lambda a, b, c: (a - b1) * (b - b2)),
        lap_phi=0.0)
    diff = galf2.vector_field(g_coarse) - alf.vector_field(g_coarse)
    rows.append(_exact_field_row("gradient_alpha_matches_reciprocal", diff,
                                 scale=alf.vector_field(g_coarse).linf()))

    # closed-form one-component solutions: first-order equation, both
    # Schrodinger families, all with exact derivatives
    fam = fz.ClosedFormFamily(alf)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        res, scale = fam.equation_residual_analytic(g_coarse, coeffs)
        worst = np.maximum(worst, res.linf() / scale)
    rows.append(_exact_row("closed_form_first_order", worst, h=g_coarse.hmax))
    for which, name in (("v", "closed_form_schrodinger_v"),
                        ("w", "closed_form_schrodinger_w")):
        worst = 0.0
        for k in range(4):
            res, scale = fam.schrodinger_residual_analytic(g_coarse, k, which)
            worst = np.maximum(worst, linf(res) / scale)
        rows.append(_exact_row(name, worst, h=g_coarse.hmax))

    # the same combination checked with grid derivatives converges at 2
    coeffs = (0.3 - 0.1j, 1.0, -0.7, 0.4 + 0.2j)
    def closed_form_grid(g):
        comb = fam.combination(g, coeffs)
        return nabla_alpha(comb, alf), comb.linf()
    rows.append(_order_check("closed_form_grid_order", grids, closed_form_grid,
                             window=0.15))

    # scalar factorization: exact for constant alpha on a quadratic
    alfc = SeparableAlpha((1j * M, 0.0, 0.0))
    res, scale = fz.factorization_residual(alfc, lambda a, b, c: a * b + c ** 2,
                                           -M ** 2, g_coarse)
    rows.append(_exact_field_row("scalar_factorization_quadratic", res, scale=scale))
    # order 2 on a smooth function with the reciprocal alpha, v = 0
    modes = _modes(rng)
    def scalar_factorization(g):
        res, scale = fz.factorization_residual(alf, _eval_modes(g, modes), 0.0, g)
        return res * (1.0 / scale)
    rows.append(_order_check("scalar_factorization_order", grids, scalar_factorization))

    # componentwise factorization (fact): exact for constant alpha on
    # quadratics against the wide Laplacian; order 2 for the generic
    # complex separable alpha
    quad = BQField.from_components(g_coarse,
                                   lambda a, b, c: a * b,
                                   lambda a, b, c: a ** 2 - b ** 2,
                                   lambda a, b, c: b * c,
                                   lambda a, b, c: a ** 2 - c ** 2)
    lhs = fz.factored_product(quad, alfc)
    rhs = _schrodinger_field(quad, alfc, step=2)
    rows.append(_exact_field_row("component_factorization_quadratic", lhs - rhs,
                                 scale=max(lhs.linf(), rhs.linf())))
    bq_modes = _bq_modes(modes, _rng(cfg, 51))
    def component_factorization(g):
        u = _eval_bq(g, bq_modes)
        return fz.factored_product(u, alf_gen) - _schrodinger_field(u, alf_gen)
    rows.append(_order_check("component_factorization_order", grids,
                             component_factorization))

    # solutions built from harmonic/Schrodinger data
    def build_from_harmonic(g):
        gfield = BQField.from_scalar(g, lambda a, b, c: a)  # harmonic, v_0 = 0
        return fz.factored_product(gfield, alf)
    rows.append(_order_check("build_from_harmonic_order", grids, build_from_harmonic,
                             window=0.15))

    # identity behind the converse: D_alpha (D - M^alpha) g equals the sum
    # of the componentwise Schrodinger operators, for arbitrary smooth g
    def converse_identity(g):
        gfield = _eval_bq(g, bq_modes)
        return fz.factored_product(gfield, alf) - _schrodinger_field(gfield, alf)
    rows.append(_order_check("converse_identity_order", grids, converse_identity))
    return rows


def _schrodinger_field(u: BQField, alpha: SeparableAlpha, step: int = 1) -> BQField:
    """sum_k (-lap_h + v_k) u_k e_k with the potentials v_k of alpha,
    on the compact (step 1) or wide (step 2) stencil."""
    return BQField(u.grid, _schrodinger(u.data, fz.potentials(alpha, u.grid).v, u.grid, step))


# --------------------------------------------------------------------------
# suite: right-inverse
# --------------------------------------------------------------------------

def _compatible_rhs(grid: Grid3, pots):
    """f = (-lap + v) u* for a closed-form u* vanishing on the box boundary;
    keeps the continuous solution smooth up to the boundary so the
    second-order defect of the factored operators converges cleanly."""
    x1, x2, x3 = grid.mesh()
    spans = [HI[k] - LO[k] for k in range(3)]
    base = (np.sin(np.pi * (x1 - LO[0]) / spans[0])
            * np.sin(np.pi * (x2 - LO[1]) / spans[1])
            * np.sin(np.pi * (x3 - LO[2]) / spans[2]))
    lap_base = -(np.pi ** 2) * (1.0 / spans[0] ** 2 + 1.0 / spans[1] ** 2
                                + 1.0 / spans[2] ** 2) * base
    data = np.empty((4, *grid.shape), dtype=complex)
    for k in range(4):
        data[k] = (-lap_base + pots.v[k] * base) * (0.5 + 0.25 * k)
    return BQField(grid, data)


def check_right_inverse(cfg: SuiteConfig):
    rows = []
    grids = cfg.grid_pair()
    g_coarse = grids[0]
    rng = _rng(cfg, 60)

    alf_const = SeparableAlpha((1j * 1.0, 0.0, 0.0))  # m = 1: -lap - 1, safely invertible
    alf_sep = reciprocal_alpha(B)

    # zero input
    out = fz.right_inverse(BQField.zeros(g_coarse), alf_const)
    rows.append(_exact_field_row("zero_input", out.field))

    # a component solve above _SOLVER_TOL makes right_inverse raise, which
    # run_suite reports as this suite's one FAIL row
    for alf, name in ((alf_const, "constant_alpha_order"),
                      (alf_sep, "separable_alpha_order")):
        def solved(g, alf=alf):
            f = _compatible_rhs(g, fz.potentials(alf, g))
            return nabla_alpha(fz.right_inverse(f, alf).field, alf) - f, f.linf()
        rows.append(_order_check(name, grids, solved))

    # random smooth data on the coarse grid: bound max(5 h^2, 1e-8) on the
    # interior relative l2 residual (boundary-incompatible data limits the
    # pointwise rate near edges; the l2 norm is the meaningful one here)
    f = _smooth_bq(g_coarse, rng)
    out = fz.right_inverse(f, alf_const)
    res = nabla_alpha(out.field, alf_const) - f
    rel = res.l2() / f.l2()
    bound = max(5.0 * g_coarse.hmax ** 2, 1e-8)
    rows.append(CheckRow(suite="", check="random_rhs_bound", h=g_coarse.hmax,
                         linf=res.linf() / f.linf(), l2=rel,
                         expected_order=None, observed_order=None,
                         passed=bool(rel <= bound)))

    # mirrored preimage: the right inverse for -alpha, g = (D + M^alpha) u,
    # solves (D - M^alpha) g = f
    def mirrored(g):
        f = _compatible_rhs(g, fz.potentials(alf_const, g))
        out = fz.right_inverse(f, SeparableAlpha((-1j, 0, 0)))
        return fz.build_solution(out.field, alf_const) - f, f.linf()
    rows.append(_order_check("mirrored_variant_order", grids, mirrored))
    return rows


# --------------------------------------------------------------------------
# suite: axial
# --------------------------------------------------------------------------

def check_axial(cfg: SuiteConfig):
    rows = []
    lo, hi = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    grids = cfg.grid_pair(lo=lo, hi=hi)
    g_coarse = grids[0]
    rng = _rng(cfg, 70)

    # alpha1 = x2: D a1 = e2 and the diagonal '+' potential is x2^2 + i e2
    ops = fz.AxialOperators(ALPHA_X2, g_coarse)
    u = _smooth_bq(g_coarse, rng)

    resid = ops.split_identity_residual(u)
    rows.append(_exact_row("q_split_identity", resid, h=g_coarse.hmax))

    worst = (fz.pi_map(fz.pi_map(u)) - u).linf() / max(u.linf(), 1.0)
    rows.append(_exact_row("pi_involution", worst, h=g_coarse.hmax))

    # product identity: exact for constant a1 on quadratics (wide Laplacian)
    alf_c = AxialAlpha(0.4 - 0.3j, 0.2, -0.1j, grad_a1=(0.0, 0.0, 0.0))
    ops_c = fz.AxialOperators(alf_c, g_coarse)
    quad = BQField.from_components(g_coarse,
                                   lambda a, b, c: a * b, lambda a, b, c: b * c,
                                   lambda a, b, c: a ** 2 - c ** 2,
                                   lambda a, b, c: c * a)
    res, scale = ops_c.factq_residual(quad, wide=True)
    rows.append(_exact_field_row("factq_constant_quadratic", res, scale=scale))

    # varying a1 = x2: O(h^2) against the compact Laplacian
    bq_modes = _bq_modes(_modes(rng), _rng(cfg, 71))
    def factq_x2(g):
        ug = _eval_bq(g, bq_modes)
        res, scale = fz.AxialOperators(ALPHA_X2, g).factq_residual(ug, wide=False)
        return res * (1.0 / scale)
    rows.append(_order_check("factq_x2_order", grids, factq_x2))

    # the diagonal '+' potential -alpha**2 + i D a1 for a1 = x2, against
    # its printed value
    x1, x2, x3 = g_coarse.mesh()
    pot_field = (BQField.from_scalar(g_coarse, -ops.alpha_sq)
                 + BQField.from_components(g_coarse, *(1j * d for d in ops.d_alpha1)))
    want = BQField.from_components(g_coarse, x2 ** 2, 0.0, 1j, 0.0)
    rows.append(_exact_field_row("diagonal_plus_potential_value",
                                 pot_field - want, scale=want.linf()))

    # null-gradient closed form (case ii data) drives the involution maps:
    # v solves the '+' equation; i e1 v solves '-'; Pi v solves (A+BC)
    def pi_correspondence(g):
        uu = fz.pi_map(null_direction_solution(g))
        return fz.AxialOperators(ALPHA_NULL, g).abc(uu), max(laplacian(uu).linf(), 1.0)
    rows.append(_order_check("pi_correspondence_order", grids, pi_correspondence,
                             window=0.15))
    def conjugate_pair(g):
        w = fz.j_map(null_direction_solution(g))
        return fz.AxialOperators(ALPHA_NULL, g).schro(w, -1), max(laplacian(w).linf(), 1.0)
    rows.append(_order_check("conjugate_pair_order", grids, conjugate_pair, window=0.15))

    # zero-divisor reduction: classification of the three cases
    ok = (fz.zero_divisor_reduction(ALPHA_TAN, g_coarse).case == "i"
          and fz.zero_divisor_reduction(ALPHA_NULL, g_coarse).case == "ii"
          and fz.zero_divisor_reduction(ALPHA_X2, g_coarse).case == "iii"
          and fz.zero_divisor_reduction(alf_c, g_coarse).case == "degenerate")
    flag = 0.0 if ok else 1.0
    rows.append(_exact_row("reduction_classification", flag))

    # case i closes exactly: v = (-1 + i e2) (x1 x2) is harmonic and the
    # potential term annihilates it pointwise
    ops_tan = fz.AxialOperators(ALPHA_TAN, g_coarse)
    gharm = x1 * x2
    v_i = BQField.from_components(g_coarse, -gharm, 0.0, 1j * gharm, 0.0)
    res = ops_tan.schro(v_i, +1)
    rows.append(_exact_field_row("reduction_case_i_exact", res,
                                 scale=max(linf(ops_tan.alpha_sq) * v_i.linf(), 1.0)))

    # case ii closes at O(h^2): v = (D a1) f with the null-direction f
    def case_ii(g):
        v = null_direction_solution(g)
        return fz.AxialOperators(ALPHA_NULL, g).schro(v, +1), max(laplacian(v).linf(), 1.0)
    rows.append(_order_check("reduction_case_ii_order", grids, case_ii, window=0.15))

    # case iii closes at O(h^2): v = (beta0 - beta) exp(-x2^2/2), beta0 = 1
    def case_iii(g):
        fval = np.exp(-g.mesh()[1] ** 2 / 2.0)
        v3 = BQField.from_components(g, fval, 0.0, -1j * fval, 0.0)
        return fz.AxialOperators(ALPHA_X2, g).schro(v3, +1), max(laplacian(v3).linf(), 1.0)
    rows.append(_order_check("reduction_case_iii_order", grids, case_iii))
    return rows


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

SUITES = {
    "algebra": check_algebra,
    "calculus": check_calculus,
    "dirac": check_dirac,
    "maxwell": check_maxwell,
    "forcefree": check_forcefree,
    "factorization": check_factorization,
    "right-inverse": check_right_inverse,
    "axial": check_axial,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def _exit_with_parent(parent: int) -> None:
    """Start a daemon thread that ends this worker once its parent
    process is gone.  A worker waits for its next suite on a pipe that
    its siblings also hold open, so it would outlive a killed parent."""
    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="biquat-parent-watch", daemon=True).start()


def _suite_rows(name: str, cfg: SuiteConfig):
    """(rows, error) of the suite SUITES[name]: its rows and None, or, if
    it raises a numerical exception, one FAIL row named after the
    exception type and (type name, message).  Rows carry no suite name
    yet; any other exception propagates."""
    try:
        return SUITES[name](cfg), None
    except (ArithmeticError, ValueError) as err:
        nan = float("nan")
        row = CheckRow(suite="", check=f"raised_{type(err).__name__}", h=None,
                       linf=nan, l2=nan, expected_order=None,
                       observed_order=None, passed=False)
        return [row], (type(err).__name__, str(err))


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run the named suite (or all of them) and collect the report.

    Row order is stable; with a fixed seed the CSV serialization is
    byte-identical between runs.  A suite that raises a numerical
    exception contributes one FAIL row named after the exception type
    (the message goes to this module's log, in the calling process), and
    the remaining suites still run; any other exception propagates.

    The suites of ``all`` share nothing (each draws from its own
    ``_rng``), so they are dealt, one at a time in ``SUITES`` order, to
    ``min(len(SUITES), grid._cpus())`` worker processes forked for this
    call and joined before it returns.  A worker looks its suite up by
    name after the fork, so it runs the caller's ``SUITES``, and it exits
    if the caller is killed.  The rows come back in ``SUITES`` order.  A
    call runs inline, in the calling process, when it names one suite,
    when the process may use one CPU, or where the "fork" start method
    does not exist.  The calling process's own peak RSS
    (``RUSAGE_SELF``) then covers only the parent; the workers' is in
    ``RUSAGE_CHILDREN``.
    """
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    t0 = time.perf_counter()
    procs = min(len(names), _grid._cpus())
    if procs > 1:
        # imported here: a process that never forks never needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            procs = 1
    if procs > 1:
        with ProcessPoolExecutor(procs, multiprocessing.get_context("fork"),
                                 _exit_with_parent, (os.getpid(),)) as pool:
            results = list(pool.map(_suite_rows, names, itertools.repeat(cfg)))
    else:
        results = [_suite_rows(name, cfg) for name in names]
    report = VerificationReport()
    for name, (rows, err) in zip(names, results):
        if err is not None:
            _log.error("suite %s raised %s: %s", name, *err)
        report.rows.extend(replace(r, suite=name) for r in rows)
    report.wall_time = time.perf_counter() - t0
    return report
