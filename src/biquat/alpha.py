"""Coefficient vectors alpha for the first-order equation Df + f*alpha = 0.

Alpha enters in one of two forms.  Known only by its samples, as the
Dirac and Maxwell bridges return it, it is a ``grid.BQField``.  Known in
closed form, it is one of three specs:

* separable: alpha = a1(x1) e1 + a2(x2) e2 + a3(x3) e3, each factor a
  function of its own coordinate (constants included).  This is the shape
  under which the second-order factorization diagonalizes into four scalar
  operators, and the only one with closed-form one-component solutions.
* axial: alpha = a1(x1,x2,x3) e1 + a2 e2 + a3 e3 with constant a2, a3.
* gradient: alpha = grad(phi)/phi for a given scalar phi.

Specs carry optional exact derivative/antiderivative callables.  Each
spec is the one place that decides where its derivatives come from:
``d_alpha`` (and ``SeparableAlpha.deriv_components``) is exact when
``has_exact_derivatives()`` is true and uses central differences, with an
invalid one-node rim, otherwise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import BQField, Grid3, nabla, partial_deriv, sample

__all__ = [
    "AlphaSpec",
    "SeparableAlpha",
    "AxialAlpha",
    "GradientAlpha",
    "separable_alpha",
    "constant_alpha",
    "axial_alpha",
    "gradient_alpha",
    "reciprocal_alpha",
]

def _check_finite(arrays, what="alpha"):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{what} pole on grid: non-finite values at sampled nodes")


class AlphaSpec:
    """Base interface; concrete kinds implement components()."""

    def components(self, grid: Grid3):
        """Three complex arrays (a1, a2, a3) sampled on the grid."""
        raise NotImplementedError

    def vector_field(self, grid: Grid3) -> BQField:
        a1, a2, a3 = self.components(grid)
        return BQField.from_vector(grid, a1, a2, a3)

    def alpha_sq(self, grid: Grid3) -> np.ndarray:
        """The scalar field alpha**2 = -(a1**2 + a2**2 + a3**2)."""
        a1, a2, a3 = self.components(grid)
        return -(a1 ** 2 + a2 ** 2 + a3 ** 2)

    def d_alpha(self, grid: Grid3) -> BQField:
        """D(alpha): scalar part -div, vector part curl.  Exact when
        has_exact_derivatives(), central differences otherwise; this base
        body is the central-difference one, ``nabla`` of the sampled
        vector field, with its one-node invalid rim on every component."""
        return nabla(self.vector_field(grid))

    def has_exact_derivatives(self) -> bool:
        return False


class SeparableAlpha(AlphaSpec):
    def __init__(self, funcs, derivs=None, antiderivs=None):
        self.funcs = tuple(funcs)
        self.derivs = tuple(derivs) if derivs is not None else (None, None, None)
        self.antiderivs = tuple(antiderivs) if antiderivs is not None else (None, None, None)

    def components(self, grid: Grid3):
        out = tuple(grid.sample_axis(k, fn) for k, fn in enumerate(self.funcs))
        _check_finite(out)
        return out

    def has_exact_derivatives(self) -> bool:
        return all(d is not None for d in self.derivs)

    def deriv_components(self, grid: Grid3):
        """The three lines a_k'(x_k): exact when has_exact_derivatives(),
        central differences of the sampled factors otherwise."""
        if not self.has_exact_derivatives():
            comps = self.components(grid)
            return tuple(partial_deriv(comps[k], grid, k) for k in range(3))
        out = tuple(grid.sample_axis(k, fn) for k, fn in enumerate(self.derivs))
        _check_finite(out, "alpha derivative")
        return out

    def d_alpha(self, grid: Grid3) -> BQField:
        # D(alpha) of a separable alpha is the scalar -sum_k a_k'(x_k)
        d1, d2, d3 = self.deriv_components(grid)
        return BQField.from_scalar(grid, -(d1 + d2 + d3))

    def has_antiderivatives(self) -> bool:
        return all(a is not None for a in self.antiderivs)

    def antideriv_components(self, grid: Grid3):
        if not self.has_antiderivatives():
            raise ValueError("missing antiderivative for separable alpha")
        out = tuple(grid.sample_axis(k, fn) for k, fn in enumerate(self.antiderivs))
        _check_finite(out, "alpha antiderivative")
        return out


class AxialAlpha(AlphaSpec):
    def __init__(self, a1: Callable, a2: complex, a3: complex, grad_a1=None):
        self.a1 = a1
        self.a2 = complex(a2)
        self.a3 = complex(a3)
        self.grad_a1 = tuple(grad_a1) if grad_a1 is not None else None

    def components(self, grid: Grid3):
        a1 = sample(grid, self.a1)
        out = (a1,
               np.full(grid.shape, self.a2, dtype=complex),
               np.full(grid.shape, self.a3, dtype=complex))
        _check_finite(out)
        return out

    def has_exact_derivatives(self) -> bool:
        return self.grad_a1 is not None

    def grad_a1_components(self, grid: Grid3):
        """The three arrays d_k a1, exact if supplied, else central differences."""
        if self.grad_a1 is not None:
            out = tuple(sample(grid, g) for g in self.grad_a1)
            _check_finite(out, "alpha derivative")
            return out
        a1 = sample(grid, self.a1)
        return tuple(partial_deriv(a1, grid, k) for k in range(3))

    def d_alpha(self, grid: Grid3) -> BQField:
        # D(a1 e1) = (D a1) e1; a numeric gradient carries an invalid rim
        g1, g2, g3 = self.grad_a1_components(grid)
        return BQField.from_components(grid, -g1, 0.0, g3, -g2)


class GradientAlpha(AlphaSpec):
    def __init__(self, phi: Callable, grad_phi=None, lap_phi=None):
        self.phi = phi
        self.grad_phi = tuple(grad_phi) if grad_phi is not None else None
        self.lap_phi = lap_phi

    def _phi_values(self, grid: Grid3) -> np.ndarray:
        p = sample(grid, self.phi)
        if np.any(np.abs(p) == 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("zero of phi on grid: gradient alpha undefined")
        return p

    def components(self, grid: Grid3):
        p = self._phi_values(grid)
        if self.grad_phi is not None:
            g = tuple(sample(grid, f) for f in self.grad_phi)
        else:
            g = tuple(partial_deriv(p, grid, k) for k in range(3))
        return tuple(gk / p for gk in g)

    def has_exact_derivatives(self) -> bool:
        return self.grad_phi is not None and self.lap_phi is not None

    def d_alpha(self, grid: Grid3) -> BQField:
        # D(grad phi / phi) = -lap(phi)/phi + <grad phi, grad phi>/phi**2,
        # a pure scalar: the curl of a gradient vanishes identically.
        if not self.has_exact_derivatives():
            return super().d_alpha(grid)
        p = self._phi_values(grid)
        g = tuple(sample(grid, f) for f in self.grad_phi)
        lp = sample(grid, self.lap_phi)
        d = -lp / p + (g[0] ** 2 + g[1] ** 2 + g[2] ** 2) / p ** 2
        return BQField.from_scalar(grid, d)

    def schrodinger_potential(self, grid: Grid3) -> np.ndarray:
        """The scalar v = lap(phi)/phi the Riccati balance pairs with."""
        if self.lap_phi is None:
            raise ValueError("gradient alpha has no Laplacian callable")
        return sample(grid, self.lap_phi) / self._phi_values(grid)


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def separable_alpha(a1, a2, a3, derivs=None, antiderivs=None) -> SeparableAlpha:
    """Separable spec; each a_k is a callable of x_k or a complex constant.

    Constants get exact derivative (zero) and antiderivative (c*x) filled in
    automatically; callable factors keep whatever is supplied.
    """
    funcs = (a1, a2, a3)
    if derivs is None:
        derivs = [None] * 3
    if antiderivs is None:
        antiderivs = [None] * 3
    derivs = list(derivs)
    antiderivs = list(antiderivs)
    for k, f in enumerate(funcs):
        if not callable(f):
            c = complex(f)
            if derivs[k] is None:
                derivs[k] = lambda x: np.zeros_like(x, dtype=complex)
            if antiderivs[k] is None:
                antiderivs[k] = (lambda cc: (lambda x: cc * x))(c)
    return SeparableAlpha(funcs, derivs, antiderivs)


def constant_alpha(c1, c2, c3) -> SeparableAlpha:
    return separable_alpha(complex(c1), complex(c2), complex(c3))


def axial_alpha(a1, a2=0.0, a3=0.0, grad_a1=None) -> AxialAlpha:
    return AxialAlpha(a1, a2, a3, grad_a1)


def gradient_alpha(phi, grad_phi=None, lap_phi=None) -> GradientAlpha:
    """alpha = grad(phi)/phi.  When phi also has a Laplacian callable, the
    spec satisfies the Riccati balance D(alpha) + alpha**2 = -v with
    v = lap(phi)/phi (see schrodinger_potential)."""
    return GradientAlpha(phi, grad_phi, lap_phi)


def reciprocal_alpha(b=(0.0, 0.0, 0.0)) -> SeparableAlpha:
    """The family a_k(x) = 1/(x - b_k), with exact derivatives and
    antiderivatives log(x - b_k).  Its Riccati potential vanishes: the
    canonical fixture for building solutions from harmonic functions."""
    funcs, derivs, antis = [], [], []
    for bk in b:
        bk = complex(bk)
        funcs.append((lambda c: (lambda x: 1.0 / (x - c)))(bk))
        derivs.append((lambda c: (lambda x: -1.0 / (x - c) ** 2))(bk))
        antis.append((lambda c: (lambda x: np.log((x - c).astype(complex))))(bk))
    return SeparableAlpha(tuple(funcs), tuple(derivs), tuple(antis))
