"""Coefficient vectors alpha for the first-order equation Df + f*alpha = 0.

Alpha enters in one of two forms.  Known only by its samples, as the
Dirac and Maxwell bridges return it, it is a ``grid.BQField``.  Known in
closed form, it is one of three specs, each built by its class alone:

* separable: alpha = a1(x1) e1 + a2(x2) e2 + a3(x3) e3, each factor a
  function of its own coordinate (constants included).  This is the shape
  under which the second-order factorization diagonalizes into four scalar
  operators, and the only one with closed-form one-component solutions.
* axial: alpha = a1(x1,x2,x3) e1 + a2 e2 + a3 e3 with constant a2, a3.
* gradient: alpha = grad(phi)/phi for a given scalar phi.

Specs sample as ``grid._on_mesh`` does, evaluating only along the axes a
value reads: a constant stays (1, 1, 1), a callable of x2 alone a
(1, n2, 1) line; a separable factor is the line of its own axis.  Only a
central difference's stencil gets an array of grid.shape (``grid.sample``).

Specs carry optional exact derivative/antiderivative callables.  Each
spec is the one place that decides where its derivatives come from:
``d_alpha`` (and ``SeparableAlpha.deriv_components``) is exact when
``has_exact_derivatives()`` is true and uses central differences, with an
invalid one-node rim, otherwise.
"""

from __future__ import annotations

import numpy as np

from .algebra import E1, qmul
from .grid import (BQField, Grid3, _check_finite, _negate, _on_mesh, nabla, partial_deriv,
                   sample)

__all__ = [
    "AlphaSpec",
    "SeparableAlpha",
    "AxialAlpha",
    "GradientAlpha",
    "reciprocal_alpha",
]

def _negated_sum(x1, x2, x3, out=None) -> np.ndarray:
    """-((x1 + x2) + x3), into out when given: alpha**2 from the squared
    components of a vector alpha, and the scalar D(alpha) from the three
    derivative lines a_k' of a separable one."""
    return _negate(np.add(x1 + x2, x3, out=out))


def _three(entries, what: str) -> tuple | None:
    """entries as a tuple (None kept); ValueError unless there are three."""
    if entries is not None and len(entries := tuple(entries)) != 3:
        raise ValueError(f"{what} takes three entries, got {len(entries)}")
    return entries


def _times_e1(grad) -> np.ndarray:
    """D(alpha) = (D a1) e1 of an axial alpha as four arrays, from d_k a1."""
    return qmul((0j, *grad), E1.components)


class AlphaSpec:
    """Base interface; concrete kinds implement components()."""

    def components(self, grid: Grid3):
        """Three complex arrays (a1, a2, a3) broadcasting to grid.shape."""
        raise NotImplementedError

    def vector_field(self, grid: Grid3) -> BQField:
        a1, a2, a3 = self.components(grid)
        return BQField.from_vector(grid, a1, a2, a3)

    def alpha_sq(self, grid: Grid3) -> np.ndarray:
        """The scalar field alpha**2 = -(a1**2 + a2**2 + a3**2)."""
        a1, a2, a3 = self.components(grid)
        return _negated_sum(a1 ** 2, a2 ** 2, a3 ** 2)

    def d_alpha(self, grid: Grid3) -> BQField:
        """D(alpha): scalar part -div, vector part curl.  Exact when
        has_exact_derivatives(), central differences otherwise; this base
        body is the central-difference one, ``nabla`` of the sampled
        vector field, with its one-node invalid rim on every component."""
        return nabla(self.vector_field(grid))

    def has_exact_derivatives(self) -> bool:
        return False


class SeparableAlpha(AlphaSpec):
    """alpha = a1(x1) e1 + a2(x2) e2 + a3(x3) e3; each factor a_k is a
    callable of x_k or a complex constant.

    A constant factor c gets the exact derivative 0 and the antiderivative
    c*x unless the caller supplies one; a callable factor keeps whatever is
    supplied.  So ``SeparableAlpha((c1, c2, c3))`` is a constant alpha with
    exact derivatives and antiderivatives.
    """

    def __init__(self, funcs, derivs=None, antiderivs=None):
        self.funcs = tuple(funcs)
        derivs = list(derivs) if derivs is not None else [None] * 3
        antiderivs = list(antiderivs) if antiderivs is not None else [None] * 3
        if not len(self.funcs) == len(derivs) == len(antiderivs) == 3:
            raise ValueError("separable alpha takes three factors, and three "
                             "derivatives and antiderivatives when given")
        for k, f in enumerate(self.funcs):
            if not callable(f):
                c = complex(f)
                if derivs[k] is None:
                    derivs[k] = lambda x: np.zeros_like(x, dtype=complex)
                if antiderivs[k] is None:
                    antiderivs[k] = lambda x, c=c: c * x
        self.derivs = tuple(derivs)
        self.antiderivs = tuple(antiderivs)

    def components(self, grid: Grid3):
        return _check_finite(tuple(grid.sample_axis(k, fn) for k, fn in enumerate(self.funcs)))

    def has_exact_derivatives(self) -> bool:
        return all(d is not None for d in self.derivs)

    def deriv_components(self, grid: Grid3):
        """The three lines a_k'(x_k): exact when has_exact_derivatives(),
        central differences of the sampled factors otherwise."""
        if not self.has_exact_derivatives():
            comps = self.components(grid)
            return tuple(partial_deriv(comps[k], grid, k) for k in range(3))
        return _check_finite(tuple(grid.sample_axis(k, fn) for k, fn in enumerate(self.derivs)),
                             "alpha derivative")

    def d_alpha(self, grid: Grid3) -> BQField:
        # D(alpha) of a separable alpha is the scalar -sum_k a_k'(x_k)
        return BQField.from_scalar(grid, _negated_sum(*self.deriv_components(grid)))

    def has_antiderivatives(self) -> bool:
        return all(a is not None for a in self.antiderivs)

    def antideriv_components(self, grid: Grid3):
        if not self.has_antiderivatives():
            raise ValueError("missing antiderivative for separable alpha")
        return _check_finite(tuple(grid.sample_axis(k, f) for k, f in enumerate(self.antiderivs)),
                             "alpha antiderivative")


class AxialAlpha(AlphaSpec):
    """alpha = a1(x1,x2,x3) e1 + a2 e2 + a3 e3 with constant a2, a3 (0 by
    default); grad_a1 optionally supplies the three exact d_k a1.  a1 and
    each d_k a1 are callables of the open mesh (x1, x2, x3) or constants."""

    def __init__(self, a1, a2: complex = 0.0, a3: complex = 0.0, grad_a1=None):
        self.a1 = a1
        self.a2 = complex(a2)
        self.a3 = complex(a3)
        self.grad_a1 = _three(grad_a1, "grad_a1")

    def components(self, grid: Grid3):
        return _check_finite(tuple(_on_mesh(grid, a) for a in (self.a1, self.a2, self.a3)))

    def has_exact_derivatives(self) -> bool:
        return self.grad_a1 is not None

    def grad_a1_components(self, grid: Grid3):
        """The three arrays d_k a1, exact if supplied, else central differences."""
        if self.grad_a1 is None:
            (a1,) = _check_finite([sample(grid, self.a1)])
            return tuple(partial_deriv(a1, grid, k) for k in range(3))
        return _check_finite(tuple(_on_mesh(grid, g) for g in self.grad_a1), "alpha derivative")

    def d_alpha(self, grid: Grid3) -> BQField:
        # D(a1 e1) = (D a1) e1; a numeric gradient carries an invalid rim
        return BQField.from_components(grid, *_times_e1(self.grad_a1_components(grid)))


class GradientAlpha(AlphaSpec):
    """alpha = grad(phi)/phi for a scalar phi, with optional exact grad_phi
    and lap_phi; each a callable of the open mesh or a constant.  With
    lap_phi the spec satisfies the Riccati balance D(alpha) + alpha**2 = -v
    with v = lap(phi)/phi (see schrodinger_potential)."""

    def __init__(self, phi, grad_phi=None, lap_phi=None):
        self.phi = phi
        self.grad_phi = _three(grad_phi, "grad_phi")
        self.lap_phi = lap_phi

    def _phi_values(self, grid: Grid3) -> np.ndarray:
        p = _on_mesh(grid, self.phi)
        if np.any(np.abs(p) == 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("zero of phi on grid: gradient alpha undefined")
        return p

    def components(self, grid: Grid3):
        p = self._phi_values(grid)
        if self.grad_phi is not None:
            g = _check_finite(tuple(_on_mesh(grid, f) for f in self.grad_phi), "grad phi")
        else:
            full = sample(grid, p)
            g = tuple(partial_deriv(full, grid, k) for k in range(3))
        return tuple(gk / p for gk in g)

    def has_exact_derivatives(self) -> bool:
        return self.grad_phi is not None and self.lap_phi is not None

    def d_alpha(self, grid: Grid3) -> BQField:
        # D(grad phi / phi) = -lap(phi)/phi + <grad phi, grad phi>/phi**2,
        # a pure scalar: the curl of a gradient vanishes identically.
        if not self.has_exact_derivatives():
            return super().d_alpha(grid)
        p = self._phi_values(grid)
        g = tuple(_on_mesh(grid, f) for f in self.grad_phi)
        lp = _on_mesh(grid, self.lap_phi)
        d = -lp / p + (g[0] ** 2 + g[1] ** 2 + g[2] ** 2) / p ** 2
        _check_finite([d], "alpha derivative")
        return BQField.from_scalar(grid, d)

    def schrodinger_potential(self, grid: Grid3) -> np.ndarray:
        """The scalar v = lap(phi)/phi the Riccati balance pairs with.
        Raises ValueError when it is not finite at a node."""
        if self.lap_phi is None:
            raise ValueError("gradient alpha has no Laplacian callable")
        (v,) = _check_finite([_on_mesh(grid, self.lap_phi) / self._phi_values(grid)], "v")
        return v


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
