"""Complex-quaternion (biquaternion) arithmetic.

Elements of H(C) have the form q = q0 + q1*e1 + q2*e2 + q3*e3 with complex
coefficients q_k.  The basis satisfies e1*e2 = -e2*e1 = e3 (cyclically) and
e_k**2 = -1; the complex unit i of the coefficients commutes with every e_k.

Because <v,v> = v1**2 + v2**2 + v3**2 is bilinear (no complex conjugation),
the algebra contains zero divisors: exactly the q with q0**2 = q_vec**2,
equivalently q**2 = 2*q0*q.  All projector constructions here
(``right_projector``, ``split_projectors``) are built from such elements.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Biquaternion",
    "ProjectorPair",
    "E0",
    "E1",
    "E2",
    "E3",
    "BASIS",
    "INVOLUTION_SIGNS",
    "QMUL_TERMS",
    "ROUNDING_TOL",
    "qmul",
    "vec_square",
    "is_zero_divisor",
    "right_projector",
    "split_projectors",
]


# The quaternion product, the package's one statement of it: row k lists
# component k's terms sign * p_i * q_j as (sign, i, j) in the order they
# are summed, starting with a + term.  qmul sums the rows with operators,
# grid's blocked kernels with out= into block temporaries.
QMUL_TERMS = (
    ((+1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
    ((+1, 0, 1), (+1, 1, 0), (+1, 2, 3), (-1, 3, 2)),
    ((+1, 0, 2), (+1, 2, 0), (+1, 3, 1), (-1, 1, 3)),
    ((+1, 0, 3), (+1, 3, 0), (+1, 1, 2), (-1, 2, 1)),
)


def qmul(p, q):
    """Quaternion product of two component stacks of shape (4, ...), for
    single quaternions and small stacks (whole fields multiply as
    ``BQField``s): each component summed from its row of ``QMUL_TERMS``.
    """
    if len(p) != 4 or len(q) != 4:
        raise ValueError(f"qmul takes stacks of 4 components, got {len(p)} and {len(q)}")
    p, q = tuple(p), tuple(q)  # a tuple indexes faster than an array
    rows = []
    for (_, i, j), *rest in QMUL_TERMS:
        acc = p[i] * q[j]
        for sgn, i, j in rest:
            acc = acc + p[i] * q[j] if sgn > 0 else acc - p[i] * q[j]
        rows.append(acc)
    return np.array(rows)


# sign pattern of the involutions: row k gives the signs that q^(k) applies
# to the vector components (q1, q2, q3)
INVOLUTION_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

# relative tolerance of the package's exact classifications (purely
# vectorial, zero divisor, separable factors): rounding level for values
# of order one
ROUNDING_TOL = 1e-12


class Biquaternion:
    """Immutable complex quaternion.

    Supports +, -, scalar and quaternion *, and / by a complex scalar.
    All operations return new instances; the component array is read-only.
    """

    __slots__ = ("_c",)

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        c = np.array([q0, q1, q2, q3], dtype=complex)
        c.flags.writeable = False
        self._c = c

    @classmethod
    def scalar(cls, value) -> "Biquaternion":
        return cls(value, 0.0, 0.0, 0.0)

    @classmethod
    def vector(cls, v1, v2, v3) -> "Biquaternion":
        return cls(0.0, v1, v2, v3)

    # -- accessors -----------------------------------------------------
    @property
    def components(self) -> np.ndarray:
        return self._c

    @property
    def q0(self) -> complex:
        return complex(self._c[0])

    @property
    def q1(self) -> complex:
        return complex(self._c[1])

    @property
    def q2(self) -> complex:
        return complex(self._c[2])

    @property
    def q3(self) -> complex:
        return complex(self._c[3])

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(*(self._c + other._c))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(*(self._c - other._c))
        return NotImplemented

    def __neg__(self):
        return Biquaternion(*(-self._c))

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(*qmul(self._c, other._c))
        if isinstance(other, (int, float, complex)):
            return Biquaternion(*(self._c * other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Biquaternion(*(self._c * other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Biquaternion(*(self._c / other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Biquaternion):
            return bool(np.array_equal(self._c, other._c))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._c.tolist()))

    def __repr__(self):
        q0, q1, q2, q3 = self._c
        return f"Biquaternion({q0}, {q1}, {q2}, {q3})"

    # -- conjugations and involutions -----------------------------------
    def conj(self) -> "Biquaternion":
        """Quaternionic conjugate q0 - q_vec."""
        return Biquaternion(self._c[0], *(-self._c[1:]))

    def involution(self, k: int) -> "Biquaternion":
        """The involution e_k q conj(e_k); flips the two vector components
        orthogonal to e_k.  k = 0 is the identity."""
        if k not in (0, 1, 2, 3):
            raise ValueError(f"involution index must be one of 0..3, got {k}")
        s1, s2, s3 = INVOLUTION_SIGNS[k]
        c = self._c
        return Biquaternion(c[0], s1 * c[1], s2 * c[2], s3 * c[3])

    def abs_max(self) -> float:
        return float(np.abs(self._c).max())

    def isclose(self, other: "Biquaternion") -> bool:
        """Equal to rounding: relative ROUNDING_TOL, scale floored at 1."""
        scale = max(1.0, self.abs_max(), other.abs_max())
        return bool(np.abs(self._c - other._c).max() <= ROUNDING_TOL * scale)


E0 = Biquaternion(1, 0, 0, 0)
E1 = Biquaternion(0, 1, 0, 0)
E2 = Biquaternion(0, 0, 1, 0)
E3 = Biquaternion(0, 0, 0, 1)
BASIS = (E0, E1, E2, E3)


def vec_square(q: Biquaternion) -> complex:
    """The quaternion square of a purely vectorial q, as a complex scalar.

    Equals -(q1**2 + q2**2 + q3**2); by the multiplication table this is
    exactly Sc(q*q), with Vec(q*q) = 0.  A nonzero scalar part is a
    contract violation and raises.
    """
    if abs(q.q0) > ROUNDING_TOL * max(1.0, q.abs_max()):
        raise ValueError(f"vec_square requires a purely vectorial argument, got Sc = {q.q0}")
    return -(q.q1 ** 2 + q.q2 ** 2 + q.q3 ** 2)


def is_zero_divisor(q: Biquaternion, tol: float = ROUNDING_TOL) -> bool:
    """True iff q0**2 = q_vec**2 within the relative tolerance.

    Equivalent to q**2 = 2*q0*q; such q make up the zero-divisor set.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = q.q0 ** 2
    v = -(q.q1 ** 2 + q.q2 ** 2 + q.q3 ** 2)
    return abs(s - v) <= tol * max(1.0, abs(s) + abs(v))


def right_projector(k: int, sign: int) -> Biquaternion:
    """The multiplier (1 + sign*i*e_k)/2 of the right projector P_k^(sign).

    Right multiplication by this element is idempotent; the two signs give
    mutually complementary, mutually annihilating projections.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"projector axis must be 1, 2 or 3, got {k}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    c = np.zeros(4, dtype=complex)
    c[0] = 0.5
    c[k] = 0.5j * sign
    return Biquaternion(*c)


@dataclass(frozen=True)
class ProjectorPair:
    """Right-multiplier pair (lam +- beta)/(2 lam) with lam**2 = beta**2.

    plus + minus = 1, each is idempotent, and plus*minus = minus*plus = 0;
    right multiplication by them splits H(C)-valued functions into the two
    eigenspaces of right multiplication by beta (eigenvalues +-lam).
    """

    lam: complex
    plus: Biquaternion
    minus: Biquaternion


def split_projectors(beta: Biquaternion) -> ProjectorPair:
    """Build the ProjectorPair for a purely vectorial beta outside the
    zero-divisor set.

    lam is the principal complex square root of beta**2 (branch cut on the
    negative real axis); since the pair appears symmetrically, any fixed
    branch is equivalent.  Raises if beta**2 vanishes within tolerance.
    """
    b2 = vec_square(beta)
    scale = max(1.0, abs(beta.q1) ** 2 + abs(beta.q2) ** 2 + abs(beta.q3) ** 2)
    if abs(b2) <= ROUNDING_TOL * scale:
        raise ValueError("beta is a zero divisor; splitting undefined")
    # adding +0.0 normalizes a signed-zero imaginary part so the principal
    # branch is deterministic
    lam = cmath.sqrt(b2 + 0.0)
    plus = (Biquaternion.scalar(lam) + beta) / (2.0 * lam)
    minus = (Biquaternion.scalar(lam) - beta) / (2.0 * lam)
    return ProjectorPair(lam=lam, plus=plus, minus=minus)
