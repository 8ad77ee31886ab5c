import numpy as np
import pytest

from biquat.algebra import (BASIS, E0, E1, E2, E3, QMUL_TERMS, Biquaternion,
                            is_zero_divisor, qmul, right_projector,
                            split_projectors, vec_square)
from biquat.harness import TOL


def test_complex_unit_commutes():
    q = Biquaternion(1 + 2j, -3j, 0.5, 4)
    assert ((1j * q) * E2).isclose(1j * (q * E2))
    assert (E2 * (1j * q)).isclose(1j * (E2 * q))


def test_quaternionic_conjugation():
    q = Biquaternion(1, 2, 3, 4)
    assert q.conj() == Biquaternion(1, -2, -3, -4)


def test_involution_sign_pattern():
    q = Biquaternion(1 + 1j, 2, 3 - 2j, 4)
    assert q.involution(1) == Biquaternion(1 + 1j, 2, -3 + 2j, -4)
    assert q.involution(0) == q
    # sandwich form e_k q conj(e_k)
    for k in (1, 2, 3):
        ek = BASIS[k]
        assert q.involution(k).isclose(ek * q * ek.conj())
        assert q.involution(k).involution(k) == q
    with pytest.raises(ValueError):
        q.involution(7)


def test_vec_square_examples():
    assert abs(vec_square(1j * E1) - 1.0) <= TOL
    assert abs(vec_square(E1 + E2) - (-2.0)) <= TOL
    beta = -(1j * E1 + 2 * E2)
    # oracle: the full quaternion square via qmul
    sq = qmul(beta.components, beta.components)
    assert abs(sq[0] - (-3.0)) <= TOL
    assert np.abs(sq[1:]).max() <= TOL
    assert abs(vec_square(beta) - sq[0]) <= TOL


def test_vec_square_rejects_scalar_part():
    with pytest.raises(ValueError):
        vec_square(Biquaternion(1.0, 1.0, 0, 0))


def test_vector_bq_has_no_scalar_part():
    v = Biquaternion.vector(1, 2j, 3)
    assert v.q0 == 0
    assert abs(vec_square(v) - (-(1 + (2j) ** 2 + 9))) <= TOL


def test_is_zero_divisor_examples():
    assert is_zero_divisor(E0 + 1j * E3)
    assert not is_zero_divisor(E1)
    assert is_zero_divisor(Biquaternion(5, 0, 5j, 0))
    with pytest.raises(ValueError):
        is_zero_divisor(E1, tol=0.0)


def test_is_zero_divisor_matches_square_criterion():
    rng = np.random.default_rng(4)
    for _ in range(200):
        q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        crit = (q * q - (2 * q.q0) * q).abs_max() <= 1e-9 * max(1.0, (q * q).abs_max())
        assert is_zero_divisor(q, 1e-9) == crit
        s = complex(rng.normal(), rng.normal())
        k = int(rng.integers(1, 4))
        zd = s * (E0 + 1j * BASIS[k])
        assert is_zero_divisor(zd, 1e-9)


def test_right_projectors():
    q = Biquaternion(1, 2, 3, 4)
    total = q * right_projector(1, 1) + q * right_projector(1, -1)
    assert total.isclose(q)
    assert (E0 * right_projector(1, 1)).isclose(Biquaternion(0.5, 0.5j, 0, 0))
    # e2 (1 + i e1)/2 = (e2 - i e3)/2
    assert (E2 * right_projector(1, 1)).isclose(Biquaternion(0, 0, 0.5, -0.5j))
    for k in (1, 2, 3):
        pp = right_projector(k, 1)
        pm = right_projector(k, -1)
        assert (pp * pp).isclose(pp)
        assert (pp * pm).abs_max() <= TOL
    with pytest.raises(ValueError):
        right_projector(0, 1)
    with pytest.raises(ValueError):
        right_projector(1, 2)


def test_split_projectors_principal_branch():
    pair = split_projectors(-E2)
    assert abs(pair.lam - 1j) <= TOL
    lam_plus_beta = Biquaternion.scalar(pair.lam) + (-E2)
    lhs = lam_plus_beta * lam_plus_beta
    rhs = (2 * pair.lam) * lam_plus_beta
    assert lhs.isclose(rhs)


def test_split_projectors_invariants():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta = Biquaternion.vector(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        pair = split_projectors(beta)
        assert (pair.plus + pair.minus).isclose(E0)
        assert (pair.plus * pair.plus).isclose(pair.plus)
        assert (pair.plus * pair.minus).abs_max() <= TOL
        assert (pair.minus * pair.plus).abs_max() <= TOL
        # conjugate zero divisors
        assert pair.plus.conj().isclose(pair.minus)
        assert is_zero_divisor(pair.plus, 1e-9)


def test_split_projectors_rejects_zero_divisor_beta():
    # the m = omega case: beta**2 = 0
    with pytest.raises(ValueError, match="zero divisor"):
        split_projectors(-(1j * E1 + E2))


def test_immutability():
    q = Biquaternion(1, 2, 3, 4)
    with pytest.raises(ValueError):
        q.components[0] = 9.0


def test_qmul_broadcasts_over_fields():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(4, 3, 3, 3)) + 1j * rng.normal(size=(4, 3, 3, 3))
    q = rng.normal(size=(4, 3, 3, 3)) + 1j * rng.normal(size=(4, 3, 3, 3))
    out = qmul(p, q)
    for idx in ((0, 0, 0), (2, 1, 0), (2, 2, 2)):
        a = Biquaternion(*(p[(slice(None),) + idx]))
        b = Biquaternion(*(q[(slice(None),) + idx]))
        assert (a * b - Biquaternion(*(out[(slice(None),) + idx]))).abs_max() <= TOL


def _qmul_stacked(p, q):
    # the product as four separate components joined by np.stack
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.stack([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3,
        p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
    ])


@pytest.mark.parametrize("kind", ["complex", "real", "field_lines", "constant_field"])
def test_qmul_matches_stacked_formula(kind):
    rng = np.random.default_rng(12)
    n = 5

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "complex":
        p, q = cplx(4), cplx(4)
    elif kind == "real":
        p, q = rng.normal(size=4), rng.normal(size=4)
    elif kind == "field_lines":
        # a field times a separable alpha kept as its three 1-D lines
        p = cplx(4, n, n, n)
        q = (np.zeros((1, 1, 1), dtype=complex), cplx(n, 1, 1), cplx(1, n, 1), cplx(1, 1, n))
    else:
        p, q = cplx(4).reshape(4, 1, 1, 1), cplx(4, n, n, n)
    got, want = qmul(p, q), _qmul_stacked(p, q)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_qmul_terms_table_matches_qmul_on_the_basis():
    # each row of the table is qmul's component k on every basis pair, and
    # starts with a + term, which the blocked kernel writes without a sign
    basis = np.eye(4, dtype=complex)
    for a in range(4):
        for b in range(4):
            want = [sum(s for s, i, j in row if (i, j) == (a, b)) for row in QMUL_TERMS]
            assert np.array_equal(qmul(basis[a], basis[b]), want), (a, b)
    assert all(row[0][0] == 1 for row in QMUL_TERMS)
