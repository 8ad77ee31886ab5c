import math

import numpy as np
import pytest

from biquat.algebra import Biquaternion
from biquat.alpha import constant_alpha, reciprocal_alpha
from biquat.factorization import one_component_family
from biquat.grid import (BQField, Grid3, l2, linf, nabla, nabla_alpha,
                         reflect_x3, sample)

TOL = 1e-12


def box(n=9, lo=1.0, hi=2.0):
    return Grid3.box(lo, hi, n)


def test_grid_validation():
    with pytest.raises(ValueError, match="too small"):
        Grid3.box(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid3(shape=(9, 9, 9), origin=(0, 0, 0), spacing=(0.0, 1.0, 1.0))


def test_grid_refine_nests():
    g = box(9)
    g2 = g.refine()
    assert g2.shape == (17, 17, 17)
    assert np.allclose(g2.axis(0)[::2], g.axis(0))


def test_x3_symmetry_flag():
    assert Grid3.box((1, 1, -0.5), (2, 2, 0.5), 9).x3_symmetric
    assert not box(9).x3_symmetric


def test_field_shape_validation():
    g = box(5)
    with pytest.raises(ValueError, match="shape"):
        BQField(g, np.zeros((4, 5, 5, 4)))


def test_constant_field_has_zero_derivative():
    g = box(9)
    f = BQField.constant(g, Biquaternion(1, 2, 3, 4))
    assert nabla(f).linf() <= TOL


def test_nabla_alpha_zero_alpha_is_nabla():
    g = box(9)
    rng = np.random.default_rng(1)
    f = BQField(g, rng.normal(size=(4, 9, 9, 9)))
    a0 = constant_alpha(0, 0, 0)
    assert (nabla_alpha(f, a0) - nabla(f)).linf() <= TOL


def test_nabla_alpha_reciprocal_one_component_converges():
    # f = e0/((x1-b1)(x2-b2)(x3-b3)) solves the first-order equation exactly
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    fam = one_component_family(alf)
    errs = {}
    for n in (17, 33):
        g = box(n)
        f = BQField.from_scalar(g, fam.f_values(g, 0))
        errs[n] = nabla_alpha(f, alf).linf() / linf(fam.f_values(g, 0))
    ratio = errs[17] / errs[33]
    assert 1.7 <= math.log(ratio, 2) <= 2.3


def test_alpha_pole_detection():
    g = Grid3.box(-1.0, 1.0, 9)  # grid crosses the poles at the origin
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="pole"):
        alf.components(g)


def test_reflection_requires_symmetric_grid():
    f = BQField.zeros(box(9))
    with pytest.raises(ValueError, match="not node-exact"):
        reflect_x3(f)


def test_reflection_involutive_and_odd():
    g = Grid3.box((1, 1, -0.5), (2, 2, 0.5), 9)
    rng = np.random.default_rng(3)
    f = BQField(g, rng.normal(size=(4, 9, 9, 9)))
    assert (reflect_x3(reflect_x3(f)) - f).linf() == 0.0
    x3f = BQField.from_scalar(g, lambda a, b, c: c)
    assert (reflect_x3(x3f) + x3f).linf() <= TOL


def test_norms_ignore_invalid_rim():
    g = box(9)
    f = BQField.from_scalar(g, lambda a, b, c: a)
    d = nabla(f)  # NaN rim, interior exactly e1
    assert abs(d.linf() - 1.0) <= TOL
    interior_nodes = 7 ** 3
    assert abs(d.l2() ** 2 - interior_nodes * g.cell_volume) <= 1e-10
    with pytest.raises(ValueError, match="no valid nodes"):
        linf(np.full((4, 9, 9, 9), np.nan))


def test_l2_requires_grid_for_arrays():
    with pytest.raises(ValueError, match="grid"):
        l2(np.ones((3, 3, 3)))


def test_field_quaternion_products():
    g = box(5)
    rng = np.random.default_rng(5)
    a = BQField(g, rng.normal(size=(4, 5, 5, 5)) + 1j * rng.normal(size=(4, 5, 5, 5)))
    b = BQField(g, rng.normal(size=(4, 5, 5, 5)))
    prod = a * b
    idx = (2, 3, 1)
    pa = Biquaternion(*a.data[(slice(None),) + idx])
    pb = Biquaternion(*b.data[(slice(None),) + idx])
    assert (pa * pb - Biquaternion(*prod.data[(slice(None),) + idx])).abs_max() <= TOL
    # scalar-array multiplication acts componentwise from either side
    w = np.real(a.data[0])
    assert ((w * b).data == (b * w).data).all()


def test_general_alpha_kind():
    from biquat.alpha import general_alpha
    g = box(9)
    alf = general_alpha(lambda a, b, c: (b * c, a * c, a * b))
    x1, x2, x3 = g.mesh()
    assert linf(alf.vector_field(g).data[1] - x2 * x3) <= TOL
    # no derivative callables, so D(alpha) is central differences: the curl
    # of this gradient field is 0
    assert not alf.has_exact_derivatives()
    dal = alf.d_alpha(g)
    assert linf(np.nan_to_num(dal.data[1:], nan=0.0)) <= 1e-10
    f = BQField.from_scalar(g, lambda a, b, c: a + b)
    assert np.isfinite(nabla_alpha(f, alf).linf())


def test_field_conj():
    g = box(5)
    f = BQField.from_components(g, 1.0, lambda a, b, c: a, 2j, 0.5)
    c = f.conj()
    assert linf(c.data[0] - f.data[0]) == 0.0
    assert linf(c.data[1] + f.data[1]) == 0.0


def test_sample_constant_broadcast():
    g = box(5)
    arr = sample(g, 2.5 - 1j)
    assert arr.shape == g.shape
    assert np.all(arr == 2.5 - 1j)
