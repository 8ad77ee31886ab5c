import math

import numpy as np
import pytest

from biquat.algebra import Biquaternion
from biquat.alpha import AlphaSpec, constant_alpha, reciprocal_alpha
from biquat.factorization import build_solution, factored_product, one_component_family
from biquat.grid import (BQField, Grid3, alpha_arrays, l2, laplacian, laplacian_wide,
                         linf, nabla, nabla_alpha, norms, partial_deriv,
                         reflect_x3, sample)

TOL = 1e-12


def box(n=9, lo=1.0, hi=2.0):
    return Grid3.box(lo, hi, n)


def test_grid_validation():
    with pytest.raises(ValueError, match="too small"):
        Grid3.box(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid3(shape=(9, 9, 9), origin=(0, 0, 0), spacing=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="three entries"):
        Grid3(shape=(9, 9, 9), origin=(0.0, 0.0), spacing=(0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="three entries"):
        Grid3(shape=(9, 9, 9), origin=(0, 0, 0), spacing=(0.1, 0.1, 0.1, 0.5))


@pytest.mark.parametrize("make", [
    lambda: Grid3.box(0.0, (math.nan, 1.0, 1.0), 9),
    lambda: Grid3.box(0.0, (1.0, math.inf, 1.0), 9),
    lambda: Grid3.box((0.0, -math.inf, 0.0), 1.0, 9),
    lambda: Grid3(shape=(9, 9, 9), origin=(math.nan, 0.0, 0.0), spacing=(0.1, 0.1, 0.1)),
], ids=["nan_bound", "inf_bound", "minus_inf_bound", "nan_origin"])
def test_grid_rejects_non_finite_box(make):
    with pytest.raises(ValueError, match="finite"):
        make()


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


# ---------------------------------------------------------------------------
# the blocked kernels against the straightforward formulas they replace
# ---------------------------------------------------------------------------

def _ref_partial_deriv(arr, grid, axis):
    k = axis + arr.ndim - 3
    with np.errstate(invalid="ignore"):  # complex division of NaN entries
        out = np.gradient(arr, grid.spacing[axis], axis=k)
    sl = [slice(None)] * arr.ndim
    for edge in (0, -1):
        sl[k] = edge
        out[tuple(sl)] = np.nan
    return out


def _ref_nabla(data, grid):
    d = [[_ref_partial_deriv(data[c], grid, k) for k in range(3)] for c in range(4)]
    div = d[1][0] + d[2][1] + d[3][2]
    return np.stack([-div,
                     d[0][0] + (d[3][1] - d[2][2]),
                     d[0][1] + (d[1][2] - d[3][0]),
                     d[0][2] + (d[2][0] - d[1][1])])


def _ref_second_difference(data, grid, step):
    inner = slice(step, -step)
    out = np.full_like(data, np.nan)
    c = data[:, inner, inner, inner]
    acc = np.zeros_like(c)
    for axis, h in enumerate(grid.spacing):
        sl_p = [slice(None), inner, inner, inner]
        sl_m = [slice(None), inner, inner, inner]
        sl_p[axis + 1] = slice(2 * step, None)
        sl_m[axis + 1] = slice(0, -2 * step)
        acc = acc + (data[tuple(sl_p)] - 2 * c + data[tuple(sl_m)]) / (step * h) ** 2
    out[:, inner, inner, inner] = acc
    return out


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


# node counts below, at and across the block height, and a non-cubic box
# with a different spacing per axis
KERNEL_SHAPES = [(5, 5, 5), (6, 6, 6), (17, 17, 17), (18, 18, 18), (5, 9, 18)]


def _kernel_field(shape, seed):
    g = Grid3.box((1.0, -0.5, 0.25), (2.0, 0.75, 3.0), shape)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(4, *shape)) + 1j * rng.normal(size=(4, *shape))
    data[1, 2, 2, 2] = np.nan          # interior NaNs spread through stencils
    data[3, -3, 1, -2] = complex(np.nan, 1.0)
    return BQField(g, data)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_partial_deriv_matches_gradient_reference(shape):
    f = _kernel_field(shape, 11)
    g = f.grid
    for k in range(3):
        assert _same(partial_deriv(f.data, g, k), _ref_partial_deriv(f.data, g, k))
        assert _same(partial_deriv(f.data[2], g, k), _ref_partial_deriv(f.data[2], g, k))
        real = np.real(f.data[0])
        assert _same(partial_deriv(real, g, k), _ref_partial_deriv(real, g, k))
        line = g.sample_axis(k, lambda x: np.exp(1j * x) / x)
        assert _same(partial_deriv(line, g, k), _ref_partial_deriv(line, g, k))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_nabla_matches_reference(shape):
    f = _kernel_field(shape, 12)
    assert _same(nabla(f).data, _ref_nabla(f.data, f.grid))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_laplacians_match_reference(shape):
    f = _kernel_field(shape, 13)
    assert _same(laplacian(f).data, _ref_second_difference(f.data, f.grid, 1))
    assert _same(laplacian_wide(f).data, _ref_second_difference(f.data, f.grid, 2))


def test_alpha_arrays_shapes():
    g = box(6)
    lines = alpha_arrays(reciprocal_alpha((0.0, 0.0, 0.0)), g)
    assert [a.shape for a in lines] == [(1, 1, 1), (6, 1, 1), (1, 6, 1), (1, 1, 6)]
    assert alpha_arrays(lines, g) is lines
    field = BQField.zeros(g)
    assert alpha_arrays(field, g) is field.data
    with pytest.raises(ValueError, match="different grids"):
        alpha_arrays(field, box(7))


def test_separable_products_never_materialize_alpha(monkeypatch):
    f = _kernel_field((18, 17, 6), 14)
    g = f.grid
    alf = reciprocal_alpha((0.0, -1.0, 0.0))
    avec = alf.vector_field(g)
    want = {
        "nabla_alpha": nabla_alpha(f, avec),
        "build_solution": build_solution(f, avec),
        "factored_product": factored_product(f, avec),
    }

    def refuse(self, grid):
        raise AssertionError("alpha was materialized on the grid")

    monkeypatch.setattr(AlphaSpec, "vector_field", refuse)
    got = {
        "nabla_alpha": nabla_alpha(f, alf),
        "build_solution": build_solution(f, alf),
        "factored_product": factored_product(f, alf),
    }
    for name in want:
        assert _same(got[name].data, want[name].data), name


@pytest.mark.parametrize("seed", range(8))
def test_norms_equal_nan_reductions(seed):
    # magnitudes over several decades, so that another summation order
    # rounds differently for some of the seeds
    f = _kernel_field((17, 17, 17), seed)
    f = f * np.exp(3.0 * np.random.default_rng(100 + seed).normal(size=f.grid.shape))
    g = f.grid
    want_linf = np.nanmax(np.abs(f.data))
    want_l2 = np.sqrt(np.nansum(np.abs(f.data) ** 2) * g.cell_volume)
    assert linf(f) == want_linf and linf(f.data) == want_linf
    assert l2(f) == want_l2 and l2(f.data, g) == want_l2
    assert norms(f) == (want_linf, want_l2)
    assert norms(f.data, g) == (want_linf, want_l2)


def test_norms_raise_without_a_finite_entry():
    g = box(5)
    for bad in (np.full((4, 5, 5, 5), np.nan),
                np.where(np.arange(125).reshape(5, 5, 5) % 2, np.inf, np.nan)):
        with pytest.raises(ValueError, match="no valid nodes"):
            linf(bad)
        with pytest.raises(ValueError, match="no valid nodes"):
            l2(bad, g)
    # an infinite entry beside finite ones is a norm, not an error
    mixed = np.ones((5, 5, 5))
    mixed[0, 0, 0] = np.inf
    assert linf(mixed) == np.inf and l2(mixed, g) == np.inf
    # |x|**2 overflows: no finite square, so l2 has nothing to sum
    big = np.where(np.arange(125).reshape(5, 5, 5) % 2, 1e200, np.nan)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="no valid nodes"):
        l2(big, g)
    big[0, 0, 0] = 1.0
    with np.errstate(over="ignore"):
        assert l2(big, g) == np.inf


def test_from_components_matches_sampling_each_component():
    g = Grid3.box(1.0, 2.0, (5, 6, 7))
    parts = (lambda a, b, c: a * b - 1j * c, 2.5, g.sample_axis(1, np.sin),
             np.arange(7.0))
    want = np.stack([sample(g, c) for c in parts])
    got = BQField.from_components(g, *parts).data
    assert got.flags.c_contiguous and np.array_equal(got, want)
