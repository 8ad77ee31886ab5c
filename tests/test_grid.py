import math
import os
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from biquat import grid
from biquat.algebra import Biquaternion, qmul
from biquat.alpha import AlphaSpec, SeparableAlpha, reciprocal_alpha
from biquat.factorization import (ClosedFormFamily, build_solution,
                                  factored_product, factorization_residual)
from biquat.grid import (BQField, Grid3, alpha_arrays, ie1_field, l2, laplacian,
                         laplacian_wide, linf, nabla, nabla_alpha, norms,
                         partial_deriv, reflect_x3, sample)
from biquat.harness import TOL, _order_check


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
    # a fractional node count is refused, not truncated or rounded
    with pytest.raises(ValueError, match="integers"):
        Grid3.box(0, 1, 17.9)
    with pytest.raises(ValueError, match="integers"):
        Grid3(shape=(9.5, 9, 9), origin=(0, 0, 0), spacing=(0.1, 0.1, 0.1))


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
    a0 = SeparableAlpha((0, 0, 0))
    assert (nabla_alpha(f, a0) - nabla(f)).linf() <= TOL


def test_nabla_alpha_reciprocal_one_component_converges():
    # f = e0/((x1-b1)(x2-b2)(x3-b3)) solves the first-order equation exactly
    alf = reciprocal_alpha((0.0, 0.0, 0.0))
    fam = ClosedFormFamily(alf)

    def residual(g):
        f0 = fam.f_values(g, 0)
        return nabla_alpha(BQField.from_scalar(g, f0), alf), linf(f0)

    row = _order_check("nabla_alpha", (box(17), box(33)), residual)
    assert row.passed, row


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


# node counts below, at and across the block height, a non-cubic box with
# a different spacing per axis, and one long in x1 (five blocks)
KERNEL_SHAPES = [(5, 5, 5), (6, 6, 6), (17, 17, 17), (18, 18, 18), (5, 9, 18),
                 (41, 6, 5)]


def _split_in_two(monkeypatch):
    """Split every kernel call of two or more blocks into two runs, on any
    host."""
    monkeypatch.setattr(grid, "_cpus", lambda: 2)
    monkeypatch.setattr(grid, "_RUN_NODES", 1)


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
        ints = np.arange(np.prod(shape)).reshape(shape) % 7
        assert _same(partial_deriv(ints, g, k), partial_deriv(ints.astype(float), g, k))


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


def _kernel_alphas(g, seed):
    """Every kind of alpha the first-order kernels get: the lines of a
    separable alpha, a constant one, a sampled field, an i e1 multiplier
    over a scalar array as the dirac and physics modules build it, and a
    constant biquaternion as four (1, 1, 1) arrays."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(4, *g.shape)) + 1j * rng.normal(size=(4, *g.shape))
    return {
        "separable": reciprocal_alpha((0.0, -1.0, 0.0)),
        "constant": SeparableAlpha((1j, 0.5, -2.0)),
        "field": BQField(g, data),
        "ie1": -ie1_field(g, data[0].real + 0.5j),
        "biquaternion": Biquaternion(0.5, -1j, 2.0, 0.25j).components.reshape(4, 1, 1, 1),
    }


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_first_order_kernels_equal_whole_field_products(shape):
    f = _kernel_field(shape, 15)
    g = f.grid
    for name, alpha in _kernel_alphas(g, 16).items():
        a = alpha_arrays(alpha, g)
        plus = nabla(f).data + qmul(f.data, a)
        minus = nabla(f).data - qmul(f.data, a)
        u = BQField(g, minus)
        product = nabla(u).data + qmul(u.data, a)
        assert _same(nabla_alpha(f, alpha).data, plus), name
        assert _same(build_solution(f, alpha).data, minus), name
        assert _same(factored_product(f, alpha).data, product), name


@pytest.mark.parametrize("check", [
    test_partial_deriv_matches_gradient_reference,
    test_nabla_matches_reference,
    test_laplacians_match_reference,
    test_first_order_kernels_equal_whole_field_products,
], ids=["partial_deriv", "nabla", "laplacians", "first_order"])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_split_kernels_match_references(shape, check, monkeypatch):
    # the checks above, every call of two or more blocks split in two runs
    _split_in_two(monkeypatch)
    check(shape)


def test_split_runs_cover_the_blocks_on_two_threads(monkeypatch):
    _split_in_two(monkeypatch)
    seen = []
    run = grid._run

    def spy(block, region, blocks, temps):
        seen.append((threading.get_ident(), blocks))
        run(block, region, blocks, temps)

    monkeypatch.setattr(grid, "_run", spy)
    nabla(_kernel_field((41, 6, 5), 18))
    assert len({thread for thread, _ in seen}) == 2
    assert [b for _, blocks in seen for b in blocks] == [(1, 9), (9, 17), (17, 25), (25, 33),
                                                         (33, 40)]


def test_split_runs_keep_the_callers_error_state(monkeypatch):
    # inf - inf in d1 f1 on the planes of the second run only
    _split_in_two(monkeypatch)
    f = _kernel_field((41, 6, 5), 19)
    f.data[1, 30:] = np.inf
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        nabla(f)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(nabla(f).data[0, 35, 2, 2])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_split_kernels(monkeypatch):
    # the child inherits the parent's pool object but not its thread
    _split_in_two(monkeypatch)
    f = _kernel_field((41, 6, 5), 20)
    want = nabla(f).data
    assert grid._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(20)
            code = 0 if _same(nabla(f).data, want) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def _traced_peak(call) -> int:
    """Bytes call() holds at its peak, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_first_order_calls_hold_few_fields(monkeypatch):
    # the product f * alpha is added per block, never as a whole field:
    # a factor holds its output and a factorization residual three fields,
    # with the calls split in two runs, each with its own temporaries
    monkeypatch.setattr(grid, "_cpus", lambda: 2)
    g = Grid3.box(1.0, 2.0, 65)
    rng = np.random.default_rng(17)
    f = BQField(g, rng.normal(size=(4, *g.shape)) + 1j * rng.normal(size=(4, *g.shape)))
    phi = np.sin(g.mesh()[0])
    alf = reciprocal_alpha()
    limits = {
        "nabla_alpha": (lambda: nabla_alpha(f, alf), 1.5),
        "build_solution": (lambda: build_solution(f, alf), 1.5),
        "factored_product": (lambda: factored_product(f, alf), 2.5),
        "factorization_residual": (lambda: factorization_residual(alf, phi, 0.0, g), 4.0),
        "laplacian": (lambda: laplacian(f), 1.5),
        "laplacian_wide": (lambda: laplacian_wide(f), 1.5),
    }
    for name, (call, fields) in limits.items():
        peak = _traced_peak(call) / f.data.nbytes
        assert peak <= fields, f"{name} held {peak:.2f} fields"


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
