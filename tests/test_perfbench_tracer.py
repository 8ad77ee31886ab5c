"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` times each suite by wrapping the ``SUITES``
values, so a suite must stay a plain call that returns its rows; and
``uninstall`` must put every patched name back.  Its right-inverse hook
reads ``RightInverseResult.u`` and ``.solver_residual``.
"""

import sys
from pathlib import Path

from biquat import factorization, grid, harness
from biquat.harness import SuiteConfig, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_tracer_times_each_layer_and_restores_the_originals():
    nabla, sla, suite = grid.nabla, factorization.sla, harness.SUITES["right-inverse"]
    tracer = Tracer()
    tracer.install()
    try:
        run_suite(SuiteConfig(suite="right-inverse", grids=(9, 17)))
    finally:
        tracer.uninstall()
    table = tracer.layer_table()
    for layer in ("harness.right-inverse", "factorization.right_inverse"):
        assert table[layer]["calls"] > 0 and table[layer]["s"] > 0
    assert grid.nabla is nabla and harness.SUITES["right-inverse"] is suite
    assert factorization.sla is sla
    # the suite makes 8 right_inverse calls of 4 component solves each
    assert tracer.component_solves == 32
    assert 0 < tracer.solver_residual_max <= 1e-10
