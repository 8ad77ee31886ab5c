"""What importing the package loads.  scipy is imported only inside the
functions that call it (the right inverse's Schur form and trsyl, for
complex 1-D operators), so `import biquat` and a solve over real
operators run on numpy alone: scipy would add about 390 modules, 0.3 s
and 30 MB to every process (BENCH_lazy_scipy.json)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.sparse.linalg

import biquat

# right_inverse at 9^3 with the reciprocal alpha (real operators, eigh) and
# with nu(x1) i e1 (axis 1 complex, Schur and trsyl): the sha256 of each
# result's field and u, and whether scipy was loaded after each solve
SOLVES = """
import hashlib, sys
import numpy as np
import biquat, biquat.cli, biquat.harness
from biquat import factorization
from biquat.alpha import SeparableAlpha, reciprocal_alpha
from biquat.grid import BQField, Grid3

g = Grid3.box(1.0, 2.0, 9)
rng = np.random.default_rng(5)
f = BQField(g, rng.standard_normal((4, 9, 9, 9)) + 1j * rng.standard_normal((4, 9, 9, 9)))
zero = lambda x: np.zeros_like(x)
complex_axis = SeparableAlpha((lambda x: 1j * (1.0 + 0.5 * np.sin(3.0 * x)), 0, 0),
                              derivs=(lambda x: 1.5j * np.cos(3.0 * x), zero, zero))
out = {}
for name, alpha in [("real", reciprocal_alpha()), ("complex", complex_axis)]:
    res = factorization.right_inverse(f, alpha)
    out[name] = [hashlib.sha256(a.data.tobytes()).hexdigest() for a in (res.field, res.u)]
    out[name + "_scipy_loaded"] = "scipy" in sys.modules
"""


def test_package_loads_scipy_only_for_a_complex_operator():
    src = os.path.dirname(os.path.dirname(biquat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # the right-inverse suite is the one suite that calls the solver
    script = """
import sys
from biquat import harness
harness.run_suite(harness.SuiteConfig(suite="right-inverse", grids=(9, 17)))
suite_loaded = "scipy" in sys.modules
""" + SOLVES + """
import json, scipy.sparse.linalg
out["suite_scipy_loaded"] = suite_loaded
out["sla"] = factorization.sla is scipy.sparse.linalg
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert fresh["suite_scipy_loaded"] is False
    assert fresh["real_scipy_loaded"] is False
    assert fresh["complex_scipy_loaded"] is True
    assert fresh["sla"] is True
    # this process imported scipy before biquat solved anything: the same
    # solves agree to the bit
    preloaded = {}
    exec(SOLVES, preloaded)
    for name in ("real", "complex"):
        assert fresh[name] == preloaded["out"][name]
    assert scipy.sparse.linalg is preloaded["factorization"].sla


def _module_level_imports(node):
    """The Import/ImportFrom nodes that run when the module is imported:
    every one outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _module_level_imports(child)


def test_no_module_imports_scipy_at_import_time():
    eager = []
    for path in sorted(Path(biquat.__file__).parent.glob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text())):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            eager += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n == "scipy" or n.startswith("scipy.")]
    assert not eager, eager
