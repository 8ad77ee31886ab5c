"""Per-layer tracing of biquat from outside the package.

``Tracer.install()`` replaces the public functions of the traced modules,
the sampling methods of the alpha specs, the ``AxialOperators`` methods,
the suite functions and ``VerificationReport.write_csv`` with wrappers
that record one span per call: name, grid size n, start, end, parent and
bytes computed from array shapes.  The modules import one another by name
(``from .grid import nabla``), so every ``biquat.*`` namespace that holds
an original is rebound.  ``scipy.sparse.linalg`` is swapped for a copy
with wrapped ``splu``/``lgmres`` only where ``factorization`` looks it up.
``uninstall()`` restores every original.  Spans stay in memory;
``layer_table()`` aggregates them once the traced passes are done.
"""

from __future__ import annotations

import inspect
import sys
import types
from time import perf_counter

import numpy as np

# module -> layer group of each public function (default: "<module>.other")
FUNCTION_GROUPS = {
    "grid": {
        "partial_deriv": "grid.partial_deriv", "nabla": "grid.nabla",
        "nabla_alpha": "grid.nabla_alpha", "laplacian": "grid.laplacian",
        "laplacian_wide": "grid.laplacian_wide", "sample": "grid.sample",
        "linf": "grid.norms", "l2": "grid.norms", "norms": "grid.norms",
        "rel_linf": "grid.norms",
    },
    "algebra": {"qmul": "algebra.qmul"},
    "alpha": {},
    "factorization": {
        "right_inverse": "factorization.right_inverse",
        "potentials": "factorization.potentials",
        "riccati_residual": "factorization.residuals",
        "factorization_residual": "factorization.residuals",
        "axial_operators": "factorization.axial",
        "pi_map": "factorization.axial",
        "zero_divisor_reduction": "factorization.axial",
    },
    "dirac": None,     # every public function is one group: "dirac"
    "physics": None,   # likewise "physics"
}

# the methods that sample an alpha spec onto a grid
ALPHA_SAMPLING = ("components", "vector_field", "alpha_sq", "deriv_components",
                  "d_alpha", "antideriv_components")

# layers whose rows are keyed by the grid's n
KEYED_GROUPS = ("grid.partial_deriv", "grid.nabla", "grid.nabla_alpha",
                "grid.laplacian", "grid.laplacian_wide", "grid.sample",
                "grid.norms", "algebra.qmul", "alpha.sampling")


def _grid_n(args, kwargs):
    """Nodes along the last axis of the first grid, field or 3-D array
    argument; 0 for calls on single biquaternions."""
    for a in (*args, *kwargs.values()):
        shape = getattr(getattr(a, "grid", a), "shape", ())
        if len(shape) >= 3:
            return int(shape[-1])
    return 0


def _nbytes(obj):
    """Bytes of the arrays in obj (ndarray, BQField, tuple of them)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    data = getattr(obj, "data", None)
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class Tracer:
    """Span recorder plus the patch list that installs it into biquat."""

    def __init__(self):
        # span: [name, group, n, start, end, parent, bytes_in_out]
        self.spans = []
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.splu_fill_nnz = 0
        self.component_solves = 0
        self.solver_residual_max = 0.0

    # ---------------------------------------------------------------- spans
    def wrap(self, name, group, fn, on_return=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, group, _grid_n(args, kwargs), perf_counter(), 0.0,
                   stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            rec[6] = _nbytes(out) + sum(_nbytes(a) for a in args)
            if on_return is not None:
                on_return(out)
            return out

        return traced

    # -------------------------------------------------------------- install
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "biquat" and not modname.startswith("biquat."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def _on_splu(self, lu):
        self.splu_fill_nnz += int(lu.nnz)

    def _on_right_inverse(self, result):
        self.component_solves += int(result.u.data.shape[0])
        self.solver_residual_max = max(self.solver_residual_max,
                                       float(result.solver_residual))

    def install(self):
        import biquat  # noqa: F401  (loads every submodule)
        from biquat import alpha, factorization, harness

        hooks = {"right_inverse": self._on_right_inverse}
        for modname, groups in FUNCTION_GROUPS.items():
            mod = sys.modules[f"biquat.{modname}"]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                group = modname if groups is None else groups.get(fname, f"{modname}.other")
                wrapper = self.wrap(f"{modname}.{fname}", group, fn, hooks.get(fname))
                self._rebind_everywhere(fn, wrapper)

        for cls in (alpha.AlphaSpec, *alpha.AlphaSpec.__subclasses__()):
            self._wrap_methods(cls, lambda m: "alpha.sampling" if m in ALPHA_SAMPLING
                               else "alpha.other")
        self._wrap_methods(factorization.AxialOperators,
                           lambda m: "factorization.axial", dunder=("__init__",))
        self._wrap_methods(factorization.PotentialSet,
                           lambda m: "factorization.potentials")

        for suite, fn in list(harness.SUITES.items()):
            self._set_item(harness.SUITES, suite,
                           self.wrap(f"harness.{suite}", f"harness.{suite}", fn))
        report = harness.VerificationReport
        self._set(report, "write_csv", self.wrap("harness.write_csv", "harness.write_csv",
                                                 report.write_csv))

        sla = factorization.sla
        proxy = types.SimpleNamespace(**vars(sla))
        proxy.splu = self.wrap("scipy.splu", "factorization.splu", sla.splu, self._on_splu)
        proxy.lgmres = self.wrap("scipy.lgmres", "factorization.lgmres", sla.lgmres)
        self._set(factorization, "sla", proxy)

    def _wrap_methods(self, cls, group_of, dunder=()):
        for mname, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or (mname.startswith("_") and mname not in dunder):
                continue
            name = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{mname}"
            self._set(cls, mname, self.wrap(name, group_of(mname), fn))

    def _set_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ aggregate
    def layer_table(self):
        """{group or group.n<N>: {calls, s, self_s, nodes, bytes}}."""
        child_time = [0.0] * len(self.spans)
        for name, group, n, t0, t1, parent, nb in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table = {}
        for i, (name, group, n, t0, t1, parent, nb) in enumerate(self.spans):
            keys = [group]
            if group in KEYED_GROUPS:
                keys.append(f"{group}.n{n}")
            for key in keys:
                row = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                             "nodes": 0, "bytes": 0})
                row["calls"] += 1
                row["s"] += t1 - t0
                row["self_s"] += t1 - t0 - child_time[i]
                row["nodes"] += n ** 3
                row["bytes"] += nb
        return table
