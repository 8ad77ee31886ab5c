"""One benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode>

mode ``setup`` stops where the first timed pass would start; ``run``
repeats timed passes until ``seconds`` have passed (at least one);
``trace`` alternates untraced and traced passes (at least one of each).
The last stdout line is a JSON object: the monotonic time at which the
first pass started, every pass's wall time and check counts, ru_maxrss,
and for ``trace`` the per-layer table.  ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import biquat as bq  # noqa: E402  (calls go through bq.* so the tracer sees them)
from biquat import BQField, Grid3  # noqa: E402
from biquat.harness import SUITES, SuiteConfig, VerificationReport, run_suite  # noqa: E402


class VerifyWorkload:
    """The harness path: run_suite per suite name, then write_csv.

    Every pass uses the same seed, so the CSV must be byte-identical
    across passes; every row must pass and the (suite, check) list must
    equal the committed catalog.
    """

    def __init__(self, name, suites, grids, seed):
        with open(os.path.join(ROOT, "perfbench", "catalog.json")) as fh:
            catalog = json.load(fh)
        self.suites = suites
        self.expected = [tuple(sc) for sc in catalog if sc[0] in suites or suites == ["all"]]
        self.cfg = SuiteConfig(grids=grids, seed=seed)
        self.csv_path = os.path.join(OUT_DIR, f"{name}-seed{seed}.csv")
        self.sha = None
        self.n_checks = len(self.expected)

    def inputs(self, i):
        return self.cfg

    def timed(self, cfg):
        rows = []
        for suite in self.suites:
            rows.extend(run_suite(replace(cfg, suite=suite)).rows)
        report = VerificationReport(rows=rows)
        report.write_csv(self.csv_path)
        return report

    def check(self, report):
        got = [(r.suite, r.check) for r in report.rows]
        failed = sum(1 for r in report.rows if not r.passed)
        with open(self.csv_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if got != self.expected or (self.sha is not None and sha != self.sha):
            failed = len(self.expected)
        self.sha = self.sha or sha
        return self.n_checks, failed, {"csv_sha256": sha}


# fixed O(h^2) bounds on the relative L-inf residual over the valid nodes,
# h = 1/(n-1).  Measured residual/h^2 stays within 0.7-1.1 at n = 33, 65
# and 129 over seeds and the all-|k_j| = 2 worst case; an O(h) defect
# would read ~n.  Tighten, never loosen.
CONVERSE_BOUND_H2 = 4.0
FACTORIZATION_BOUND_H2 = 4.0
EXACT_TOL = 1e-12


class Field129Workload:
    """Library-style calls on one 129^3 grid with fresh smooth fields per pass.

    Checks: PotentialSet.pairing_defect is exact; the converse identity
    D_alpha (D - M^alpha) f = sum_k (-lap f_k + v_k f_k) e_k and the scalar
    factorization residual sit under fixed O(h^2) bounds.
    """

    N = 129
    MODES = 3
    KMAX = 2
    n_checks = 3

    def __init__(self, seed):
        self.seed = seed
        self.grid = Grid3.box((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), self.N)

    def _smooth(self, rng):
        """Sum of Fourier modes, built from 1-D factors."""
        axes = self.grid.axes
        acc = np.zeros(self.grid.shape, dtype=complex)
        for _ in range(self.MODES):
            k = rng.integers(-self.KMAX, self.KMAX + 1, size=3)
            c = complex(rng.normal(), rng.normal())
            e = [np.exp(1j * k[j] * axes[j]) for j in range(3)]
            acc += c * (e[0][:, None, None] * e[1][None, :, None] * e[2][None, None, :])
        return acc

    def inputs(self, i):
        rng = np.random.default_rng([self.seed, i])
        f = BQField(self.grid, np.stack([self._smooth(rng) for _ in range(4)]))
        return f, self._smooth(rng)

    def timed(self, fields):
        f, phi = fields
        grid = self.grid
        alpha = bq.reciprocal_alpha()
        lhs = bq.nabla_alpha(bq.build_solution(f, alpha), alpha)
        lap = bq.laplacian(f)
        pots = bq.potentials(alpha, grid)
        rhs = BQField(grid, np.stack([pots.v[k] * f.data[k] - lap.data[k] for k in range(4)]))
        del lap
        converse = bq.norms(lhs - rhs).linf / max(bq.linf(lhs), bq.linf(rhs))
        del lhs, rhs
        pairing = pots.pairing_defect() / max(1.0, bq.linf(pots.alpha_sq))
        res, scale = bq.factorization_residual(alpha, phi, 0.0, grid)
        factorization = bq.norms(res).linf / scale
        return {"converse_rel": converse, "pairing_rel": pairing,
                "factorization_rel": factorization}

    def check(self, out):
        h2 = self.grid.hmax ** 2
        ok = (out["pairing_rel"] <= EXACT_TOL,
              out["converse_rel"] <= CONVERSE_BOUND_H2 * h2,
              out["factorization_rel"] <= FACTORIZATION_BOUND_H2 * h2)
        return self.n_checks, sum(1 for x in ok if not x), out


def make_workload(name, seed):
    if name == "verify-all":
        return VerifyWorkload(name, ["all"], (17, 33), seed)
    if name == "verify-fine":
        return VerifyWorkload(name, [s for s in SUITES if s != "right-inverse"], (33, 65), seed)
    if name == "field-129":
        return Field129Workload(seed)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv):
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = make_workload(name, seed)
    data = wl.inputs(0)
    tracer = None
    if mode == "trace":
        from tracing import Tracer  # perfbench/ is sys.path[0] for this script
        tracer = Tracer()
    t_first = time.monotonic()
    if mode == "setup":
        print(json.dumps({"t_first": t_first}))
        return 0

    passes = []
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.timed(data)
        except Exception:  # a raised exception is a failed pass, not a crash
            traceback.print_exc()
            out = None
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if out is None:
            attempted = failed = wl.n_checks
            info = {"error": True}
        else:
            attempted, failed, info = wl.check(out)
        del out
        passes.append({"s": dt, "traced": traced, "attempted": attempted,
                       "failed": failed, "info": info})
        i += 1
        if time.monotonic() - t_first >= seconds and (tracer is None or i >= 2):
            break
        data = wl.inputs(i)

    result = {"t_first": t_first, "passes": passes,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["counters"] = {"splu_fill_nnz": tracer.splu_fill_nnz,
                              "component_solves": tracer.component_solves,
                              "solver_residual_max": tracer.solver_residual_max}
        with open(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
