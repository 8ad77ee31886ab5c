"""The biquat benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each run starts fresh interpreters
(``worker.py``): with ``--trace 0``, SETUP_PROBES that stop where the
first timed pass would start; then one that runs the timed passes.  ``--trace 0`` reports the
``end_to_end`` metrics of BENCHMARK.json, ``--trace 1`` its ``per_layer``
metrics from a run that alternates untraced and traced passes.  Earlier
stdout lines give a readable summary, including ``fail_frac`` and the
verify CSV's sha256; the full per-layer table (every n) is written to
``.bench_out/``.  The exit code is 2 on bad arguments or when the
checkout holds no ``src/biquat``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("verify-all", "verify-fine", "field-129")
SUITES = ("algebra", "calculus", "dirac", "maxwell", "forcefree",
          "factorization", "right-inverse", "axial")
SETUP_PROBES = 4
# one BLAS thread: every workload is one closed-loop caller, and on a
# shared 2-vCPU host a second BLAS thread made verify-all slower and noisier
BLAS_THREADS = 1
DEADLINE_S = 170.0


def spawn(args, deadline):
    """Run one worker; return (its last stdout line as JSON, monotonic spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *map(str, args)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), t_spawn


def end_to_end(res, setups):
    passes = [p["s"] for p in res["passes"]]
    return {"pass_s": statistics.median(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["rss_mb"]}


def per_layer(res):
    """Every per-layer value, per traced pass (layers never entered have no key)."""
    traced = [p["s"] for p in res["passes"] if p["traced"]]
    plain = [p["s"] for p in res["passes"] if not p["traced"]]
    k = len(traced)
    table = res["layers"]

    def row(key, field):
        return table.get(key, {}).get(field, 0) / k

    out = {"trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
           "trace.pass_s": statistics.median(traced)}
    for key, r in table.items():
        self_s = r["self_s"] / k
        out[f"{key}.self_s"] = self_s
        out[f"{key}.s"] = r["s"] / k
        out[f"{key}.calls"] = r["calls"] / k
        out[f"{key}.mnodes_per_s"] = r["nodes"] / k / self_s / 1e6 if self_s > 0 else 0.0
        out[f"{key}.gb_computed"] = r["bytes"] / k / 1e9
        if key.startswith("alpha."):
            out[f"{key}.mb_materialized"] = r["bytes"] / k / 1e6
    counters = res["counters"]
    solves = counters["component_solves"] / k
    out["factorization.splu.fill_nnz"] = counters["splu_fill_nnz"] / k
    out["factorization.component_solves"] = solves
    out["factorization.factor_reuse"] = (1.0 - row("factorization.splu", "calls") / solves
                                         if solves else 0.0)
    out["factorization.solver_residual_max"] = counters["solver_residual_max"]
    out["harness.self_s"] = sum(row(f"harness.{s}", "self_s") for s in SUITES)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "biquat", "__init__.py")):
        print(f"run.py: no src/biquat under {ROOT}", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe, t_spawn = spawn([args.workload, args.seed, args.seconds, "setup"], deadline)
        setups.append(probe["t_first"] - t_spawn)
    mode = "trace" if args.trace else "run"
    res, t_spawn = spawn([args.workload, args.seed, args.seconds, mode], deadline)
    setups.append(res["t_first"] - t_spawn)

    attempted = sum(p["attempted"] for p in res["passes"])
    failed = sum(p["failed"] for p in res["passes"])
    if args.trace:
        values, declared = per_layer(res), spec["per_layer"]
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_out",
                               f"layers-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(values, fh, indent=1, sort_keys=True)
    else:
        values, declared = end_to_end(res, setups), spec["end_to_end"]
    # a layer the workload never enters has no row: it reads 0
    metrics = {m["name"]: {"value": values[m["name"]] if not args.trace
                           else values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    passes = [p["s"] for p in res["passes"] if not p["traced"]]
    summary = {"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
               "fail_frac": {"value": failed / attempted, "unit": "ratio"},
               "pass_s": {"median": statistics.median(passes), "n": len(passes)},
               "setup_s": {"median": statistics.median(setups), "n": len(setups)},
               "checks": [p["info"] for p in res["passes"]]}
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
