"""f2quad benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one solve at a time; the next solve starts when
the previous one returns.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last line of standard output is the JSON result; the line before it
is the full run record, also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_THREADS = 1           # fixed, and never above the core count
SETUP_REPS = 5             # setup_s is the median of this many set-ups
WORKLOAD_NAMES = ("fq-noisy-n6", "fq-callable-n7", "favg-codim2-n6",
                  "decompose-n4")


def pin_environment() -> None:
    """Fix the BLAS thread count before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving ROOT."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": git_commit(), "seed": seed}


def plant_all(workload, seed: int):
    return [workload.plant(seed, i) for i in range(workload.instances)]


def setup_probe(name: str, seed: int) -> float:
    """Import the package and plant the fixed instance list, timed."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    plant_all(WORKLOADS[name], seed)
    return time.perf_counter() - t0


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up times of SETUP_REPS fresh interpreters (imports are cached
    after the first one in a process)."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def solve_one(workload, inst, tracer=None):
    """Solve one instance; with a tracer, record spans over the timed
    solve only (the exact checks run untraced)."""
    oracle = workload.make_oracle(inst)
    if tracer is None:
        res, error, secs = workload.timed_solve(inst, oracle, time.perf_counter)
    else:
        with tracer.solve(inst.index, oracle):
            res, error, secs = workload.timed_solve(inst, oracle,
                                                    time.perf_counter)
    return workload.outcome(inst, oracle, res, error, secs)


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))   # nearest-rank percentile
    return {"percentile": pct, "value": sorted(values)[rank - 1], "samples": n}


# end-to-end metrics gated by BENCHMARK.json (steady across seeds), and
# the per-solve figures whose spread is dominated by attempt luck: those
# are printed in every run record and reported, ungated, by the traced
# run as "solve.<name>"
GATED = ("setup_s", "queries_per_s", "success_rate", "corr_exact_mean",
         "residual_u3_mean", "peak_rss_mb")
LUCK = ("solve_s_p50", "solves_per_min", "queries_per_solve",
        "attempts_per_solve")


def solve_metrics(fixed, timed) -> dict:
    """Counts from the fixed instance list, times and quality from every
    timed solve."""
    secs = [o.seconds for o in timed]
    k = len(fixed)
    return {
        "solve_s_p50": (statistics.median(secs), "s"),
        "solves_per_min": (60.0 * len(secs) / sum(secs), "1/min"),
        "queries_per_s": (sum(o.queries for o in timed) / sum(secs), "1/s"),
        "queries_per_solve": (sum(o.queries for o in fixed) / k, "count"),
        "attempts_per_solve": (sum(o.attempts for o in fixed) / k, "count"),
        "success_rate": (sum(o.success for o in fixed) / k, "ratio"),
        "corr_exact_p50": (statistics.median(o.corr_exact for o in timed), "corr"),
        "corr_exact_mean": (statistics.mean(o.corr_exact for o in timed), "corr"),
        "residual_u3_p50": (statistics.median(o.residual_u3 for o in timed), "norm"),
        "residual_u3_mean": (statistics.mean(o.residual_u3 for o in timed), "norm"),
    }


def peak_rss_mb() -> tuple[float, str]:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"


def per_layer(tracer, fixed, traced) -> tuple[dict, dict]:
    from layers import METRICS
    from spans import SpanStats
    stats = SpanStats(tracer.names, tracer.columns(), len(traced))
    metrics = {name: (fn(stats), unit) for name, unit, fn in METRICS}
    base = statistics.median(o.seconds for o in fixed)
    metrics["trace.solve_s"] = (stats.total_s("solve"), "s")
    metrics["trace.untraced_solve_s_p50"] = (base, "s")
    metrics["trace.overhead"] = (
        statistics.median(o.seconds for o in traced) / base, "ratio")
    untraced = solve_metrics(fixed, fixed)
    metrics.update({f"solve.{k}": untraced[k] for k in LUCK})
    spans_per_solve = {name: stats.per_solve_count(name) for name in tracer.names}
    return metrics, spans_per_solve


def failed(o) -> bool:
    return o.error is not None or o.bottom or not o.success


def run(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    setup_times = measure_setup(args.workload, args.seed)
    instances = plant_all(workload, args.seed)

    start = time.perf_counter()
    fixed = [solve_one(workload, inst) for inst in instances]
    timed = list(fixed)
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), "seconds": args.seconds,
              "instances": workload.instances}
    errors = [f"instance {o.index}: {e}" for o in fixed for e in o.invariant_errors]

    if args.trace:
        from layers import probes
        from spans import Tracer
        tracer = Tracer()
        with tracer.installed(probes(workload.tau_accept)):
            traced = [solve_one(workload, inst, tracer) for inst in instances]
        for u, t in zip(fixed, traced):
            if u.counts() != t.counts():
                errors.append(f"instance {u.index}: traced solve differs "
                              f"from untraced: {t.counts()} != {u.counts()}")
        result, spans_per_solve = per_layer(tracer, fixed, traced)
        os.makedirs(OUT, exist_ok=True)
        span_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        record["spans_written"] = tracer.write_jsonl(span_file)
        record["spans_per_solve"] = spans_per_solve
        everything = dict(result)
    else:
        index = workload.instances
        while time.perf_counter() - start < args.seconds:
            o = solve_one(workload, workload.plant(args.seed, index))
            errors += [f"instance {o.index}: {e}" for e in o.invariant_errors]
            timed.append(o)
            index += 1
        everything = solve_metrics(fixed, timed)
        everything["setup_s"] = (statistics.median(setup_times), "s")
        everything["peak_rss_mb"] = peak_rss_mb()
        result = {k: everything[k] for k in GATED}
        record["solve_s_tail"] = tail([o.seconds for o in timed])

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record.update(
        timed_solves=len(timed), setup_times=setup_times,
        solves=[[o.index, o.seconds, o.queries, o.attempts, o.success,
                 o.corr_exact, o.residual_u3, list(o.step_corrs)] for o in timed],
        failed_solves=[{"index": o.index, "error": o.error, "bottom": o.bottom}
                       for o in timed if failed(o)],
        u3_over_eps=sum(o.u3_over_eps for o in timed),
        invariant_errors=errors, metrics=as_json(everything))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": len(timed),
                      "failed": sum(failed(o) for o in timed),
                      "metrics": as_json(result)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "f2quad")):
        print(f"error: no f2quad sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
