"""Worker process of the fbmlab benchmark.

``run.py`` starts this script in a fresh interpreter, once per set-up
probe and once for the measured run, so that each process's peak memory
and set-up cost belong to one workload:

    python3 benchmarks/worker.py --probe --workload NAME --workdir DIR
    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR

A probe imports fbmlab, fills the workload's caches, prints ``ready`` and
exits.  A measured run repeats the workload's pass until ``--seconds`` have
elapsed and prints one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fbmlab  # noqa: E402

if Path(fbmlab.__file__).resolve().parent != ROOT / "src" / "fbmlab":
    sys.exit(f"fbmlab was imported from {fbmlab.__file__}, not from this checkout")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402


def run_record(workload, seed: int) -> dict:
    """Where and on what the run was made."""
    def git(*cmd):
        # None outside a git checkout, or when git is missing or refuses
        if not (ROOT / ".git").exists():
            return None
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fbmlab": fbmlab.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "threads": workload.threads,
        "seed": seed,
    }


def _add(total: PassResult, part: PassResult) -> None:
    total.attempted += part.attempted
    total.failed += part.failed
    total.declined += part.declined
    total.notes += part.notes


def _timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w0, time.process_time() - c0


def measure(workload, seconds: float, trace: bool):
    """Reference run, then passes until ``seconds`` have elapsed.  With
    tracing, untraced and traced passes alternate."""
    ops = PassResult()
    reference_wall = workload.reference(ops)
    passes, traced = [], []
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        res, wall, cpu = _timed(workload.run_pass)
        _add(ops, res)
        passes.append({"wall_s": wall, "cpu_s": cpu, "items": res.items})
        if trace:
            res, wall, _ = _timed(lambda: tracer.traced_pass(workload.run_pass))
            _add(ops, res)
            traced.append((wall, res.outputs))
        if time.perf_counter() >= deadline:
            break
    out = {
        "passes": passes,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "declined": ops.declined,
        "notes": ops.notes,
    }
    if trace:
        run_s = statistics.median(p["wall_s"] for p in passes)
        metrics, report = tracing.layer_metrics(tracer, workload.threads or 1)
        metrics["harness.thread_speedup"] = (
            reference_wall / run_s if reference_wall is not None else 0.0)
        metrics["localtime.sign_bias_rel"] = statistics.median(
            o.get("sign_bias_rel", 0.0) for _, o in traced)
        metrics["cli.bytes_written"] = statistics.median(
            o.get("cli_bytes", 0) for _, o in traced)
        metrics["trace.overhead_frac"] = statistics.median(w for w, _ in traced) / run_s - 1
        out["layer_metrics"] = metrics
        out["trace_report"] = report
        out["tracer"] = tracer
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    workload.setup()
    if args.probe:
        print("ready", flush=True)
        return 0

    out = measure(workload, args.seconds, bool(args.trace))
    out["record"] = run_record(workload, args.seed)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = out.pop("tracer", None)
    if tracer is not None and args.trace_file:
        with open(args.trace_file, "w") as fh:
            json.dump({"record": out["record"], "report": out["trace_report"],
                       "metrics": out["layer_metrics"],
                       "spans": tracing.spans_json(tracer)}, fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
