"""Benchmark of fbmlab: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload rate_crossing --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): rate_crossing, rate_cross_riemann,
short_paths, oracles.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 1 the
spans of the traced passes are written to .bench_out/ in the checkout.

Set-up time is the median of several probes, each a fresh interpreter
that imports fbmlab, numpy and scipy and fills the workload's caches.  The
measured run is one more fresh interpreter (worker.py), so its peak
resident memory belongs to this workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "answered_ratio": "fraction",
}

PER_LAYER = {
    "fbm.sample_fft_batch.calls": "count",
    "fbm.sample_fft_batch.paths": "count",
    "fbm.sample_fft_batch.self_s": "s",
    "fbm.sample_fft_batch.ns_per_node": "ns",
    "fbm.fft_gflop_computed": "GFLOP",
    "fbm.bytes_computed": "B",
    "fbm.gflop_per_s_computed": "GFLOP/s",
    "fbm.embedding_m": "count",
    "fbm.substream.calls": "count",
    "fbm.substream.s": "s",
    "fbm.substream.us_p50": "us",
    "fbm.substream.us_p99": "us",
    "fbm.sample_exact_batch.calls": "count",
    "fbm.sample_exact_batch.paths": "count",
    "fbm.sample_exact_batch.self_s": "s",
    "fbm.sample_exact_batch.ns_per_node": "ns",
    "integrals.sign_change_error.calls": "count",
    "integrals.sign_change_error.s": "s",
    "integrals.sign_change_error.us_p50": "us",
    "integrals.sign_change_error.us_p99": "us",
    "integrals.crossing_ns_per_node": "ns",
    "integrals.riemann_sum.calls": "count",
    "integrals.riemann_sum.s": "s",
    "integrals.riemann_sum.us_p50": "us",
    "integrals.riemann_sum.us_p99": "us",
    "localtime.sign_change_estimator.calls": "count",
    "localtime.sign_change_estimator.self_s": "s",
    "localtime.binning_estimator.calls": "count",
    "localtime.binning_estimator.s": "s",
    "localtime.sign_bias_rel": "fraction",
    "localtime.moment_oracle.calls": "count",
    "localtime.moment_oracle.p1_s": "s",
    "localtime.moment_oracle.p2_s": "s",
    "localtime.moment_oracle.failed": "count",
    "bounds.density_shift_integral.calls": "count",
    "bounds.density_shift_integral.s": "s",
    "bounds.factorisation_scaling.s": "s",
    "covariance.covariance_increment_bound_check.s": "s",
    "harness.run_rate_experiment.s": "s",
    "harness.fit_rate.s": "s",
    "harness.self_s": "s",
    "harness.chunks": "count",
    "harness.worker_busy_frac": "fraction",
    "harness.thread_speedup": "ratio",
    "cli.parse_and_dispatch.calls": "count",
    "cli.parse_and_dispatch.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "fraction",
}

WORKLOAD_NAMES = ("rate_crossing", "rate_cross_riemann", "short_paths", "oracles")


def child_env() -> dict:
    env = dict(os.environ)
    # harness threads are the only parallelism: BLAS stays single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe_setup(cmd, deadline) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    # readline has no timeout: a timer kills a probe that hangs
    killer = threading.Timer(max(deadline - started, 1.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def run_worker(cmd, deadline) -> dict:
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(setup_times, res) -> dict:
    passes = res["passes"]
    run_s = statistics.median(p["wall_s"] for p in passes)
    answered = res["attempted"] - res["failed"] - res["declined"]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "items_per_s": passes[0]["items"] / run_s,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": res["peak_rss_mb"],
        "answered_ratio": answered / res["attempted"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fbmlab" / "__init__.py").is_file():
        print(f"error: no fbmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--workdir", workdir] + (["--tiny"] if args.tiny else [])
    trace_file = out_root / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        setup_times = [probe_setup(base + ["--probe"], deadline)
                       for _ in range(1 if args.tiny else SETUP_PROBES)]
        res = run_worker(base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace),
                                 "--trace-file", str(trace_file)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("run-record " + json.dumps(res["record"], sort_keys=True))
    for note in res["notes"]:
        print(f"op {note}", file=sys.stderr)
    if args.trace:
        values, units = res["layer_metrics"], PER_LAYER
        report = res["trace_report"]
        print(f"self time by layer and thread over {report['passes']} traced passes "
              f"({report['wall_s']:.3f} s):")
        for name, acct in report["threads"].items():
            print(f"  {name}: "
                  + ", ".join(f"{k}={v:.4f}s" for k, v in acct.items()))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        values, units = end_to_end(setup_times, res), END_TO_END
        print(f"timings are medians: setup_s of {len(setup_times)} probes, "
              f"run_s and cpu_s of {len(res['passes'])} passes")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
