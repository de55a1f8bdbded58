"""Workloads of the fbmlab benchmark.

Each workload is a fixed-size pass of work driven through fbmlab's public
API and its CLI entry ``fbmlab.cli.parse_and_dispatch``.  A pass is a list
of operations; every operation is checked, and one that raises, exits
non-zero or fails its check is counted as failed.  An oracle that raises
its documented "quadrature achieved relative tolerance" error has kept its
converge-or-raise contract: it is counted as declined, not as failed.

Inputs come from the benchmark seed only.  Sizes are fixed per workload;
``tiny=True`` selects the small sizes the self-tests use.

All fbmlab calls go through module attributes (``fbm.sample_fft_batch``,
``cli.parse_and_dispatch``, ...) looked up at call time, so the wrappers
that ``tracing`` installs see them.
"""

from __future__ import annotations

import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import fbmlab.bounds as bounds
import fbmlab.cli as cli
import fbmlab.fbm as fbm
import fbmlab.localtime as localtime

H = 0.75
# harness worker threads for the timed rate runs; the machine has 2 CPUs
THREADS = 2
UNCONVERGED = "quadrature achieved relative tolerance"


class Declined(Exception):
    """An operation that kept its contract by refusing to answer."""


@dataclass
class PassResult:
    items: int = 0
    attempted: int = 0
    failed: int = 0
    declined: int = 0
    notes: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def op(self, name, fn):
        """Run one operation; a raise or a failed check marks it failed."""
        self.attempted += 1
        try:
            return fn()
        except Declined as exc:
            self.declined += 1
            self.notes.append(f"{name}: declined: {exc}")
        except Exception as exc:  # operation boundary: record and go on
            self.failed += 1
            msg = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.notes.append(f"{name}: failed: {msg}")
        return None


def derive_seed(seed: int, k: int) -> int:
    """The k-th fbmlab master seed made from the benchmark seed."""
    return random.Random(seed * 1_000_003 + k).randrange(2**31)


def closed_form_first_moment(h: float, t: float = 1.0) -> float:
    """E[L_t(0)] = t^{1-H} / ((1-H) sqrt(2 pi)), independent of fbmlab."""
    return t ** (1 - h) / ((1 - h) * math.sqrt(2 * math.pi))


def read_csv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def _run_cli(argv, out_dir, result: PassResult) -> None:
    """Run one CLI call writing into ``out_dir``; counts the bytes it wrote."""
    os.makedirs(out_dir, exist_ok=True)
    rc = cli.parse_and_dispatch(["--quiet", "--output-dir", out_dir] + argv)
    _require(rc == 0, f"fbmlab {' '.join(argv)} exited {rc}")
    written = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
    result.outputs["cli_bytes"] = result.outputs.get("cli_bytes", 0) + written


class Workload:
    """Shared plumbing: a working directory and a counter of CLI calls."""

    name = ""
    # harness threads of the timed runs, or None when the workload has none
    threads = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._calls = 0
        os.makedirs(workdir, exist_ok=True)

    def fresh_dir(self, label: str) -> str:
        self._calls += 1
        return os.path.join(self.workdir, f"{self._calls:04d}-{label}")

    def setup(self) -> None:
        """Fill the caches the first timed call would pay for."""

    def reference(self, result: PassResult):
        """Extra untimed run whose outputs the timed passes are checked
        against; returns its wall time, or None when there is none."""
        return None

    def run_pass(self) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# rate experiments through `fbmlab rate`
# ---------------------------------------------------------------------------

class RateWorkload(Workload):
    """`fbmlab rate` at fixed replicates; rate.csv must not depend on
    --threads (the 1-thread reference run gives the expected bytes)."""

    threads = THREADS
    pair = "11"
    config = {}
    tiny_config = {}
    check_pass_column = False

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        cfg = dict(self.tiny_config if tiny else self.config)
        self.replicates = int(cfg["replicates"])
        self.n_rows = len(cfg["n_values"].split(","))
        self.fine_n = int(cfg["n_values"].split(",")[-1]) * int(cfg["fine_factor"])
        self.config_path = os.path.join(workdir, "rate.cfg")
        with open(self.config_path, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())
        self.expected = None

    def setup(self):
        # embedding spectrum of the fine grid, as the first chunk would fill it
        fbm.sample_fft_batch(H, fbm.GridSpec(1.0, self.fine_n), 0, 1, 1)

    def _rate(self, threads: int, result: PassResult):
        out = self.fresh_dir(f"rate-t{threads}")
        argv = ["--threads", str(threads), "rate", "--config", self.config_path,
                "--seed", str(derive_seed(self.seed, 0)), "--pair", self.pair]
        _run_cli(argv, out, result)
        path = os.path.join(out, "rate.csv")
        with open(path, "rb") as fh:
            blob = fh.read()
        rows = read_csv(path)
        _require(len(rows) == self.n_rows, f"rate.csv has {len(rows)} rows")
        for row in rows:
            l2, se = float(row["l2_error"]), float(row["stderr"])
            _require(math.isfinite(l2) and l2 > 0, f"l2_error {row['l2_error']}")
            _require(math.isfinite(se) and se >= 0, f"stderr {row['stderr']}")
            _require(int(row["replicates"]) == self.replicates, "replicate count")
            if self.check_pass_column:
                _require(row["pass"] == "True", f"pass column is {row['pass']}")
        return blob

    def reference(self, result):
        started = time.perf_counter()
        self.expected = result.op("rate --threads 1", lambda: self._rate(1, result))
        return time.perf_counter() - started

    def run_pass(self):
        result = PassResult(items=self.replicates)

        def op():
            blob = self._rate(THREADS, result)
            _require(self.expected is not None and blob == self.expected,
                     f"rate.csv at --threads {THREADS} differs from --threads 1")

        result.op(f"rate --threads {THREADS}", op)
        return result


class RateCrossing(RateWorkload):
    """Criterion 04: indicator at a=0, pair 11, fine sign-change reference."""

    name = "rate_crossing"
    pair = "11"
    check_pass_column = True
    config = {"H": H, "n_values": "64,128,256,512,1024", "level": 0.0,
              "replicates": 1200, "reference": "fine_sign_change",
              "fine_factor": 16}
    tiny_config = {"H": H, "n_values": "16,32,64,128", "level": 0.0,
                   "replicates": 200, "reference": "fine_sign_change",
                   "fine_factor": 16}


class RateCrossRiemann(RateWorkload):
    """Criterion 05: pair 12 (i != j), fine Riemann reference, few long
    2-component paths (fine_n = 131072, embedding m = 262144)."""

    name = "rate_cross_riemann"
    pair = "12"
    config = {"H": H, "n_values": "64,128,256,512", "replicates": 128,
              "reference": "fine_riemann", "fine_factor": 256}
    tiny_config = {"H": H, "n_values": "16,32,64", "replicates": 16,
                   "reference": "fine_riemann", "fine_factor": 16}


# ---------------------------------------------------------------------------
# short paths: criterion 01 shapes and the localtime CLI
# ---------------------------------------------------------------------------

class ShortPaths(Workload):
    """Many short paths, where per-replicate costs dominate."""

    name = "short_paths"
    n_fft = 1024
    n_exact = 64
    max_lag = 10
    chunk = 2000
    # `fbmlab localtime --levels -1,...` is rejected by argparse, which reads
    # the leading '-' as an option; the '=' form below works.  This is a CLI
    # defect (src/fbmlab/cli.py), recorded here and not fixed by the benchmark.
    levels_arg = "--levels=-1,-0.5,0,0.5,1"
    n_levels = 5

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.fft_paths = 500 if tiny else 5000
        self.exact_paths = 2000 if tiny else 5000
        self.cli_replicates = 50 if tiny else 1500

    def setup(self):
        # embedding spectrum (n=1024) and the 64-node Cholesky factor
        fbm.sample_fft_batch(H, fbm.GridSpec(1.0, self.n_fft), 0, 1, 1)
        fbm.sample_exact_batch(H, fbm.GridSpec(1.0, self.n_exact), 0, 1, 1)

    def _fft_autocov(self):
        """Lag 0..10 sample autocovariance of the increments against
        fgn_autocovariance; every |z| must be below 4."""
        n, lags = self.n_fft, self.max_lag
        grid = fbm.GridSpec(1.0, n)
        seed = derive_seed(self.seed, 1)
        s1 = np.zeros(lags + 1)
        s2 = np.zeros(lags + 1)
        for first in range(0, self.fft_paths, self.chunk):
            count = min(self.chunk, self.fft_paths - first)
            batch = fbm.sample_fft_batch(H, grid, seed, count, 1, first_replicate=first)
            x = np.diff(batch[:, 0, :], axis=1)
            for k in range(lags + 1):
                g = (x[:, : n - k] * x[:, k:]).mean(axis=1)
                s1[k] += g.sum()
                s2[k] += (g * g).sum()
        mean = s1 / self.fft_paths
        se = np.sqrt((s2 / self.fft_paths - mean**2) / self.fft_paths)
        want = fbm.fgn_autocovariance(H, np.arange(lags + 1), dt=1.0 / n)
        z = np.abs(mean - want) / se
        _require(bool(np.all(z < 4)), f"fGn autocovariance |z| = {z.max():.2f} >= 4")

    def _exact_moments(self):
        """Second moments of exact paths against fbm_covariance, |z| < 4."""
        grid = fbm.GridSpec(1.0, self.n_exact)
        seed = derive_seed(self.seed, 2)
        b = fbm.sample_exact_batch(H, grid, seed, self.exact_paths, 1)[:, 0, 1:]
        count = len(b)
        mean = b.T @ b / count
        var = (b * b).T @ (b * b) / count - mean**2
        ts = grid.nodes()[1:]
        want = fbm.fbm_covariance(H, ts[:, None], ts[None, :])
        z = np.abs(mean - want) / np.sqrt(var / count)
        _require(bool(np.all(z < 4)), f"exact second moments |z| = {z.max():.2f} >= 4")

    def _localtime(self, estimator, result):
        out = self.fresh_dir(f"localtime-{estimator}")
        argv = ["localtime", "--H", str(H), "--n", str(self.n_fft),
                self.levels_arg, "--estimator", estimator,
                "--replicates", str(self.cli_replicates),
                "--seed", str(derive_seed(self.seed, 3))]
        _run_cli(argv, out, result)
        rows = read_csv(os.path.join(out, "localtime.csv"))
        _require(len(rows) == self.n_levels, f"localtime.csv has {len(rows)} rows")
        for row in rows:
            est, se = float(row["estimate"]), float(row["stderr"])
            _require(math.isfinite(est) and est >= 0, f"estimate {row['estimate']}")
            _require(math.isfinite(se) and se >= 0, f"stderr {row['stderr']}")
        if estimator == "sign":
            at_zero = next(float(r["estimate"]) for r in rows if float(r["a"]) == 0.0)
            oracle = closed_form_first_moment(H)
            result.outputs["sign_bias_rel"] = abs(at_zero - oracle) / oracle

    def run_pass(self):
        result = PassResult(items=self.fft_paths + self.exact_paths
                            + 2 * self.cli_replicates)
        result.op("sample_fft_batch autocovariance", self._fft_autocov)
        result.op("sample_exact_batch second moments", self._exact_moments)
        for estimator in ("sign", "bin"):
            result.op(f"localtime --estimator {estimator}",
                      lambda e=estimator: self._localtime(e, result))
        return result


# ---------------------------------------------------------------------------
# oracles and certificates: no sampling
# ---------------------------------------------------------------------------

SECOND_MOMENT_H06 = 1.6926228


class Oracles(Workload):
    """Quadrature oracles and covariance certificates."""

    name = "oracles"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.p1_levels = (0.0, 0.5, 1.0, 2.0)
        # (H, a); (0.75, 0.5) raises as unconverged at v0.1.0
        self.p2_points = ((0.5, 0.0),) if tiny else (
            (0.5, 0.0), (0.55, 0.0), (0.6, 0.0), (0.75, 0.5))
        self.shift_n = 32 if tiny else 256

    def _p1(self, a, first):
        val = localtime.moment_oracle(H, 1.0, a, 1)
        _require(math.isfinite(val) and val > 0, f"E[L(a={a})] = {val}")
        if a == 0.0:
            want = closed_form_first_moment(H)
            _require(abs(val - want) <= 1e-12 * want, f"E[L(0)] = {val} != {want}")
        first[a] = val

    def _p2(self, h, a, first):
        try:
            val = localtime.moment_oracle(h, 1.0, a, 2)
        except RuntimeError as exc:
            if UNCONVERGED in str(exc):
                raise Declined(str(exc)) from exc
            raise
        m1 = first.get(a) if h == H else (
            closed_form_first_moment(h) if a == 0.0 else None)
        _require(math.isfinite(val) and val > 0, f"E[L^2] = {val}")
        if m1 is not None:
            _require(val >= m1 * m1, f"E[L^2] = {val} < E[L]^2 = {m1 * m1}")
        if h == 0.5 and a == 0.0:
            _require(abs(val - 1.0) <= 1e-3, f"E[L^2] at H=0.5 is {val}, not 1")
        if h == 0.6 and a == 0.0:
            _require(abs(val - SECOND_MOMENT_H06) <= 1e-5,
                     f"E[L^2] at H=0.6 is {val}, not {SECOND_MOMENT_H06}")

    def _shift(self):
        val = bounds.density_shift_integral(H, self.shift_n)
        _require(math.isfinite(val) and val > 0, f"density shift integral {val}")

    def _verify_bounds(self, result):
        out = self.fresh_dir("bounds")
        argv = ["verify-bounds", "--suite", "cov", "--H", str(H),
                "--seed", str(derive_seed(self.seed, 4))]
        _run_cli(argv, out, result)
        rows = read_csv(os.path.join(out, "bounds_cov.csv"))
        checks = {r["check"]: r["value"] for r in rows}
        _require(float(checks["increment_level_bound_violations"]) == 0,
                 "increment-level bound violated")
        _require(math.isfinite(float(checks["theta1_slope"])), "theta1 slope")

    def run_pass(self):
        n_ops = len(self.p1_levels) + len(self.p2_points) + 2
        result = PassResult(items=n_ops)
        first = {}
        for a in self.p1_levels:
            result.op(f"moment_oracle p=1 a={a}", lambda a=a: self._p1(a, first))
        for h, a in self.p2_points:
            result.op(f"moment_oracle p=2 H={h} a={a}",
                      lambda h=h, a=a: self._p2(h, a, first))
        result.op("density_shift_integral", self._shift)
        result.op("verify-bounds --suite cov", lambda: self._verify_bounds(result))
        return result


WORKLOADS = {w.name: w for w in (RateCrossing, RateCrossRiemann, ShortPaths, Oracles)}
