"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single verdict line and
enforces its wall-clock budget.  Statistical checks use fixed seeds so the
suite is reproducible run to run.
"""

import time

import numpy as np
import pytest

from fbmlab.bounds import decoupling_scaling, factorisation_scaling, lemma_a1_mc, lemma_a1_oracle
from fbmlab.cli import parse_and_dispatch
from fbmlab.covariance import (
    covariance_increment_bound_check,
    determinant_sandwich,
    eigenvalue_bracket,
)
from fbmlab.fbm import (
    GridSpec,
    fgn_autocovariance,
    sample_exact_batch,
    sample_fft_batch,
    substream,
)
from fbmlab.harness import ExperimentPlan, run_rate_experiment
from fbmlab.integrals import indicator_measure
from fbmlab.localtime import moment_oracle, sign_change_estimates

pytestmark = pytest.mark.acceptance


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _budget(num: int, started: float, limit_s: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed <= limit_s, (
        f"criterion {num}: runtime {elapsed:.0f}s over budget {limit_s:.0f}s")


# ---------------------------------------------------------------------------
# 1. generator fidelity
# ---------------------------------------------------------------------------

def _lag_autocov_stats(h, n, paths, seed, max_lag=10, chunk=5000):
    grid = GridSpec(1.0, n)
    s1 = np.zeros(max_lag + 1)
    s2 = np.zeros(max_lag + 1)
    for first in range(0, paths, chunk):
        count = min(chunk, paths - first)
        batch = sample_fft_batch(h, grid, seed, count, 1, first_replicate=first)
        x = np.diff(batch[:, 0, :], axis=1)
        for k in range(max_lag + 1):
            g = (x[:, : n - k] * x[:, k:]).mean(axis=1) if k else (x * x).mean(axis=1)
            s1[k] += g.sum()
            s2[k] += (g ** 2).sum()
    mean = s1 / paths
    var = s2 / paths - mean ** 2
    return mean, np.sqrt(var / paths)


def _second_moment_matrix(sampler, h, grid, paths, seed, chunk=10_000):
    s1 = np.zeros((grid.num_nodes - 1,) * 2)
    s2 = np.zeros_like(s1)
    for first in range(0, paths, chunk):
        count = min(chunk, paths - first)
        b = sampler(h, grid, seed, count, 1, first_replicate=first)[:, 0, 1:]
        s1 += b.T @ b
        s2 += (b ** 2).T @ (b ** 2)
    mean = s1 / paths
    var = s2 / paths - mean ** 2
    return mean, var / paths


def test_criterion_01_generator_fidelity():
    started = time.monotonic()
    n, paths = 1024, 100_000
    worst = 0.0
    for h in (0.55, 0.75, 0.9):
        mean, se = _lag_autocov_stats(h, n, paths, seed=101)
        want = fgn_autocovariance(h, np.arange(11), dt=1.0 / n)
        z = np.abs(mean - want) / se
        worst = max(worst, float(z.max()))
        assert z.max() < 4, f"H={h}: autocovariance off by {z.max():.1f} SE"
    # exact vs circulant cross-check on a 64-node grid
    grid = GridSpec(1.0, 64)
    m_e, v_e = _second_moment_matrix(sample_exact_batch, 0.75, grid, paths, 102)
    m_f, v_f = _second_moment_matrix(sample_fft_batch, 0.75, grid, paths, 103)
    zx = np.abs(m_e - m_f) / np.sqrt(v_e + v_f)
    assert zx.max() < 4, f"cross-check off by {zx.max():.1f} combined SE"
    _budget(1, started, 300)
    _verdict(1, True,
             f"fGn autocov worst |z|={worst:.2f}, cross-check worst "
             f"|z|={zx.max():.2f} (both < 4 SE)")


# ---------------------------------------------------------------------------
# 2. local-time mean oracle
# ---------------------------------------------------------------------------

def test_criterion_02_localtime_mean_oracle():
    started = time.monotonic()
    n, paths, chunk = 4096, 10_000, 2000
    grid = GridSpec(1.0, n)
    lines = []
    ok = True
    for h in (0.51, 0.6, 0.75):
        vals = np.empty(paths)
        for first in range(0, paths, chunk):
            count = min(chunk, paths - first)
            batch = sample_fft_batch(h, grid, 201, count, 1, first_replicate=first)
            vals[first:first + count] = sign_change_estimates(
                h, batch[:, 0], grid, 0.0, grid)
        oracle = moment_oracle(h, 1.0, 0.0, p=1)
        rel = abs(vals.mean() - oracle) / oracle
        se_rel = vals.std(ddof=1) / np.sqrt(paths) / oracle
        lines.append(f"H={h}: mean={vals.mean():.4f} oracle={oracle:.4f} "
                     f"rel={rel:.3%} (se {se_rel:.3%})")
        ok = ok and rel < 0.05
    _budget(2, started, 600)
    _verdict(2, ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 3. second-moment oracle
# ---------------------------------------------------------------------------

def test_criterion_03_second_moment_oracle():
    started = time.monotonic()
    val = moment_oracle(0.5, 1.0, 0.0, p=2)
    ok = abs(val - 1.0) < 1e-3
    _budget(3, started, 60)
    _verdict(3, ok, f"E[L^2] at H=1/2: {val:.6f} (|err| < 1e-3)")


# ---------------------------------------------------------------------------
# 4. rate, i = j
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [0.6, 0.75])
def test_criterion_04_rate_equal_components(h):
    started = time.monotonic()
    plan = ExperimentPlan(
        hurst=h, n_values=(64, 128, 256, 512, 1024, 2048),
        integrand=indicator_measure(0.0), master_seed=401,
    )
    report = run_rate_experiment(plan)
    _budget(4, started, 1800)
    _verdict(4, report.passed,
             f"H={h}: slope={report.slope:.3f} +/- {report.half_width:.3f} "
             f"vs paper {report.paper_slope:.3f}, "
             f"gate <= {report.gate_slope:.3f} "
             f"(M={report.replicates})")


# ---------------------------------------------------------------------------
# 5. rate, i != j: l2 decreasing
# ---------------------------------------------------------------------------

def test_criterion_05_cross_component_decay():
    started = time.monotonic()
    plan = ExperimentPlan(
        hurst=0.75, n_values=(64, 128, 256, 512, 1024, 2048),
        integrand=indicator_measure(0.0), component_pair=(1, 2),
        master_seed=501,
    )
    report = run_rate_experiment(plan)
    l2 = report.l2_error
    down = sum(b < a for a, b in zip(l2, l2[1:]))
    _budget(5, started, 1800)
    _verdict(5, down >= 4,
             f"l2 strictly decreasing on {down}/5 dyadic steps: "
             + ", ".join(f"{x:.4f}" for x in l2))


# ---------------------------------------------------------------------------
# 6. level decay
# ---------------------------------------------------------------------------

def test_criterion_06_level_decay():
    started = time.monotonic()
    # the same replicate substreams serve both levels, isolating the
    # exp(-P a^2/2) level decay from Monte Carlo noise
    l2 = {}
    for a in (0.0, 2.0):
        plan = ExperimentPlan(hurst=0.75, n_values=(128, 256, 512),
                              integrand=indicator_measure(a), replicates=1000,
                              master_seed=601, fine_factor=16)
        l2[a] = run_rate_experiment(plan).l2_error[-1]
    ok = l2[2.0] < l2[0.0]
    _budget(6, started, 600)
    _verdict(6, ok,
             f"l2(a=2)={l2[2.0]:.4f} < l2(a=0)={l2[0.0]:.4f} on paired seeds")


# ---------------------------------------------------------------------------
# 7. crossing-kernel oracle
# ---------------------------------------------------------------------------

def test_criterion_07_crossing_kernel_oracle():
    started = time.monotonic()
    rels = []
    for theta in (0.5, 1.0, 2.0):
        mc = lemma_a1_mc(theta, samples=10 ** 6, seed=701)
        rels.append(abs(mc - lemma_a1_oracle(theta)) / lemma_a1_oracle(theta))
    ok = max(rels) < 0.01
    _budget(7, started, 60)
    _verdict(7, ok, "rel errors vs theta^2/2: "
             + ", ".join(f"{r:.4%}" for r in rels))


# ---------------------------------------------------------------------------
# 8. covariance bound suite
# ---------------------------------------------------------------------------

def test_criterion_08_covariance_bounds():
    started = time.monotonic()
    chk = covariance_increment_bound_check(0.75, trials=100_000, rng_seed=801)
    viol_level = chk["violations"]
    rng = substream(802, 0)
    viol_det = viol_eig = 0
    for _ in range(1000):
        h = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(2, 7))
        incr = rng.uniform(0.01, 1.0, m)
        ts = np.concatenate([[0.0], np.cumsum(incr)])
        if determinant_sandwich(h, ts)["upper_ratio"] > 1 + 1e-12:
            viol_det += 1
        if not eigenvalue_bracket(h, ts)["bracket_ok"]:
            viol_eig += 1
    ok = viol_level == 0 and viol_det == 0 and viol_eig == 0
    _budget(8, started, 120)
    _verdict(8, ok,
             f"increment-level bound {viol_level}/100000, determinant upper "
             f"bound {viol_det}/1000, eigenvalue bracket {viol_eig}/1000 "
             "violations")


# ---------------------------------------------------------------------------
# 9. decoupling scaling
# ---------------------------------------------------------------------------

def test_criterion_09_decoupling_scaling():
    started = time.monotonic()
    levels = [2.0 ** -k for k in range(3, 9)]
    lines = []
    ok = True
    for h in (0.6, 0.75):
        res = factorisation_scaling(h, levels)
        dev = abs(res["slope"] - (2 - 2 * h))
        lines.append(f"theta1 slope H={h}: {res['slope']:.3f} "
                     f"(target {2 - 2 * h:.2f}, dev {dev:.3f})")
        ok = ok and dev <= 0.3
    dec = decoupling_scaling(0.75, [2.0 ** -k for k in range(1, 7)],
                             mc_samples=200_000, seed=901)
    lines.append(f"decoupled-surrogate status {dec['status']}, "
                 f"slope {dec['slope']:.2f} vs >= {dec['target']:.2f}")
    ok = ok and dec["status"] in ("PASS", "INCONCLUSIVE")
    _budget(9, started, 600)
    _verdict(9, ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 10. determinism across thread counts
# ---------------------------------------------------------------------------

def test_criterion_10_thread_determinism(tmp_path):
    started = time.monotonic()
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("H = 0.75\nn_values = 64,128,256\nreplicates = 200\nseed = 7\n")
    blobs = {}
    for threads in (1, 4):
        d = tmp_path / f"threads{threads}"
        rc = parse_and_dispatch(
            ["--output-dir", str(d), "--quiet", "--threads", str(threads),
             "rate", "--config", str(cfg)])
        assert rc == 0
        blobs[threads] = (d / "rate.csv").read_bytes()
    sim = {}
    for threads in (1, 4):
        d = tmp_path / f"sim{threads}"
        rc = parse_and_dispatch(
            ["--output-dir", str(d), "--quiet", "--threads", str(threads),
             "simulate", "--H", "0.75", "--n", "256", "--seed", "7"])
        assert rc == 0
        sim[threads] = (d / "path.csv").read_bytes()
    ok = blobs[1] == blobs[4] and sim[1] == sim[4]
    _budget(10, started, 300)
    _verdict(10, ok, "rate and simulate CSVs byte-identical for "
             "--threads 1 vs 4 at equal seeds")
