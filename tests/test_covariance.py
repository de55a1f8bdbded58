"""Increment covariance matrices and their structural certificates."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmlab.covariance import (
    COV_CHECK_BLOCK,
    covariance_increment_bound_check,
    determinant_sandwich,
    eigenvalue_bracket,
    factorisation_error,
    increment_cov,
    increment_level_bound_constant,
)
from fbmlab.fbm import as_hurst, fbm_covariance, substream


def test_windows_reject_degenerate():
    # a zero-length increment, or one that starts before time 0
    with pytest.raises(ValueError):
        increment_cov(0.7, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        increment_cov(0.7, [-0.1, 0.5])


def test_increment_cov_rejects_non_increasing_times():
    for ts in ([0.0, 0.7, 0.3], [0.4], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            increment_cov(0.7, ts)


def test_increment_cov_entries_match_direct_formula():
    ts = np.array([0.0, 0.4, 0.9, 1.0])
    cov = increment_cov(0.7, ts)
    # entry (i, j) = E[(B_{t_{i+1}} - B_{t_i})(B_{t_{j+1}} - B_{t_j})]
    for i in range(3):
        for j in range(3):
            want = (
                fbm_covariance(0.7, ts[i + 1], ts[j + 1])
                - fbm_covariance(0.7, ts[i + 1], ts[j])
                - fbm_covariance(0.7, ts[i], ts[j + 1])
                + fbm_covariance(0.7, ts[i], ts[j])
            )
            assert cov[i, j] == pytest.approx(want, abs=1e-14)


def test_increment_cov_diagonal_is_length_power():
    ts = [0.0, 0.2, 0.9]
    cov = increment_cov(0.8, ts)
    np.testing.assert_allclose(np.diag(cov), np.diff(ts) ** 1.6, rtol=1e-13)


def test_brownian_increments_are_uncorrelated():
    cov = increment_cov(0.5, [0.0, 0.3, 0.8, 1.0])
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(
    h=st.floats(0.05, 0.95),
    incr=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
)
def test_determinant_and_eigenvalue_certificates_random(h, incr):
    ts = np.concatenate([[0.0], np.cumsum(incr)])
    sand = determinant_sandwich(h, ts)
    assert not sand["violation"]
    assert sand["upper_ratio"] <= 1 + 1e-9
    eig = eigenvalue_bracket(h, ts)
    assert eig["bracket_ok"]
    assert eig["lambda_min"] > 0


# ---------------------------------------------------------------------------
# the small/large determinant factorisation
# ---------------------------------------------------------------------------

def test_factorisation_errors_shrink_with_h():
    vals = [abs(factorisation_error(0.75, h)) for h in (0.2, 0.05, 0.0125)]
    assert vals[0] > vals[1] > vals[2]


def test_factorisation_trivial_at_brownian():
    # at H = 1/2 increments are independent: theta1 keeps only the O(h)
    # term of absorbing the small increment into the merged large one
    assert abs(factorisation_error(0.5, 0.1)) == pytest.approx(0.1 / 1.1, abs=1e-10)


def test_factorisation_error_rejects_h_outside_unit_interval():
    for h in (0.0, -0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            factorisation_error(0.75, h)


def test_increment_level_bound_small_sample():
    res = covariance_increment_bound_check(0.75, trials=2000, rng_seed=5)
    assert res["violations"] == 0
    assert res["max_ratio"] <= res["beta"] + 1e-12


def test_increment_level_bound_constant_is_sharp():
    # the ratio at u, v -> t/2 attains beta = 2^{2-2H} H; without that
    # constant the inequality fails there
    from fbmlab.covariance import increment_level_bound_constant

    h, t, d = 0.75, 0.8, 1e-6
    beta = increment_level_bound_constant(h)
    assert beta > 1
    lhs = abs(fbm_covariance(h, t / 2 + d, t) - fbm_covariance(h, t / 2 - d, t))
    ratio = lhs / (t ** (2 * h - 1) * 2 * d)
    assert ratio > 1
    assert ratio == pytest.approx(beta, rel=1e-4)


def test_increment_level_bound_requires_rough_regime():
    with pytest.raises(ValueError):
        covariance_increment_bound_check(0.4, trials=10, rng_seed=0)


def _whole_array_bound_check(h, trials, rng_seed):
    """The certificate as one draw of every triple at once: all t, then
    all (u, v) pairs from the same stream."""
    h = as_hurst(h)
    beta = increment_level_bound_constant(h)
    rng = substream(rng_seed, 0)
    t = rng.uniform(0, 1, trials)
    pair = rng.uniform(0, 1, (trials, 2))
    u = np.minimum(pair[:, 0], pair[:, 1])
    v = np.maximum(pair[:, 0], pair[:, 1])
    lhs = np.abs(fbm_covariance(h, v, t) - fbm_covariance(h, u, t))
    scale = t ** (2 * h.value - 1) * (v - u)
    bad = lhs > beta * scale + 1e-12
    ratio = np.where(scale > 0, lhs / np.maximum(scale, 1e-300), 0.0)
    return {"violations": int(bad.sum()), "max_ratio": float(ratio.max()),
            "beta": beta}


@pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("trials", [1, COV_CHECK_BLOCK - 1, COV_CHECK_BLOCK,
                                    COV_CHECK_BLOCK + 1, 100_000])
def test_blocked_bound_check_equals_the_whole_array_draw(h, trials):
    # seed 801 is criterion 08's; equality is exact, max_ratio to the bit
    blocked = covariance_increment_bound_check(h, trials, 801)
    assert blocked == _whole_array_bound_check(h, trials, 801)


def test_bound_check_rejects_a_non_integer_trial_count():
    with pytest.raises(TypeError, match="trials"):
        covariance_increment_bound_check(0.75, 2.5, 0)
    with pytest.raises(ValueError, match="trials"):
        covariance_increment_bound_check(0.75, 0, 0)


def test_bound_check_memory_does_not_grow_with_trials():
    # one block of triples is about 0.8 MB traced; 10^6 triples drawn at
    # once are 74 MB
    tracemalloc.start()
    try:
        covariance_increment_bound_check(0.75, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


# VmHWM is the peak RSS since exec.  ru_maxrss will not do: Linux carries
# the spawning process's peak across exec, so under pytest it reads at
# least pytest's own peak
_VERIFY_COV_PEAK_SCRIPT = """
import sys, tempfile
from fbmlab.cli import parse_and_dispatch

with tempfile.TemporaryDirectory() as out:
    rc = parse_and_dispatch(["--quiet", "--output-dir", out, "verify-bounds",
                             "--suite", "cov", "--samples", sys.argv[1]])
assert rc == 0, rc
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_verify_bounds_cov_peak_does_not_grow_with_samples():
    # each run in a fresh interpreter; 10^6 triples drawn at once add
    # about 76 MB to the peak of 10^3
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    peaks = []
    for samples in ("1000", "1000000"):
        proc = subprocess.run(
            [sys.executable, "-c", _VERIFY_COV_PEAK_SCRIPT, samples],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout))
    growth_kib = peaks[1] - peaks[0]
    assert growth_kib <= 3 * 1024, growth_kib / 1024
