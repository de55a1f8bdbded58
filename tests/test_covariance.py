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
    R3_MULTIPLIERS,
    _increment_covariance,
    _r3_points,
    covariance_increment_bound_check,
    determinant_sandwich,
    eigenvalue_bracket,
    factorisation_error,
    increment_cov,
    increment_level_bound_constant,
)
from fbmlab.bounds import factorisation_scaling
from fbmlab.fbm import as_hurst, fbm_covariance


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


def _increment_cov_one_vector(h, ts):
    # increment_cov before it was built for stacked time vectors
    hu = as_hurst(h)
    a1, a2 = ts[:-1], ts[1:]
    mat = (fbm_covariance(hu, a1[:, None], a1[None, :])
           - fbm_covariance(hu, a1[:, None], a2[None, :])
           - fbm_covariance(hu, a2[:, None], a1[None, :])
           + fbm_covariance(hu, a2[:, None], a2[None, :]))
    return 0.5 * (mat + mat.T)


def _factorisation_error_one_level(hurst, h):
    # factorisation_error as it was before the levels were stacked: its
    # own 3x3 and 2x2 pipeline for one h
    hu = as_hurst(hurst)
    ts = np.array([0.0, 1.0, 1.0 + h, 2.0 + h])
    sign, logdet = np.linalg.slogdet(_increment_cov_one_vector(hu, ts))
    signp, logdetp = np.linalg.slogdet(_increment_cov_one_vector(hu, ts[[0, 1, 3]]))
    assert sign > 0 and signp > 0
    small = np.diff(ts)[1] ** (2 * hu.value)
    return float(np.exp(logdet - logdetp - np.log(small))) - 1.0


@pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9])
@pytest.mark.parametrize("levels", [
    [2.0**-k for k in range(3, 10)],  # verify-bounds' default h-grid
    [0.3, 0.01, 0.2, 0.05, 0.001],
])
def test_stacked_factorisation_is_bit_identical_to_one_level(hurst, levels):
    ts = np.array([0.0, 1.0, 1.3, 2.3, 2.5])
    assert increment_cov(hurst, ts).tobytes() == \
        _increment_cov_one_vector(hurst, ts).tobytes()
    res = factorisation_scaling(hurst, levels)
    assert res["h"] == sorted(levels)
    want = [_factorisation_error_one_level(hurst, h) for h in res["h"]]
    assert [v.hex() for v in res["theta1"]] == [v.hex() for v in want]
    assert [factorisation_error(hurst, h).hex() for h in res["h"]] == \
        [v.hex() for v in want]
    slope = float(np.polyfit(np.log2(res["h"]), np.log2(np.abs(want)), 1)[0])
    assert res["slope"].hex() == slope.hex()


@pytest.mark.parametrize("size, label", [(3, "Sigma"), (2, "Sigma'")])
def test_factorisation_errors_name_the_matrix(monkeypatch, size, label):
    cond, slogdet = np.linalg.cond, np.linalg.slogdet

    def ill_conditioned(mats):
        c = cond(mats)
        return c if mats.shape[-1] != size else np.where(
            np.arange(len(c)) == 1, 1e13, c)

    def indefinite(mats):
        sign, logdet = slogdet(mats)
        return (sign if mats.shape[-1] != size else -sign), logdet

    levels = [0.25, 0.125, 0.0625]
    monkeypatch.setattr(np.linalg, "cond", ill_conditioned)
    with pytest.raises(ValueError, match=(f"^{label} condition number "
                                          "1.000e.13 exceeds limit at h = 0.125$")):
        factorisation_scaling(0.75, levels)
    monkeypatch.setattr(np.linalg, "cond", cond)
    monkeypatch.setattr(np.linalg, "slogdet", indefinite)
    with pytest.raises(ValueError, match=(f"^{label} has a non-positive "
                                          "determinant at h = 0.0625$")):
        factorisation_scaling(0.75, levels)


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
    """The certificate on every point at once: element
    (rng_seed mod 2^32) 2^32 + i of the R3 sequence for i = 1..trials."""
    h = as_hurst(h)
    beta = increment_level_bound_constant(h)
    k = (np.arange(1, trials + 1, dtype=np.uint64)
         + np.uint64(rng_seed % 2**32 * 2**32))
    t, x2, x3 = ((k * np.uint64(a) >> np.uint64(11)).view(np.int64) * 2.0**-53
                 for a in R3_MULTIPLIERS)
    u = np.minimum(x2, x3)
    v = np.maximum(x2, x3)
    lhs = np.abs(_increment_covariance(h, u, v, t))
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


def test_r3_points_match_integer_arithmetic():
    for seed in (0, 801, 2**32 + 801):
        pts = _r3_points(seed, COV_CHECK_BLOCK - 3, 6)
        for n in range(6):
            k = (seed % 2**32) * 2**32 + COV_CHECK_BLOCK - 2 + n
            want = [(k * a % 2**64 >> 11) * 2.0**-53 for a in R3_MULTIPLIERS]
            assert pts[:, n].tolist() == want


def test_r3_points_depend_on_the_seed_alone():
    np.testing.assert_array_equal(_r3_points(7, 0, 1000), _r3_points(7, 0, 1000))
    assert not np.any(_r3_points(0, 0, 1000) == _r3_points(1, 0, 1000))
    # seeds congruent mod 2^32 share a stretch of the sequence
    np.testing.assert_array_equal(_r3_points(2**32 + 7, 0, 1000),
                                  _r3_points(7, 0, 1000))


def test_r3_points_cover_the_cube_evenly():
    # 10^5 pseudo-random points stray about 115 from N/64 in some bin
    n = 100_000
    pts = _r3_points(801, 0, n)
    for coord in pts:
        counts = np.bincount((coord * 64).astype(int), minlength=64)
        assert np.max(np.abs(counts - n / 64)) <= 16
    cells = (pts * 4).astype(int)
    counts = np.bincount(cells[0] * 16 + cells[1] * 4 + cells[2], minlength=64)
    assert np.max(np.abs(counts - n / 64)) <= 80


def test_r3_multipliers_are_the_inverse_powers_of_the_root():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        g = mpmath.findroot(lambda x: x**4 - x - 1, 1.22)
        want = tuple(int(mpmath.floor(mpmath.mpf(2)**64 / g**j))
                     for j in (1, 2, 3))
    assert R3_MULTIPLIERS == want


def test_increment_covariance_matches_the_covariance_difference():
    n = 10_000
    t, x2, x3 = _r3_points(3, 0, n)
    u, v = np.minimum(x2, x3), np.maximum(x2, x3)
    for h in (0.55, 0.75, 0.95):
        got = _increment_covariance(h, u, v, t)
        want = fbm_covariance(h, v, t) - fbm_covariance(h, u, t)
        scale = t ** (2 * h - 1) * (v - u)
        assert np.all(np.abs(got - want) <= 1e-11 * scale)
        # no t^{2H} to cancel: exactly 0 on the diagonal
        assert np.all(_increment_covariance(h, u, u, t) == 0)


def test_bound_check_rejects_a_non_integer_trial_count():
    with pytest.raises(TypeError, match="trials"):
        covariance_increment_bound_check(0.75, 2.5, 0)
    with pytest.raises(ValueError, match="trials"):
        covariance_increment_bound_check(0.75, 0, 0)


def test_bound_check_rejects_a_negative_or_non_integer_seed():
    with pytest.raises(ValueError, match="rng_seed"):
        covariance_increment_bound_check(0.75, 10, -1)
    with pytest.raises(TypeError):
        covariance_increment_bound_check(0.75, 10, 1.5)


def test_bound_check_memory_does_not_grow_with_trials():
    # one block of triples is about 0.9 MB traced; 10^6 triples at once
    # are 74 MB
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
