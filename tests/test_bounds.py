"""Decoupling surrogate, scaling regressions and Gaussian identities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from fbmlab.bounds import (
    _step2_eval,
    _step2_inner,
    _step2_times,
    decoupling_scaling,
    density_shift_integral,
    factorisation_scaling,
    lemma_a1_mc,
    lemma_a1_oracle,
    lemma_a2_check,
    surrogate_expectation,
    true_expectation,
)

H_LEVELS = [2.0 ** -k for k in range(1, 7)]


def test_step2_functional_is_well_formed():
    ts = _step2_times(0.1)
    assert len(ts) == 4
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    out = _step2_eval(np.zeros((5, 3)), 0.1)
    assert out.shape == (5,)


def test_experiment_validation():
    with pytest.raises(ValueError):
        decoupling_scaling(0.4, H_LEVELS, mc_samples=1000)  # H <= 1/2
    with pytest.raises(ValueError):
        decoupling_scaling(0.75, H_LEVELS, mc_samples=10)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            decoupling_scaling(0.75, H_LEVELS[:4] + [bad], mc_samples=1000)
    for a in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="a must be finite"):
            decoupling_scaling(0.75, H_LEVELS, a=a, mc_samples=1000)
    # a slope through one point is no slope
    for levels in ([0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(ValueError, match="2 distinct h levels"):
            factorisation_scaling(0.75, levels)


def test_step2_inner_matches_scipy_normal_tail():
    # (theta^2 - eps^2) P(Z > c) + theta^2 c phi(c), c = eps / theta, with the
    # tail and density from scipy.  The two terms cancel to about 2/c^2 of
    # their size at large c, so the gap is bounded relative to the terms.  On
    # c <= 5 (criterion 09 at H = 0.75, h >= 2^-6) it is also bounded
    # relative to the value; the CLI's default h = 2^-9 reaches c = 21, where
    # the two forms differ by 2e-11 of the value and both miss it by 1e-11.
    for theta in np.geomspace(1e-2, 10.0, 13):
        for c in np.geomspace(1e-3, 30.0, 61):
            eps = c * theta
            terms = [(theta**2 - eps**2) * norm.sf(c), theta**2 * c * norm.pdf(c)]
            want = sum(terms)
            gap = abs(_step2_inner(theta, eps) - want)
            assert gap <= 1e-13 * (abs(terms[0]) + abs(terms[1])), (theta, c)
            if c <= 5.0:
                assert gap <= 1e-13 * want, (theta, c)
    assert _step2_inner(0.0, 0.1) == 0.0


def test_step2_inner_matches_50_digit_reference():
    # the closed form in 50-digit arithmetic, at the float inputs themselves:
    # no cancellation is left, so the gap is bounded relative to the value
    # up to c = 30, where the terms cancel to 2e-3 of their size
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for theta in np.geomspace(1e-2, 10.0, 13):
            for c in np.geomspace(1e-3, 30.0, 61):
                eps = c * theta
                th, e = mp.mpf(theta), mp.mpf(eps)
                cm = e / th
                want = ((th**2 - e**2) * mp.erfc(cm / mp.sqrt(2)) / 2
                        + th**2 * cm * mp.exp(-cm**2 / 2) / mp.sqrt(2 * mp.pi))
                gap = abs(mp.mpf(_step2_inner(theta, eps)) - want)
                assert gap <= 1e-13 * want, (theta, c)


def test_true_expectation_common_random_numbers():
    z = np.random.default_rng(0).standard_normal((5000, 3))
    a = true_expectation(0.75, 0.25, 0.0, 0.1, normals=z)
    b = true_expectation(0.75, 0.25, 0.0, 0.1, normals=z)
    assert a == b


def test_surrogate_positive_and_decaying():
    vals = [surrogate_expectation(0.75, h, 0.0, 0.1) for h in (0.5, 0.25, 0.125)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_decoupling_scaling_step2_smoke():
    res = decoupling_scaling(0.75, H_LEVELS, mc_samples=50_000, seed=0)
    assert res["status"] in ("PASS", "INCONCLUSIVE")
    assert len(res["per_h"]) == len(H_LEVELS)
    # cells without sampled events are never treated as informative
    for row in res["per_h"]:
        if row["stderr"] == 0:
            assert not row["usable"]


def test_decoupling_scaling_needs_enough_levels():
    with pytest.raises(ValueError):
        decoupling_scaling(0.75, [0.5, 0.25], mc_samples=1000)


@pytest.mark.parametrize("h", [0.6, 0.75])
def test_factorisation_slope_matches_exponent(h):
    res = factorisation_scaling(h, [2.0 ** -k for k in range(3, 9)])
    assert abs(res["slope"] - (2 - 2 * h)) <= 0.3


def test_lemma_a1_oracle_values():
    assert lemma_a1_oracle(0.0) == 0.0
    assert lemma_a1_oracle(2.0) == 2.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            lemma_a1_oracle(bad)


def test_lemma_a1_mc_close():
    for theta in (0.5, 2.0):
        mc = lemma_a1_mc(theta, samples=200_000, seed=1)
        assert mc == pytest.approx(lemma_a1_oracle(theta), rel=0.02)


def test_lemma_a2_bounds_hold():
    res = lemma_a2_check(0.7, 1.3, samples=100_000, seed=2)
    assert res["pass"]
    assert res["lhs1"] <= 1.3 * 1.01
    with pytest.raises(ValueError):
        lemma_a2_check(1.0, 1.0, samples=10)


def test_lemma_a1_mc_follows_the_oracles_theta_rule():
    # each of these returned NaN or a value for a theta the oracle refuses
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            lemma_a1_mc(bad, 10)
    for samples in (0, -3):  # an empty mean was NaN with a warning
        with pytest.raises(ValueError, match="samples must be >= 1"):
            lemma_a1_mc(1.0, samples)
    assert lemma_a1_mc(0.0, 10) == 0.0


def test_lemma_a2_check_rejects_nonfinite_thetas():
    # lhs2 was NaN and the verdict a silent False
    for thetas in ((np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            lemma_a2_check(*thetas)


def test_density_shift_integral_positive_and_level_damped():
    v0 = density_shift_integral(0.7, 64, a=0.0)
    v2 = density_shift_integral(0.7, 64, a=2.0)
    assert v0 > 0
    assert v2 < v0  # exp(-a^2/...) damping


def _density_shift_loop(hv, n, a):
    # the per-strip loop density_shift_integral replaced, kept as reference
    from fbmlab.bounds import _phi_pair

    def graded_nodes(lo, hi, singular_end):
        if hi <= lo:
            return np.empty(0), np.empty(0)
        x, w = np.polynomial.legendre.leggauss(6)
        breaks = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 24)]) * (hi - lo)
        edges = lo + breaks if singular_end <= lo else hi - breaks[::-1]
        nodes, weights = [], []
        for a0, b0 in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (a0 + b0) + 0.5 * (b0 - a0) * x)
            weights.append(0.5 * (b0 - a0) * w)
        return np.concatenate(nodes), np.concatenate(weights)

    total = 0.0
    ux, uw = np.polynomial.legendre.leggauss(6)
    for k in range(2, n):
        lo, hi = k / n, (k + 1) / n
        for u, wu in zip(0.5 * (lo + hi) + 0.5 * (hi - lo) * ux, 0.5 * (hi - lo) * uw):
            for vlo, vhi, sing in ((2 / n, u - 2 / n, u - 2 / n),
                                   (u + 2 / n, 1.0, u + 2 / n)):
                v, wv = graded_nodes(vlo, vhi, sing)
                if len(v):
                    diff = np.abs(_phi_pair(hv, u, v, a) - _phi_pair(hv, k / n, v, a))
                    total += wu * float(diff @ wv)
    return total


def _phi_pair_both_powers(hv, u, v, a, s22=None):
    # the density before v^{2H} was shared and the a = 0 exponential
    # skipped: every call computes both powers and the exponential
    two_h = 2 * hv
    s11 = u**two_h
    s22 = v**two_h
    s12 = 0.5 * (s11 + s22 - np.abs(v - u) ** two_h)
    det = s11 * s22 - s12**2
    qf = a * a * (s11 + s22 - 2 * s12) / det
    return np.exp(-0.5 * qf) / (2 * np.pi * np.sqrt(det))


@pytest.mark.parametrize("h, n, a", [
    (0.55, 16, 0.0), (0.6, 64, -0.0), (0.75, 64, 0.3), (0.9, 256, -1.0)])
def test_density_shift_integral_is_bit_identical_to_unshared_powers(
        monkeypatch, h, n, a):
    from fbmlab import bounds

    got = density_shift_integral(h, n, a)
    monkeypatch.setattr(bounds, "_phi_pair", _phi_pair_both_powers)
    assert got.hex() == density_shift_integral(h, n, a).hex()


@pytest.mark.parametrize("h, n, a", [
    (0.55, 16, 0.0), (0.75, 256, 0.0), (0.75, 256, 0.5), (0.9, 1024, -1.0)])
def test_density_shift_integral_is_bit_identical_in_parts(monkeypatch, h, n, a):
    # the integrand is evaluated in parts of each summed block; one part
    # per block must give the same bits
    from fbmlab import quadrature

    got = density_shift_integral(h, n, a)
    monkeypatch.setattr(quadrature, "_PART_ELEMENTS", quadrature._BLOCK_ELEMENTS)
    assert got.hex() == density_shift_integral(h, n, a).hex()


_DENSITY_SHIFT_FAULTS_SCRIPT = """
import resource
from fbmlab.bounds import density_shift_integral

density_shift_integral(0.75, 256)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
density_shift_integral(0.75, 256)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the fault count is glibc's malloc on Linux")
def test_density_shift_integral_reuses_its_memory():
    # in a fresh interpreter, where no earlier large free has raised
    # malloc's thresholds: a second call faults in about 200 pages; with
    # 256 kB temporaries each block took its pages from the system afresh,
    # 6400 faults a call
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _DENSITY_SHIFT_FAULTS_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1500, int(proc.stdout)


@pytest.mark.parametrize("a", [0.0, 2.0])
def test_density_shift_integral_matches_strip_loop(a):
    assert density_shift_integral(0.7, 64, a=a) == pytest.approx(
        _density_shift_loop(0.7, 64, a), rel=1e-12)


@pytest.mark.slow
def test_density_shift_decay_rate():
    # n^{-(1-H)} sets in slowly: grids below a few hundred sit on the
    # pre-asymptotic hump, so the fit starts at 256
    n = np.array([256, 512, 1024])
    vals = [density_shift_integral(0.6, k) for k in n]
    slope = np.polyfit(np.log2(n), np.log2(vals), 1)[0]
    assert slope <= -(1 - 0.6) + 0.3
