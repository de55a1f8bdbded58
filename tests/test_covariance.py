"""Increment covariance matrices and their structural certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmlab.covariance import (
    covariance_increment_bound_check,
    determinant_sandwich,
    eigenvalue_bracket,
    factorisation_error,
    increment_cov,
)
from fbmlab.fbm import fbm_covariance


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
