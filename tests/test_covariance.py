"""Increment covariance matrices and their structural certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmlab.covariance import (
    IncrementPartition,
    IncrementWindows,
    build_increment_cov,
    consecutive_windows,
    covariance_increment_bound_check,
    decomp_factorisation_check,
    determinant_sandwich,
    eigenvalue_bracket,
    merged_large_windows,
)
from fbmlab.fbm import fbm_covariance


def test_windows_reject_degenerate():
    with pytest.raises(ValueError):
        IncrementWindows(((0.0, 0.0),))
    with pytest.raises(ValueError):
        IncrementWindows(((-0.1, 0.5),))


def test_consecutive_windows_and_lengths():
    w = consecutive_windows([0.0, 0.5, 0.7, 1.3])
    assert w.is_consecutive
    np.testing.assert_allclose(w.lengths(), [0.5, 0.2, 0.6])
    with pytest.raises(ValueError):
        consecutive_windows([0.0, 0.5, 0.5])


def test_increment_cov_entries_match_direct_formula():
    ts = np.array([0.0, 0.4, 0.9, 1.0])
    cov = build_increment_cov(consecutive_windows(ts), 0.7)
    # entry (i, j) = E[(B_{t_{i+1}} - B_{t_i})(B_{t_{j+1}} - B_{t_j})]
    for i in range(3):
        for j in range(3):
            want = (
                fbm_covariance(0.7, ts[i + 1], ts[j + 1])
                - fbm_covariance(0.7, ts[i + 1], ts[j])
                - fbm_covariance(0.7, ts[i], ts[j + 1])
                + fbm_covariance(0.7, ts[i], ts[j])
            )
            assert cov.matrix[i, j] == pytest.approx(want, abs=1e-14)


def test_increment_cov_diagonal_is_length_power():
    ts = [0.0, 0.2, 0.9]
    cov = build_increment_cov(consecutive_windows(ts), 0.8)
    np.testing.assert_allclose(
        np.diag(cov.matrix), np.diff(ts) ** 1.6, rtol=1e-13)


def test_brownian_increments_are_uncorrelated():
    cov = build_increment_cov(consecutive_windows([0.0, 0.3, 0.8, 1.0]), 0.5)
    off = cov.matrix - np.diag(np.diag(cov.matrix))
    assert np.max(np.abs(off)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(
    h=st.floats(0.05, 0.95),
    incr=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
)
def test_determinant_and_eigenvalue_certificates_random(h, incr):
    ts = np.concatenate([[0.0], np.cumsum(incr)])
    cov = build_increment_cov(consecutive_windows(ts), h)
    sand = determinant_sandwich(cov)
    assert not sand["violation"]
    assert sand["upper_ratio"] <= 1 + 1e-9
    eig = eigenvalue_bracket(cov)
    assert eig["bracket_ok"]
    assert eig["lambda_min"] > 0


# ---------------------------------------------------------------------------
# partitions and the determinant factorisation
# ---------------------------------------------------------------------------

def test_partition_validation():
    IncrementPartition(4, (2, 4), 0.1)
    with pytest.raises(ValueError):
        IncrementPartition(4, (1,), 0.1)  # first increment cannot be small
    with pytest.raises(ValueError):
        IncrementPartition(4, (2, 3), 0.1)  # adjacent
    with pytest.raises(ValueError):
        IncrementPartition(4, (5,), 0.1)  # out of range
    with pytest.raises(ValueError):
        IncrementPartition(4, (2,), 1.5)


def test_partition_validate_against_times():
    part = IncrementPartition(3, (2,), 0.1)
    part.validate([0.0, 1.0, 1.05, 2.0])
    with pytest.raises(ValueError):
        # "small" increment is half the large ones: ratio violated
        part.validate([0.0, 1.0, 1.5, 2.5])


def test_merged_large_windows_absorb_small():
    part = IncrementPartition(3, (2,), 0.2)
    w = merged_large_windows([0.0, 1.0, 1.1, 2.1], part)
    assert w.pairs == ((0.0, 1.0), (1.0, 2.1))


def test_factorisation_errors_shrink_with_h():
    part = IncrementPartition(3, (2,), 0.5)
    vals = []
    for h in (0.2, 0.05, 0.0125):
        times = [0.0, 1.0, 1.0 + h, 2.0 + h]
        res = decomp_factorisation_check(times, part, 0.75)
        assert res["cof_bound_ok"]
        vals.append(abs(res["theta1"]))
    assert vals[0] > vals[1] > vals[2]


def test_factorisation_trivial_at_brownian():
    # at H = 1/2 increments are independent: the small-block errors vanish
    # exactly; theta1 keeps only the O(h) window-merging term
    part = IncrementPartition(3, (2,), 0.5)
    res = decomp_factorisation_check([0.0, 1.0, 1.1, 2.1], part, 0.5)
    assert np.max(np.abs(res["theta2"])) < 1e-10
    assert np.max(np.abs(res["theta3"])) < 1e-10
    assert abs(res["theta1"]) == pytest.approx(0.1 / 1.1, abs=1e-10)


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
