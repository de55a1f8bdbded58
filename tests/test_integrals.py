"""Riemann sums, signed derivative measures and the crossing closed form."""

import numpy as np
import pytest

from fbmlab.fbm import FbmPath, GridSpec, HurstIndex, sample_fft
from fbmlab.integrals import (
    SignedMeasure,
    _coarse_view,
    eval_integrand,
    indicator_measure,
    riemann_sum,
    sign_change_error,
)


def test_indicator_measure_evaluates_to_indicator():
    f = indicator_measure(0.3)
    xs = np.array([-1.0, 0.0, 0.3, 0.30001, 2.0])
    # sgn(0) = -1, so the indicator is right-open: f(a) = 0
    np.testing.assert_allclose(eval_integrand(f, xs), [0, 0, 0, 1, 1])


def test_total_variation_and_growth():
    mu = SignedMeasure(((0.0, 0.5), (1.0, -0.25)))
    assert mu.total_variation == pytest.approx(0.75)


def test_step_integrand_two_atoms():
    # f(x) = 1_{x > -1} + 2 * 1_{x > 1} as atoms + base constant
    mu = SignedMeasure(((-1.0, 0.5), (1.0, 1.0)), base_constant=1.5)
    assert eval_integrand(mu, -2.0) == pytest.approx(0.0)
    assert eval_integrand(mu, 0.0) == pytest.approx(1.0)
    assert eval_integrand(mu, 2.0) == pytest.approx(3.0)


def test_constant_integrand_telescopes():
    path = sample_fft(0.7, GridSpec(1.0, 64), 11)
    f = SignedMeasure((), base_constant=2.0)
    s = riemann_sum(path, f, (1, 1), GridSpec(1.0, 16))
    assert s == pytest.approx(2.0 * path.values[0, -1], abs=1e-12)


def test_riemann_sum_on_known_staircase():
    # deterministic path on 4 nodes; integrand 1_{x > 0}
    grid = GridSpec(1.0, 4)
    vals = np.array([[0.0, 1.0, -1.0, 2.0, 0.5]])
    path = FbmPath(HurstIndex(0.7), grid, vals)
    f = indicator_measure(0.0)
    # left-point rule: f(0)*1 + f(1)*(-2) + f(-1)*3 + f(2)*(-1.5)
    assert riemann_sum(path, f, (1, 1), grid) == pytest.approx(-3.5)


def test_sign_change_initial_step_counts():
    # B_0 = 0 with sgn(0) = -1: a first step to +0.8 crosses level 0
    grid = GridSpec(1.0, 2)
    vals = np.array([[0.0, 0.8, 0.9]])
    path = FbmPath(HurstIndex(0.75), grid, vals)
    n, h = 2, 0.75
    assert sign_change_error(path, 0.0, grid) == pytest.approx(
        n ** (2 * h - 1) * 0.8)


def test_sign_change_matches_riemann_identity():
    # exact algebraic identity: the S_n of an indicator equals the scaled
    # difference of Riemann sums between two dyadic resolutions
    path = sample_fft(0.7, GridSpec(1.0, 512), 23)
    f = indicator_measure(0.0)
    fine, coarse = GridSpec(1.0, 512), GridSpec(1.0, 64)
    lhs = riemann_sum(path, f, (1, 1), fine) - riemann_sum(path, f, (1, 1), coarse)
    rhs = (
        64 ** (1 - 2 * 0.7) * sign_change_error(path, 0.0, coarse)
        - 512 ** (1 - 2 * 0.7) * sign_change_error(path, 0.0, fine)
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sign_change_nonzero_level_shift_invariance():
    path = sample_fft(0.65, GridSpec(1.0, 128), 7)
    grid = GridSpec(1.0, 32)
    a = 0.4
    shifted = FbmPath(path.hurst, path.grid, path.values - a)
    assert sign_change_error(path, a, grid) == pytest.approx(
        sign_change_error(shifted, 0.0, grid))


def test_clamped_terminal_step():
    # t = 0.3 on an n = 4 grid: one full step then the partial one
    grid = GridSpec(1.0, 4, 0.3)
    vals = np.array([[0.0, -0.5, 0.2]])
    path = FbmPath(HurstIndex(0.75), grid, vals)
    # crossings: step 1 (0 -> -0.5) no (both "negative" under sgn(0) = -1),
    # step 2 (-0.5 -> 0.2) yes
    assert sign_change_error(path, 0.0, grid) == pytest.approx(
        4 ** 0.5 * 0.2)


def _coarse_values_fancy(values, fine, grid):
    """Reference: the fancy-index restriction the strided view replaced."""
    r = fine.refinement_of(grid)
    idx = np.arange(grid.full_steps + 1) * r
    if grid.has_partial_step:
        idx = np.append(idx, fine.num_nodes - 1)
    return values[..., idx]


# t = 207.5/256: the fine grid's terminal node has index 208 = 13 * 16, so a
# plain ::16 stride already ends on it; t = 207/256: only the coarse grid has
# a partial step
@pytest.mark.parametrize("t", [1.0, 0.83, 207.5 / 256, 207 / 256])
def test_coarse_view_matches_fancy_index(t):
    fine = GridSpec(1.0, 256, t)
    values = np.random.default_rng(4).standard_normal((3, 2, fine.num_nodes))
    for n in (16, 64, 256):
        grid = GridSpec(1.0, n, t)
        got = _coarse_view(values, fine, grid)
        assert got.shape == (3, 2, grid.num_nodes)
        np.testing.assert_array_equal(got, _coarse_values_fancy(values, fine, grid))
