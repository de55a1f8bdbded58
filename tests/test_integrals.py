"""Riemann sums, signed derivative measures and the crossing closed form."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fbmlab.fbm import GridSpec, sample_fft_batch
from fbmlab.integrals import (
    SignedMeasure,
    _coarse_view,
    crossing_sums,
    eval_integrand,
    indicator_measure,
    riemann_sums,
)
from fbmlab.localtime import binning_estimates, sign_change_estimates


def _path(h, grid, seed):
    """One sampled path on ``grid`` as a (nodes,) array."""
    return sample_fft_batch(h, grid, seed, 1)[0, 0]


def _scaled_crossings(h, values, fine, a, grid):
    """n^{2H-1} crossing_sums: the closed-form S_n of 1_{x > a}."""
    return grid.points_per_unit ** (2 * h - 1) * crossing_sums(values, fine, a, grid)


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
    fine = GridSpec(1.0, 64)
    b = _path(0.7, fine, 11)
    f = SignedMeasure((), base_constant=2.0)
    s = riemann_sums(b, b, fine, f, GridSpec(1.0, 16))
    assert s == pytest.approx(2.0 * b[-1], abs=1e-12)


def test_riemann_sum_on_known_staircase():
    # deterministic path on 4 nodes; integrand 1_{x > 0}
    grid = GridSpec(1.0, 4)
    b = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
    f = indicator_measure(0.0)
    # left-point rule: f(0)*1 + f(1)*(-2) + f(-1)*3 + f(2)*(-1.5)
    assert riemann_sums(b, b, grid, f, grid) == pytest.approx(-3.5)


def test_sign_change_initial_step_counts():
    # B_0 = 0 with sgn(0) = -1: a first step to +0.8 crosses level 0
    grid = GridSpec(1.0, 2)
    b = np.array([0.0, 0.8, 0.9])
    n, h = 2, 0.75
    assert _scaled_crossings(h, b, grid, 0.0, grid) == pytest.approx(
        n ** (2 * h - 1) * 0.8)


def test_sign_change_matches_riemann_identity():
    # exact algebraic identity: the S_n of an indicator equals the scaled
    # difference of Riemann sums between two dyadic resolutions
    fine, coarse = GridSpec(1.0, 512), GridSpec(1.0, 64)
    b = _path(0.7, fine, 23)
    f = indicator_measure(0.0)
    lhs = riemann_sums(b, b, fine, f, fine) - riemann_sums(b, b, fine, f, coarse)
    rhs = (
        64 ** (1 - 2 * 0.7) * _scaled_crossings(0.7, b, fine, 0.0, coarse)
        - 512 ** (1 - 2 * 0.7) * _scaled_crossings(0.7, b, fine, 0.0, fine)
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sign_change_nonzero_level_shift_invariance():
    fine, grid = GridSpec(1.0, 128), GridSpec(1.0, 32)
    b = _path(0.65, fine, 7)
    a = 0.4
    assert crossing_sums(b, fine, a, grid) == pytest.approx(
        crossing_sums(b - a, fine, 0.0, grid))


def test_clamped_terminal_step():
    # t = 0.3 on an n = 4 grid: one full step then the partial one
    grid = GridSpec(0.3, 4)
    b = np.array([0.0, -0.5, 0.2])
    # crossings: step 1 (0 -> -0.5) no (both "negative" under sgn(0) = -1),
    # step 2 (-0.5 -> 0.2) yes
    assert _scaled_crossings(0.75, b, grid, 0.0, grid) == pytest.approx(
        4 ** 0.5 * 0.2)


BATCH_FUNCTIONS = {
    "crossing_sums": lambda v, fine, grid: crossing_sums(v, fine, 0.1, grid),
    "riemann_sums": lambda v, fine, grid: riemann_sums(
        v, v[..., ::-1], fine, indicator_measure(0.1), grid),
    "sign_change_estimates": lambda v, fine, grid: sign_change_estimates(
        0.75, v, fine, 0.1, grid),
    "binning_estimates": lambda v, fine, grid: binning_estimates(
        0.75, v, fine, 0.1, 0.5),
}


@pytest.mark.parametrize("t", [1.0, 0.83])
@pytest.mark.parametrize("name", sorted(BATCH_FUNCTIONS))
def test_single_path_is_a_batch_row(name, t):
    # a (nodes,) path gives a 0-d result equal to its row of a batch call
    fn = BATCH_FUNCTIONS[name]
    fine, grid = GridSpec(t, 256), GridSpec(t, 32)
    batch = sample_fft_batch(0.75, fine, 9, 6)[:, 0]
    whole = fn(batch, fine, grid)
    assert whole.shape == (6,)
    for r in range(6):
        row = fn(batch[r], fine, grid)
        assert np.ndim(row) == 0
        np.testing.assert_allclose(row, whole[r], rtol=1e-12, atol=0)
    if name == "riemann_sums":
        # rows of >= 2^18 fine nodes: the kernel's blocks hold one row on the
        # fine grid and four on n = 2^16 (a four-row and a two-row block)
        fine = GridSpec(t, 2**19)
        walk = np.cumsum(np.random.default_rng(3).standard_normal(
            (6, fine.num_nodes)), axis=-1) * 2.0**-9.5
        for grid in (fine, GridSpec(t, 2**16), GridSpec(t, 32)):
            whole = fn(walk, fine, grid)
            rows = [fn(walk[r], fine, grid) for r in range(6)]
            np.testing.assert_array_equal(rows, whole)
    if name == "binning_estimates":
        # n = 1000: the step lengths are not powers of two, so a row's
        # estimate must not come from a sum whose order depends on the batch;
        # n = 256 at t = 0.83 ends on a partial step
        for fine in (GridSpec(t, 1000), GridSpec(t, 256)):
            batch = sample_fft_batch(0.75, fine, 9, 200)[:, 0]
            whole = fn(batch, fine, fine)
            np.testing.assert_array_equal(
                [fn(row, fine, fine) for row in batch], whole)


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
    fine = GridSpec(t, 256)
    values = np.random.default_rng(4).standard_normal((3, 2, fine.num_nodes))
    for n in (16, 64, 256):
        grid = GridSpec(t, n)
        got = _coarse_view(values, fine, grid)
        assert got.shape == (3, 2, grid.num_nodes)
        np.testing.assert_array_equal(got, _coarse_values_fancy(values, fine, grid))


def test_riemann_sums_memory_is_block_sized():
    # 32 x 2 paths of 131073 nodes: temporaries are block-sized, never a
    # (replicates, nodes) array
    fine = GridSpec(1.0, 2**17)
    batch = sample_fft_batch(0.75, fine, 1, 32, 2)
    tracemalloc.start()
    try:
        for grid in (fine, GridSpec(1.0, 512)):
            riemann_sums(batch[:, 0], batch[:, 1], fine, indicator_measure(0.0),
                         grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# rows of 2^15 values and more, which a multi-threaded BLAS dot splits across
# its threads and so rounds differently; at H = 0.1 the partial step's
# conditional mean is large enough to show in the path's last node
_ROW_DOTS_SCRIPT = """
import hashlib
import numpy as np
from fbmlab.fbm import GridSpec, sample_fft_batch
from fbmlab.integrals import indicator_measure, riemann_sums

fine = GridSpec(1.0, 2**17)
walk = np.cumsum(np.random.default_rng(5).standard_normal((4, 2, fine.num_nodes)),
                 axis=-1) * 2.0**-8.5
sums = riemann_sums(walk[:, 0], walk[:, 1], fine, indicator_measure(0.0), fine)
paths = sample_fft_batch(0.1, GridSpec(1 + 2**-16, 2**15), 3, 3)
print(hashlib.sha256(sums.tobytes()).hexdigest(),
      hashlib.sha256(paths.tobytes()).hexdigest())
"""


def test_row_dot_products_do_not_depend_on_blas_threads():
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _ROW_DOTS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]
