"""Signed derivative measures and the crossing closed form of S_n."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbmlab.fbm import GridSpec, sample_fft_batch
from fbmlab.harness import ExperimentPlan, _path_errors
from fbmlab.integrals import (
    SignedMeasure,
    _crossing_layout,
    crossing_sums,
    indicator_measure,
)
from fbmlab.localtime import binning_estimates, sign_change_estimates
from riemann_reference import coarse_values, riemann_sums


def _path(h, grid, seed):
    """One sampled path on ``grid`` as a (nodes,) array."""
    return sample_fft_batch(h, grid, seed, 1)[0, 0]


def _scaled_crossings(h, values, fine, a, grid):
    """n^{2H-1} crossing_sums: the closed-form S_n of 1_{x > a}."""
    return grid.points_per_unit ** (2 * h - 1) * crossing_sums(values, fine, a, grid)


def test_total_variation_and_growth():
    mu = SignedMeasure(((0.0, 0.5), (1.0, -0.25)))
    assert mu.total_variation == pytest.approx(0.75)


def test_sign_change_initial_step_counts():
    # B_0 = 0 with sgn(0) = -1: a first step to +0.8 crosses level 0
    grid = GridSpec(1.0, 2)
    b = np.array([0.0, 0.8, 0.9])
    n, h = 2, 0.75
    assert _scaled_crossings(h, b, grid, 0.0, grid) == pytest.approx(
        n ** (2 * h - 1) * 0.8)


def test_sign_change_matches_riemann_identity():
    # exact algebraic identity: the crossing sums of 1_{x > a} on two grids
    # differ by the difference of their Riemann sums, the definition of S_n;
    # at t = 0.83 every grid ends on a partial step, on n = 8 one that spans
    # 40 fine steps and the fine partial step
    for t in (1.0, 0.83):
        fine = GridSpec(t, 512)
        b = sample_fft_batch(0.7, fine, 23, 64)[:, 0]
        for a in (0.0, 0.3):
            f = indicator_measure(a)
            fine_sums = riemann_sums(b, b, fine, f, fine)
            for n in (8, 64):
                coarse = GridSpec(t, n)
                lhs = fine_sums - riemann_sums(b, b, fine, f, coarse)
                rhs = (crossing_sums(b, fine, a, coarse)
                       - crossing_sums(b, fine, a, fine))
                assert (rhs != 0).sum() >= 16  # rows that cross the level
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


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
    if name == "binning_estimates":
        # n = 1000: the step lengths are not powers of two, so a row's
        # estimate must not come from a sum whose order depends on the batch;
        # n = 256 at t = 0.83 ends on a partial step
        for fine in (GridSpec(t, 1000), GridSpec(t, 256)):
            batch = sample_fft_batch(0.75, fine, 9, 200)[:, 0]
            whole = fn(batch, fine, fine)
            np.testing.assert_array_equal(
                [fn(row, fine, fine) for row in batch], whole)


# t = 207.5/256: the fine grid's terminal node has index 208 = 13 * 16, so a
# plain ::16 stride already ends on it; t = 207/256: only the coarse grid has
# a partial step
@pytest.mark.parametrize("t", [1.0, 0.83, 207.5 / 256, 207 / 256])
def test_coarse_view_matches_fancy_index(t):
    # the crossing kernel's layout picks the nodes of every grid that the
    # fancy index of the reference picks
    fine = GridSpec(t, 256)
    grids = tuple(GridSpec(t, n) for n in (16, 64, 256))
    every = np.arange(fine.num_nodes)
    np.testing.assert_array_equal(
        _crossing_layout(fine, grids)[1],
        np.concatenate([coarse_values(every, fine, g) for g in grids]))


def _crossing_sums_per_grid(values, fine, a, grid, weights=None):
    """Reference: the one-grid crossing kernel that the multi-grid call
    replaced, on the grid's nodes taken by fancy index."""
    b = coarse_values(values, fine, grid)
    rows_shape = b.shape[:-1]
    b = b.reshape(-1, b.shape[-1])
    above = b > a
    crossed = above[:, 1:] != above[:, :-1]
    rows, steps = np.divmod(np.flatnonzero(crossed), crossed.shape[1])
    terms = np.abs(b[rows, steps + 1] - a)
    if weights is not None:
        terms *= weights[steps]
    return np.bincount(rows, weights=terms,
                       minlength=b.shape[0]).reshape(rows_shape)


def _paths_touching_levels(t, rows):
    """Sampled paths, and a walk on the lattice of 1/8 from the origin,
    whose nodes often sit exactly on the levels 0, 0.25 and -0.125."""
    fine = GridSpec(t, 1024)
    paths = sample_fft_batch(0.75, fine, 8, rows)[:, 0]
    steps = np.random.default_rng(rows).integers(-1, 2, (rows, fine.num_nodes))
    steps[:, 0] = 0
    return fine, (paths, np.cumsum(steps, axis=-1) / 8)


@pytest.mark.parametrize("t", [1.0, 0.83])
@pytest.mark.parametrize("rows", [1, 2, 63])
def test_multi_grid_crossings_equal_per_grid_calls(rows, t):
    # one row of sums per grid, bit for bit those of the one-grid kernel;
    # at t = 0.83 every grid ends on a partial step.  The walk touches the
    # levels, where sgn(0) = -1 puts a node at a below it
    fine, batches = _paths_touching_levels(t, rows)
    grids = [GridSpec(t, n) for n in (16, 64, 256)] + [fine]
    weights = np.random.default_rng(2).uniform(0.5, 2.0, grids[1].full_steps
                                               + grids[1].has_partial_step)
    for values in batches:
        for a in (0.0, 0.25, -0.125):
            got = crossing_sums(values, fine, a, grids)
            assert got.shape == (len(grids), rows)
            for gi, grid in enumerate(grids):
                want = _crossing_sums_per_grid(values, fine, a, grid)
                assert got[gi].tobytes() == want.tobytes()
                assert crossing_sums(values, fine, a, grid).tobytes() == want.tobytes()
            # one grid with weights, as the local-time estimator calls it
            want = _crossing_sums_per_grid(values, fine, a, grids[1], weights)
            got = crossing_sums(values, fine, a, grids[1], weights)
            assert got.tobytes() == want.tobytes()
        # a single path gives one 0-d sum per grid
        assert crossing_sums(values[0], fine, 0.0, grids).shape == (len(grids),)
    touched = batches[1][:, ::16] == 0.0
    assert touched[:, 1:].any()
    with pytest.raises(ValueError, match="single grid"):
        crossing_sums(batches[0], fine, 0.0, grids, weights)


def _path_errors_per_grid(plan, fine, bi):
    """Reference: the harness's i = j second moments from one per-grid
    kernel call per atom and grid, as before the multi-grid call."""
    hv = plan.hurst

    def sign_change(a, grid):
        n = grid.points_per_unit
        return n ** (2 * hv - 1) * _crossing_sums_per_grid(bi, fine, a, grid)

    errs = np.empty((len(plan.n_values), bi.shape[0]))
    fine_sc = {a: sign_change(a, fine) for a, _ in plan.integrand.atoms}
    for gi, n in enumerate(plan.n_values):
        e = np.zeros(bi.shape[0])
        for a, c in plan.integrand.atoms:
            e += 2 * c * (sign_change(a, GridSpec(plan.t, n)) - fine_sc[a])
        errs[gi] = e
    return errs**2


@pytest.mark.parametrize("t", [1.0, 0.83])
@pytest.mark.parametrize("rows", [1, 2, 63])
def test_harness_crossing_errors_equal_per_grid_route(rows, t):
    # one atom, the same atom shifted onto the walk's lattice, and two atoms
    fine, batches = _paths_touching_levels(t, rows)
    measures = (indicator_measure(0.0), indicator_measure(0.25),
                SignedMeasure(((-0.125, 0.5), (0.25, 1.0))))
    for mu in measures:
        plan = ExperimentPlan(0.75, (16, 64, 256), mu, t=t, replicates=2,
                              fine_factor=4)
        assert plan.fine_n == fine.points_per_unit
        for bi in batches:
            got = _path_errors(plan, fine, bi)
            assert got.tobytes() == _path_errors_per_grid(plan, fine, bi).tobytes()


# the partial step's conditional mean is a dot product over rows of 2^15
# values and more, which a multi-threaded BLAS dot splits across its threads
# and so rounds differently; at H = 0.1 it is large enough to show in the
# path's last node
_ROW_DOTS_SCRIPT = """
import hashlib
from fbmlab.fbm import GridSpec, sample_fft_batch

paths = sample_fft_batch(0.1, GridSpec(1 + 2**-16, 2**15), 3, 3)
print(hashlib.sha256(paths.tobytes()).hexdigest())
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
