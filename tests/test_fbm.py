"""Unit tests for path generation: covariance formulas, grids, samplers."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_toeplitz

from fbmlab import fbm
from fbmlab.fbm import (
    BLOCK_VALUES,
    EXACT_NODE_CAP,
    RANGES_PER_WORKER,
    _embedding_amplitude,
    _fgn_from_normals,
    _keyed_streams,
    _partial_step_weights,
    GridSpec,
    GridSizeError,
    HurstIndex,
    as_hurst,
    fbm_covariance,
    fft_paths,
    fft_ranges,
    fgn_autocovariance,
    sample_exact_batch,
    sample_fft_batch,
    substream,
)


# ---------------------------------------------------------------------------
# Hurst index and covariance formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
def test_hurst_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        HurstIndex(bad)


def test_rough_regime_gate():
    HurstIndex(0.6).require_rough_regime()
    with pytest.raises(ValueError):
        HurstIndex(0.5).require_rough_regime()


def test_covariance_brownian_special_case():
    # at H = 1/2 the covariance is min(s, t)
    for s, t in [(0.3, 0.8), (0.5, 0.5), (1.0, 0.2)]:
        assert fbm_covariance(0.5, s, t) == pytest.approx(min(s, t), abs=1e-15)


def test_covariance_variance_is_t_power():
    for h in (0.55, 0.75, 0.9):
        assert fbm_covariance(h, 0.7, 0.7) == pytest.approx(0.7 ** (2 * h))


def test_covariance_half_point():
    # R(1/2, 1) = ((1/2)^{2H} + 1 - (1/2)^{2H}) / 2 = 1/2 for every H
    for h in (0.51, 0.6, 0.75, 0.9):
        assert fbm_covariance(h, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_covariance_rejects_negative_times():
    with pytest.raises(ValueError):
        fbm_covariance(0.7, -0.1, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(0.05, 0.95),
    ts=st.lists(st.floats(0.01, 3.0), min_size=2, max_size=8, unique=True),
)
def test_covariance_matrix_is_psd(h, ts):
    ts = np.sort(np.asarray(ts))
    cov = fbm_covariance(h, ts[:, None], ts[None, :])
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)


def test_fgn_autocovariance_lag_zero_and_sum():
    for h in (0.55, 0.8):
        gamma = fgn_autocovariance(h, np.arange(0, 50), dt=1.0)
        assert gamma[0] == pytest.approx(1.0)
        # Var(B_n) = n^{2H} = sum over all lag pairs of the autocovariance
        n = 50
        var = n * gamma[0] + 2 * np.sum((n - np.arange(1, n)) * gamma[1:n])
        assert var == pytest.approx(n ** (2 * h), rel=1e-12)


def test_fgn_autocovariance_dt_scaling():
    g1 = fgn_autocovariance(0.7, [0, 1, 2], dt=1.0)
    g2 = fgn_autocovariance(0.7, [0, 1, 2], dt=0.25)
    np.testing.assert_allclose(g2, g1 * 0.25 ** 1.4, rtol=1e-13)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_nodes_uniform():
    g = GridSpec(1.0, 8)
    np.testing.assert_allclose(g.nodes(), np.arange(9) / 8)
    assert not g.has_partial_step
    assert g.num_nodes == 9


def test_grid_partial_terminal_node():
    g = GridSpec(0.3, 8)
    ts = g.nodes()
    assert g.full_steps == 2
    assert g.has_partial_step
    assert ts[-1] == pytest.approx(0.3)
    np.testing.assert_allclose(ts[:-1], [0.0, 0.125, 0.25])


def test_grid_near_integer_product_has_no_partial_step():
    # floating n*t slightly below an integer must not create a sliver node
    g = GridSpec(0.7000000000000001, 10)
    assert g.full_steps == 7
    assert not g.has_partial_step


def test_refinement_factor():
    fine = GridSpec(1.0, 64)
    coarse = GridSpec(1.0, 16)
    assert fine.refinement_of(coarse) == 4
    with pytest.raises(ValueError):
        GridSpec(1.0, 48).refinement_of(GridSpec(1.0, 9))


def test_grid_validation():
    for t_end in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_end"):
            GridSpec(t_end, 8)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0)
    # a finite t_end whose node count overflows a float
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(1e308, 64)


def test_grid_rejects_one_node_horizon():
    # a horizon within the node tolerance of 0 leaves node 0 alone, which no
    # sampler can fill: refused with the horizon and n named
    for n in (1, 64):
        with pytest.raises(ValueError, match=f"t_end = 1e-12 .* n = {n}: one node"):
            GridSpec(1e-12, n)
    assert GridSpec(1e-12, 10**12).num_nodes == 2
    assert GridSpec(2e-9, 1).num_nodes == 2


# ---------------------------------------------------------------------------
# substreams / determinism
# ---------------------------------------------------------------------------

def test_substream_reproducible_and_distinct():
    a = substream(7, 3, 0).standard_normal(4)
    b = substream(7, 3, 0).standard_normal(4)
    c = substream(7, 4, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 5, 2**70 + 3,
                                  2**130 + 9])
def test_keyed_streams_match_substream(seed):
    # seeds of one to five 32-bit words, replicate ids at both ends of the
    # one-word range; every key re-keys the same generator, so each draw
    # must also be independent of the keys drawn before it
    for first, count in ((0, 2), (1000, 1), (2**32 - 3, 3)):
        key = _keyed_streams(seed, first, count, 2)
        for r in range(count):
            for c in range(2):
                rng = key(r, c)
                got = (rng.standard_normal(8), rng.standard_normal())
                want = substream(seed, first + r, c)
                np.testing.assert_array_equal(got[0], want.standard_normal(8))
                assert got[1] == want.standard_normal()


def test_samplers_reject_negative_seed():
    grid = GridSpec(1.0, 8)
    for sampler in (sample_fft_batch, sample_exact_batch):
        with pytest.raises(ValueError, match="master_seed"):
            sampler(0.7, grid, -1, 1)


def test_samplers_take_integer_seeds_only():
    # a float seed is not truncated to another seed's streams, as
    # substream refuses it too; a numpy integer is the same seed
    grid = GridSpec(0.83, 8)
    for sampler in (sample_fft_batch, sample_exact_batch):
        with pytest.raises(TypeError):
            sampler(0.75, grid, 1.7, 1)
        want = sampler(0.75, grid, 3, 2, 2)
        assert sampler(0.75, grid, np.int64(3), 2, 2).tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        substream(1.7, 0, 0)


def test_samplers_reject_two_word_replicate_ids():
    # SeedSequence encodes an id >= 2^32 in two words, so such a key would
    # name a different stream than the one-word hash computes
    grid = GridSpec(0.5, 8)
    for sampler in (sample_fft_batch, sample_exact_batch):
        sampler(0.7, grid, 0, 2, first_replicate=2**32 - 2)
        for first in (2**32 - 1, -1):
            with pytest.raises(ValueError, match="first_replicate"):
                sampler(0.7, grid, 0, 2, first_replicate=first)


def test_batch_equals_concatenated_singles():
    # the second grid embeds in m = 2^16, so a synthesis block of one worker
    # holds two rows: three replicates span a two-row and a one-row block,
    # and the partial step (t = 0.83) is drawn in both
    assert BLOCK_VALUES // 2**16 == 2
    for grid, components in ((GridSpec(1.0, 16), 1),
                             (GridSpec(0.83, 2**15), 2)):
        batch = sample_fft_batch(0.7, grid, 5, 3, components, threads=1)
        for r in range(3):
            single = sample_fft_batch(0.7, grid, 5, 1, components,
                                      first_replicate=r)
            np.testing.assert_array_equal(batch[r], single[0])


@pytest.mark.parametrize("grid, components, count", [
    (GridSpec(1.0, 64), 1, 9),
    (GridSpec(0.83, 64), 2, 9),   # off-grid t: the partial step's weights
    (GridSpec(0.83, 64), 2, 2),   # fewer replicates than workers
    (GridSpec(0.01, 64), 2, 5),   # t < 1/n: no synthesis
])
def test_fft_batch_does_not_depend_on_threads(grid, components, count):
    ref = sample_fft_batch(0.7, grid, 3, count, components, first_replicate=4,
                           threads=1)
    for threads in (2, 3):
        got = sample_fft_batch(0.7, grid, 3, count, components,
                               first_replicate=4, threads=threads)
        assert got.tobytes() == ref.tobytes(), threads


def test_partial_step_solved_once_under_two_workers():
    # the dispatch fills the cache before its workers start, so they never
    # both miss it
    grid = GridSpec(0.83, 4096)
    _partial_step_weights.cache_clear()
    sample_fft_batch(0.7, grid, 1, 4, threads=2)
    assert _partial_step_weights.cache_info().misses == 1


_ORDERS = [GridSpec(1.5, 1), GridSpec(1.3, 2), GridSpec(0.83, 64),
           GridSpec(0.83, 4096)]  # k = 1, 2, 53, 3399


@pytest.mark.parametrize("h, grid", [
    *[(h, grid) for h in (0.1, 0.55, 0.75, 0.9, 0.99) for grid in _ORDERS],
    (0.9, GridSpec(1 + 2**-16, 2**15)),  # k = 2^15
])
def test_toeplitz_solve_matches_scipy(h, grid):
    # scipy's Levinson solve is the independent reference for the weights
    # and the conditional variance
    h, n, k = as_hurst(h), grid.points_per_unit, grid.full_steps
    gamma = fgn_autocovariance(h, np.arange(k), dt=1.0 / n)
    ks = np.arange(1, k + 1) / n
    c = (fbm_covariance(h, grid.t_end, ks) - fbm_covariance(h, grid.t_end, ks - 1 / n)
         - fbm_covariance(h, k / n, ks) + fbm_covariance(h, k / n, ks - 1 / n))
    want = solve_toeplitz(gamma, c)
    want_var = (grid.t_end - k / n) ** (2 * h.value) - (c * want).sum()
    w, cond_std = _partial_step_weights(h, grid)
    _assert_close_rel(w, want, rel=1e-12)
    assert cond_std**2 == pytest.approx(want_var, rel=1e-12)


@pytest.mark.parametrize("gamma, c", [
    ([1.0, 2.0], [1.0, 0.0]),            # eigenvalues 3 and -1
    ([1.0, 0.0, 1.5], [1.0, 0.0, -1.0]),  # c is T's eigenvector for -0.5
])
def test_toeplitz_solve_rejects_indefinite_matrix(gamma, c):
    with pytest.raises(RuntimeError, match="not positive definite"):
        fbm._toeplitz_solve(np.array(gamma), np.array(c))


def test_toeplitz_solve_raises_unless_it_converges(monkeypatch):
    gamma = fgn_autocovariance(0.75, np.arange(53))
    # a zero right-hand side (the partial step at H = 1/2) returns before
    # its first update
    monkeypatch.setattr(fbm, "_TOEPLITZ_MAX_ITER", 1)
    assert not fbm._toeplitz_solve(gamma, np.zeros(53)).any()
    monkeypatch.setattr(fbm, "_TOEPLITZ_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match="did not converge in 2 iterations"):
        fbm._toeplitz_solve(gamma, gamma[::-1].copy())


@pytest.mark.parametrize("excess, raises", [(1e-14, False), (1e-10, True)])
def test_partial_step_negative_variance_raises_beyond_rounding(
        monkeypatch, excess, raises):
    # a solve whose weights explain (1 + excess) of the tail's variance
    # leaves a conditional variance of about -excess * tail^{2H}: a
    # rounding-size negative is clamped to 0, a larger one raises
    h, grid = as_hurst(0.7), GridSpec(0.83, 16)
    var = (grid.t_end - grid.full_steps / 16) ** (2 * h.value)
    solve = fbm._toeplitz_solve

    def overshoot(gamma, c):
        w = solve(gamma, c)
        return w * (var * (1 + excess) / float((c * w).sum()))

    monkeypatch.setattr(fbm, "_toeplitz_solve", overshoot)
    _partial_step_weights.cache_clear()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="negative beyond rounding"):
                _partial_step_weights(h, grid)
        else:
            assert _partial_step_weights(h, grid)[1] == 0.0
    finally:
        _partial_step_weights.cache_clear()


@pytest.mark.parametrize("stall_caller", [True, False],
                         ids=["calling_thread", "pool_thread"])
def test_stalled_worker_leaves_its_later_ranges_to_the_others(stall_caller):
    # ranges go to whichever worker is free: while one worker waits on its
    # first range, the other one draws all the rest.  The other worker
    # waits on its first range until the stall has begun, so neither can
    # take every range before the other starts.
    parts = 2 * RANGES_PER_WORKER
    stalled, done = [], []
    stall_began, rest_done = threading.Event(), threading.Event()

    def work(a, b, workers):
        assert workers == 2
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == stall_caller:
            if not stalled:
                stalled.append((a, b))
                stall_began.set()
                assert rest_done.wait(30)
                return
        elif not done:
            assert stall_began.wait(30)
        done.append((a, b))
        if len(done) == parts - 1:
            rest_done.set()

    fft_ranges(0.7, GridSpec(1.0, 16), 0, 10 * parts, 2, work)
    assert len(stalled) == 1
    assert sorted(stalled + done) == [(10 * p, 10 * p + 10) for p in range(parts)]


def test_calling_thread_is_one_of_the_workers():
    # at threads=2 the caller draws ranges beside one pool thread; the first
    # two ranges meet at a barrier, so each goes to a different worker
    before = threading.active_count()
    barrier = threading.Barrier(2)
    threads, counts = set(), []

    def work(a, b, workers):
        assert workers == 2
        threads.add(threading.current_thread())
        counts.append(threading.active_count())
        if a < 20:
            barrier.wait(30)

    fft_ranges(0.7, GridSpec(1.0, 16), 0, 10 * 2 * RANGES_PER_WORKER, 2, work)
    assert threading.main_thread() in threads
    assert len(threads) == 2
    assert max(counts) <= before + 1


def test_each_range_is_handed_out_once_under_contention():
    # eight workers on two CPUs, switching threads every microsecond: a range
    # handed out twice or lost would break the cover
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for total in (24, 100):
            seen.clear()
            fft_ranges(0.7, GridSpec(1.0, 16), 5, 5 + total, 8,
                       lambda a, b, workers: seen.append((a, b)))
            cover = sorted(seen)
            assert len(cover) == 8 * RANGES_PER_WORKER
            assert [a for a, _ in cover[1:]] == [b for _, b in cover[:-1]]
            assert (cover[0][0], cover[-1][1]) == (5, 5 + total)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("raiser", ["range_0", "caller_interrupted"])
def test_first_failure_stops_the_hand_out(raiser):
    # once a range raises, no further range starts and the exception
    # propagates; the other worker may only finish the range it holds
    started = []
    exc = ValueError if raiser == "range_0" else KeyboardInterrupt

    def work(a, b, workers):
        started.append(a)
        if raiser == "range_0":
            fails = a == 0
        else:
            fails = threading.current_thread() is threading.main_thread()
        if fails:
            raise exc("stop")
        time.sleep(0.2)

    with pytest.raises(exc, match="stop"):
        fft_ranges(0.7, GridSpec(1.0, 16), 0, 2 * RANGES_PER_WORKER, 2, work)
    assert len(started) <= 2, started


def _collect_paths(count, components, nodes):
    """An (count, components, nodes) array of NaN and an ``fft_paths``
    ``take`` that copies each sub-block into it."""
    rows = np.full((count, components, nodes), np.nan)

    def take(start, paths):
        rows[start:start + len(paths)] = paths

    return rows, take


@pytest.mark.parametrize("grid", [GridSpec(1.0, 64), GridSpec(0.83, 64),
                                  GridSpec(0.01, 64)])
def test_fft_paths_fill_whole_rows(grid):
    # every column is handed over, the origin too, whatever the buffer held
    rows, take = _collect_paths(5, 2, grid.num_nodes)
    fft_paths(0.7, grid, 3, 4, 5, take, components=2)
    assert (rows[..., 0] == 0.0).all()
    paths = sample_fft_batch(0.7, grid, 3, 5, 2, first_replicate=4)
    assert rows.tobytes() == paths.tobytes()


@pytest.mark.parametrize("grid", [GridSpec(1.0, 64), GridSpec(0.83, 64),
                                  GridSpec(0.01, 64)])
def test_fft_paths_draw_components_from_first_component(grid):
    # first_component offsets the component keys as first_replicate offsets
    # the replicate keys, so one component is drawn alone
    batch = sample_fft_batch(0.7, grid, 3, 5, 3, first_replicate=4)
    for first in (1, 2):
        rows, take = _collect_paths(5, 3 - first, grid.num_nodes)
        fft_paths(0.7, grid, 3, 4, 5, take, components=3 - first,
                  first_component=first)
        assert rows.tobytes() == batch[:, first:].tobytes()
    with pytest.raises(ValueError, match="first_component"):
        fft_paths(0.7, grid, 3, 4, 5, take, first_component=-1)


def test_fft_paths_hold_two_sub_block_buffers():
    # the normals, whose transform and paths are written in place, and their
    # half spectrum: no third buffer for the transform output or the paths,
    # no scaled copy of the amplitude, and off the grid one reused row of
    # weighted increments for the partial step (2.00 and 2.21 buffers here;
    # 2.25 and 2.67 with a (rows, k) product per sub-block and the amplitude
    # scaled per call)
    m = 2**16  # the embedding of 2^15 steps
    rows = max(1, BLOCK_VALUES // m)
    assert rows == 2
    sizes = []

    def take(start, paths):
        sizes.append(len(paths))

    for t in (1.0, 0.83):
        grid = GridSpec(t, 2**15)
        fft_paths(0.75, grid, 1, 0, 4 * rows, take)  # fill the caches untraced
        tracemalloc.start()
        try:
            fft_paths(0.75, grid, 1, 0, 4 * rows, take)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * rows * m * 8, (t, peak / (rows * m * 8))
    assert sizes == [rows] * 16


def test_exact_batch_offset_contract():
    grid = GridSpec(1.0, 8)
    batch = sample_exact_batch(0.6, grid, 1, 4)
    tail = sample_exact_batch(0.6, grid, 1, 2, first_replicate=2)
    np.testing.assert_array_equal(batch[2:], tail)


def test_exact_batch_equals_concatenated_singles_two_components():
    h, grid = 0.6, GridSpec(0.9, 8)
    batch = sample_exact_batch(h, grid, 3, 4, components=2)
    for r in range(4):
        single = sample_exact_batch(h, grid, 3, 1, components=2, first_replicate=r)
        np.testing.assert_array_equal(batch[r], single[0])
    # each path is chol @ z on its own substream, up to summation order
    ts = grid.nodes()[1:]
    chol = np.linalg.cholesky(fbm_covariance(h, ts[:, None], ts[None, :]))
    for r in range(4):
        for c in range(2):
            z = substream(3, r, c).standard_normal(len(ts))
            np.testing.assert_allclose(batch[r, c, 1:], chol @ z, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# half-spectrum synthesis against the full complex-ifft mapping
# ---------------------------------------------------------------------------

def _reference_fgn(h, zeta, n_incr):
    """Hermitian-completed spectrum and a full complex ifft: the mapping from
    normals (batch, m) to unit-lag fGn that the real transform must keep."""
    m = zeta.shape[-1]
    half = m // 2
    gamma = fgn_autocovariance(h, np.arange(half + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = np.clip(np.fft.fft(row).real, 0.0, None)
    z = np.empty(zeta.shape[:-1] + (m,), dtype=complex)
    z[..., 0] = zeta[..., 0]
    z[..., half] = zeta[..., half]
    z[..., 1:half] = (zeta[..., 1:half] + 1j * zeta[..., half + 1:]) / np.sqrt(2.0)
    z[..., half + 1:] = np.conj(z[..., 1:half])[..., ::-1]
    x = np.fft.ifft(np.sqrt(eigs) * z, axis=-1).real * np.sqrt(m)
    return x[..., :n_incr]


def _assert_close_rel(got, want, rel=1e-13):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n_incr, m", [(1, 2), (5, 16), (1024, 2048)])
@pytest.mark.parametrize("h", [0.3, 0.75])
def test_half_spectrum_synthesis_matches_complex_ifft(h, n_incr, m):
    amp = _embedding_amplitude(h, n_incr, 1)
    assert amp.shape == (m // 2 + 1,)
    zeta = substream(11, m).standard_normal((4, m))
    want = _reference_fgn(h, zeta, n_incr)
    # stale buffer contents must not leak into the transform
    spec = np.full((4, m // 2 + 1), complex(np.nan, np.nan))
    got = _fgn_from_normals(amp, zeta, spec)
    assert got is zeta  # transformed in place
    _assert_close_rel(got[:, :n_incr], want)


def test_fft_batch_matches_complex_ifft_on_partial_grid():
    h, n, seed = 0.7, 16, 8
    grid = GridSpec(0.83, n)
    k = grid.full_steps
    m = 32  # smallest power of two >= 2k for k = 13
    w, cond_std = _partial_step_weights(as_hurst(h), grid)
    assert not w.flags.writeable  # cached and shared between calls
    want = np.zeros((3, 2, grid.num_nodes))
    for r in range(3):
        for c in range(2):
            rng = substream(seed, 2 + r, c)
            incr = _reference_fgn(h, rng.standard_normal(m), k) * n ** (-h)
            want[r, c, 1 : k + 1] = np.cumsum(incr)
            want[r, c, k + 1] = want[r, c, k] + incr @ w + cond_std * rng.standard_normal()
    got = sample_fft_batch(h, grid, seed, 3, components=2, first_replicate=2)
    _assert_close_rel(got, want)


# ---------------------------------------------------------------------------
# sampler distribution checks (frozen seeds, generous statistical bounds)
# ---------------------------------------------------------------------------

def _empirical_cov(batch, grid):
    vals = batch[:, 0, 1:]  # drop the pinned origin
    return vals.T @ vals / len(batch)


@pytest.mark.parametrize("h", [0.55, 0.75])
def test_exact_sampler_matches_covariance(h):
    grid = GridSpec(1.0, 8)
    batch = sample_exact_batch(h, grid, 123, 4000)
    emp = _empirical_cov(batch, grid)
    ts = grid.nodes()[1:]
    cov = fbm_covariance(h, ts[:, None], ts[None, :])
    # entries are averages of products with variance ~ 2 cov_ii cov_jj / M
    tol = 5 * np.sqrt(2.0 / 4000) * np.sqrt(
        np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(emp - cov) < tol)


@pytest.mark.parametrize("h", [0.55, 0.9])
def test_fft_sampler_matches_covariance(h):
    grid = GridSpec(1.0, 8)
    batch = sample_fft_batch(h, grid, 321, 4000)
    emp = _empirical_cov(batch, grid)
    ts = grid.nodes()[1:]
    cov = fbm_covariance(h, ts[:, None], ts[None, :])
    tol = 5 * np.sqrt(2.0 / 4000) * np.sqrt(
        np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(emp - cov) < tol)


def test_fft_partial_node_marginal_variance():
    # terminal node at t = 0.3 on an n = 8 grid exercises the conditional draw
    grid = GridSpec(0.3, 8)
    batch = sample_fft_batch(0.7, grid, 17, 8000)
    last = batch[:, 0, -1]
    var = last.var()
    target = 0.3 ** 1.4
    assert abs(var - target) < 5 * target * np.sqrt(2.0 / 8000)
    # covariance with the last uniform node
    prev = batch[:, 0, -2]
    cov = np.mean(last * prev)
    want = fbm_covariance(0.7, 0.25, 0.3)
    assert abs(cov - want) < 5 * np.sqrt(2.0 / 8000)


def test_fft_sampler_memory_is_output_plus_block_buffers():
    # 32 x 2 paths of 131073 nodes (m = 2^18) on two workers: beyond its
    # output the sampler holds their one-row block buffers only, never a
    # (count, m) temporary
    grid = GridSpec(1.0, 2**17)
    sample_fft_batch(0.75, grid, 1, 1)  # fill the embedding cache untraced
    tracemalloc.start()
    try:
        out = sample_fft_batch(0.75, grid, 1, 32, 2, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 16 * 2**20


def test_exact_cap_enforced():
    with pytest.raises(GridSizeError):
        sample_exact_batch(0.7, GridSpec(2.0, EXACT_NODE_CAP), 0, 1)


def test_components_are_independent_streams():
    grid = GridSpec(1.0, 32)
    values = sample_fft_batch(0.7, grid, 42, 1, components=2)[0]
    assert values.shape == (2, grid.num_nodes)
    assert not np.array_equal(values[0], values[1])
    corr = np.corrcoef(np.diff(values[0]), np.diff(values[1]))
    assert abs(corr[0, 1]) < 0.6  # single path, loose sanity bound


def test_as_hurst_passthrough():
    h = HurstIndex(0.7)
    assert as_hurst(h) is h
    assert as_hurst(0.7) == h
