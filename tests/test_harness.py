"""Rate-experiment orchestration: plans, fits, determinism."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fbmlab.fbm as fmod
import fbmlab.harness as harness
from fbmlab.fbm import GridSpec, fbm_covariance, resolve_threads, sample_fft_batch
from fbmlab.harness import (
    ExperimentPlan,
    PILOT_REPLICATES,
    PlanError,
    _collect,
    _path_errors,
    default_fine_factor,
    fit_rate,
    run_rate_experiment,
)
from fbmlab.integrals import SignedMeasure, crossing_sums, indicator_measure
from riemann_reference import integrand, riemann_sums

TWO_ATOMS = SignedMeasure(((-0.3, 0.5), (0.4, 1.0)))


def make_plan(**kw):
    base = dict(hurst=0.75, n_values=(16, 32, 64, 128),
                integrand=indicator_measure(0.0), replicates=100,
                master_seed=1)
    base.update(kw)
    return ExperimentPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(hurst=0.5)  # rate results need H > 1/2
    with pytest.raises(PlanError):
        make_plan(n_values=(64, 32))
    with pytest.raises(PlanError, match="n_values"):
        make_plan(n_values=(0, 16, 64))
    for factor in (-3, 1):  # at 1 the reference is the n_max grid itself
        with pytest.raises(PlanError, match="fine_factor"):
            make_plan(fine_factor=factor)
    for t in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(PlanError, match="^t must"):
            make_plan(t=t)
    with pytest.raises(PlanError):
        make_plan(n_values=(16, 32, 48))  # under 2 octaves
    for ns in ((), (16,), (16, 64)):  # a rate fit needs three points
        with pytest.raises(PlanError, match="n_values"):
            make_plan(n_values=ns)
    for pair in ((1, 3), (0, 0), (1,), (1, 2, 1)):
        with pytest.raises(PlanError):
            make_plan(component_pair=pair)
    with pytest.raises(PlanError):
        make_plan(replicates=-5)  # 0 means auto-scale; below 0 is an error
    with pytest.raises(PlanError, match="replicates"):
        make_plan(replicates=1)  # no stderr from one replicate
    # integers only: a float is refused, not truncated, in the field it is in
    for field, value in (("n_values", (8.7, 16, 32)), ("replicates", 2.5),
                         ("fine_factor", 2.5), ("n_values", (8, 16, 32.0)),
                         ("component_pair", (1.0, 2.0))):
        with pytest.raises(PlanError, match=f"^{field} takes integers"):
            make_plan(**{field: value})
    plan = make_plan(n_values=(np.int64(8), 16, 32), replicates=np.int64(4),
                     fine_factor=np.int64(2), component_pair=[np.int64(1), 2])
    assert [type(v) for v in (*plan.n_values, plan.replicates, plan.fine_factor,
                              *plan.component_pair)] == [int] * 7
    assert plan.component_pair == (1, 2)


@pytest.mark.parametrize("pair, hurst, t", [((1, 2), 0.9, 1e-300),
                                            ((1, 1), 0.99, 1e-320)])
def test_plan_refuses_a_horizon_whose_normaliser_overflows(pair, hurst, t):
    # (n/t)^{4H-2} at i != j and (n/t)^{2H-1} at i = j, built with the plan
    with pytest.raises(PlanError, match="^t is too small"):
        make_plan(component_pair=pair, hurst=hurst, t=t)
    make_plan(component_pair=pair, hurst=hurst, t=1e-100)


@pytest.mark.parametrize("pair", [(1, 1), (1, 2)])
def test_kernels_build_no_grid_per_sub_block(monkeypatch, pair):
    # the plan built its route's grids and normalisers; each sub-block's
    # kernels reuse them
    plan = make_plan(n_values=(8, 16, 32), integrand=TWO_ATOMS,
                     component_pair=pair, fine_factor=16, t=0.83)
    fine = GridSpec(plan.t, plan.fine_n)
    bi = sample_fft_batch(plan.hurst, fine, 23, 4)[:, 0]
    want = _path_errors(plan, fine, bi)

    def no_grid(*args):
        raise AssertionError("built a GridSpec")

    monkeypatch.setattr(harness, "GridSpec", no_grid)
    np.testing.assert_array_equal(_path_errors(plan, fine, bi), want)


def test_plan_rejects_n_values_off_the_reference_grid():
    # 48 does not divide fine_n = 16 * 64; caught by the plan, before any
    # worker samples a path
    with pytest.raises(PlanError, match="n_values"):
        make_plan(n_values=(16, 48, 64), fine_factor=16)
    assert make_plan(n_values=(16, 48, 64), fine_factor=3).fine_n == 192


def test_plan_takes_nonnegative_integer_seeds_only():
    # refused when the plan is built, before any worker samples a path
    for seed in (1.7, 1.9, -1, "3"):
        with pytest.raises(PlanError, match="master_seed"):
            make_plan(master_seed=seed)
    plan = make_plan(master_seed=np.int64(3), replicates=20)
    assert type(plan.master_seed) is int
    want = run_rate_experiment(make_plan(master_seed=3, replicates=20), threads=1)
    got = run_rate_experiment(plan, threads=1)
    assert (got.l2_error, got.stderr) == (want.l2_error, want.stderr)


def test_plan_samples_the_highest_named_component():
    assert [make_plan(component_pair=p).components
            for p in ((1, 1), (1, 2), (2, 1), (2, 2))] == [1, 2, 2, 2]


def test_component_pair_picks_the_reference():
    kinds = [make_plan(component_pair=p).reference_kind
             for p in ((1, 1), (1, 2), (2, 1), (2, 2))]
    assert kinds == ["fine_sign_change", "fine_riemann", "fine_riemann",
                     "fine_sign_change"]


def test_default_fine_factor():
    assert default_fine_factor(0.75, (2, 2)) == 16
    # Riemann reference needs 100^{1/(2H-1)}-fold refinement, capped at 256
    assert default_fine_factor(0.98, (1, 2)) == 128
    assert default_fine_factor(0.75, (2, 1)) == 256
    assert make_plan(component_pair=(1, 2)).fine_factor == 256
    # just above H = 1/2, 100^{1/(2H-1)} overflows a float; the cap holds
    assert default_fine_factor(0.501, (1, 2)) == 256
    assert default_fine_factor(0.5000001, (1, 2)) == 256


def test_resolve_threads():
    assert resolve_threads(3) == 3
    for bad in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            resolve_threads(bad)
    # a fractional cap is refused, not truncated; a numpy integer is one
    for bad in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            resolve_threads(bad)
    assert resolve_threads(np.int64(2)) == 2


def test_fit_rate_recovers_exact_power_law():
    pts = [(n, 3.0 * n ** -0.125, 0.01 * n ** -0.125) for n in (16, 32, 64, 128)]
    fit = fit_rate(pts)
    assert fit["slope"] == pytest.approx(-0.125, abs=1e-10)
    assert fit["intercept"] == pytest.approx(np.log2(3.0), abs=1e-9)


def test_fit_rate_needs_three_points():
    with pytest.raises(PlanError):
        fit_rate([(16, 1.0, 0.1), (32, 0.5, 0.05)])


def test_fit_rate_rejects_zero_stderr():
    # the fit is weighted by 1/stderr^2: a zero stderr has no weight to give
    with pytest.raises(PlanError):
        fit_rate([(16, 1.0, 0.1), (32, 0.5, 0.0), (64, 0.25, 0.02)])


def test_rate_experiment_smoke_and_determinism():
    plan = make_plan()
    r1 = run_rate_experiment(plan, threads=1)
    r4 = run_rate_experiment(plan, threads=4)
    assert r1.l2_error == r4.l2_error
    assert r1.slope == r4.slope
    assert r1.replicates == 100
    assert all(l2 > 0 for l2 in r1.l2_error)


def _embedding_size(plan):
    """The circulant embedding size m of the plan's fine grid: a synthesis
    sub-block of ``fbm.BLOCK_VALUES`` = s m holds s rows for one worker."""
    fine = GridSpec(plan.t, plan.fine_n)
    return 2 * (fmod._embedding_amplitude(
        plan.hurst, fine.steps, fine.t_end).shape[0] - 1)


def test_rate_experiment_chunking_invariance(monkeypatch):
    # results must not depend on where the worker ranges and the synthesis
    # sub-blocks handed to the kernels begin and end
    import fbmlab.harness as hmod

    blocks = []
    synth = hmod.fft_paths

    def spy(h, grid, master_seed, first_replicate, count, take, threads=None,
            components=1, first_component=0):
        def spy_take(start, paths):
            blocks.append(paths.shape[0])
            take(start, paths)

        synth(h, grid, master_seed, first_replicate, count, spy_take, threads,
              components, first_component)

    monkeypatch.setattr(hmod, "fft_paths", spy)
    for plan in (make_plan(replicates=50),
                 make_plan(replicates=50, component_pair=(1, 2), t=0.83)):
        ref = run_rate_experiment(plan, threads=1)
        with monkeypatch.context() as patch:
            # sub-blocks of 6 rows for one worker, 3 for two and 2 for three
            patch.setattr(fmod, "BLOCK_VALUES", 6 * _embedding_size(plan))
            # one worker range of 50 replicates; with RANGES_PER_WORKER = 3,
            # six ranges of 8, 8, 9, 8, 8 and 9 under two workers and nine
            # of 5 and 6 under three
            assert fmod.RANGES_PER_WORKER == 3
            for threads, sizes in ((1, [6] * 8 + [2]),
                                   (2, [3, 3, 2] * 4 + [3, 3, 3] * 2),
                                   (3, [2, 2, 1] * 4 + [2, 2, 2] * 5)):
                blocks.clear()
                alt = run_rate_experiment(plan, threads=threads)
                assert sorted(blocks) == sorted(sizes)
                assert alt.l2_error == ref.l2_error
                assert alt.stderr == ref.stderr


def test_one_crossing_call_per_atom_per_sub_block(monkeypatch):
    # at i = j the kernels take every coarse grid and the fine grid in one
    # crossing_sums call per atom, whatever the number of n values: each
    # call has a fixed cost of tens of microseconds, and the kernels run on
    # every synthesis sub-block
    import fbmlab.harness as hmod

    calls, blocks = [], []
    kernel, synth = hmod.crossing_sums, hmod.fft_paths

    def spy_kernel(values, fine, a, grids, weights=None):
        calls.append(len(values))
        return kernel(values, fine, a, grids, weights)

    def spy_synth(*args, **kw):
        take = args[5]

        def spy_take(start, paths):
            blocks.append(len(paths))
            take(start, paths)

        synth(*args[:5], spy_take, *args[6:], **kw)

    monkeypatch.setattr(hmod, "crossing_sums", spy_kernel)
    monkeypatch.setattr(hmod, "fft_paths", spy_synth)
    for mu in (indicator_measure(0.0), TWO_ATOMS):
        plan = make_plan(integrand=mu, replicates=30, t=0.83)
        with monkeypatch.context() as patch:
            patch.setattr(fmod, "BLOCK_VALUES", 4 * _embedding_size(plan))
            calls.clear()
            blocks.clear()
            run_rate_experiment(plan, threads=1)
        assert blocks == [4] * 7 + [2]
        assert calls == [b for b in blocks for _ in mu.atoms]


def test_streamed_errors_equal_materialised_batch(monkeypatch):
    for pair in ((2, 2), (2, 1)):
        plan = make_plan(n_values=(8, 16, 32), integrand=TWO_ATOMS, t=0.83,
                         replicates=12, component_pair=pair, fine_factor=16)
        fine = GridSpec(plan.t, plan.fine_n)
        batch = sample_fft_batch(plan.hurst, fine, plan.master_seed, 12,
                                 plan.components, first_replicate=5)
        want = _path_errors(plan, fine, batch[:, pair[0] - 1])
        # streamed in sub-blocks of 5, 5 and 2 replicates
        monkeypatch.setattr(fmod, "BLOCK_VALUES", 5 * _embedding_size(plan))
        np.testing.assert_array_equal(_collect(plan, 5, 17, 1), want)


def test_collect_memory_does_not_grow_with_count():
    # 64 replicates on a fine grid of 131073 nodes would be a 67 MB batch;
    # the stream holds the synthesis's two sub-block buffers (2 MB each at
    # one row of the 2^18-value embedding) and one row's kernel temporaries
    plan = make_plan(n_values=(128, 256, 512), fine_factor=256, replicates=64)
    assert 64 * (plan.fine_n + 1) * 8 >= 64 * 2**20
    _collect(plan, 0, 1, 1)  # fill the embedding cache untraced
    for count in (8, 64):
        tracemalloc.start()
        try:
            _collect(plan, 0, count, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.27 MB measured at both counts (11.0 MB with a path buffer of
        # its own per block of replicates); a sub-block holds at least one
        # row, so the 2^17-value budget leaves it as it was at 2^18
        assert peak <= 6 * 2**20, (count, peak)


@pytest.mark.parametrize("t", [1.0, 0.83])
def test_two_worker_run_holds_a_few_sub_blocks(t):
    # at fine_n 16384 (an embedding of 2^15 values) each of two workers
    # synthesises sub-blocks of 2^16 values, two buffers of 0.5 MB, and hands
    # them to the kernels; a path buffer of its own per block of 2^20 values
    # (8.3 MB) took the peak to 19.8 MB at t = 1 and 29-31 MB at t = 0.83,
    # and sub-blocks of 2^17 values to 4.3 and 5.3 MB, against 2.2 and 2.4 MB
    # measured here
    plan = make_plan(n_values=(64, 128, 256, 512, 1024), t=t, replicates=400,
                     fine_factor=16)
    assert plan.fine_n == 16384
    run_rate_experiment(plan, threads=2)  # fill the caches untraced
    tracemalloc.start()
    try:
        run_rate_experiment(plan, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20, peak


# VmHWM is the peak RSS since exec.  ru_maxrss will not do: Linux carries
# the spawning process's peak across exec, so under a larger pytest both
# readings are pytest's own peak and the growth reads 0 whatever the run
_TWO_THREAD_GROWTH_SCRIPT = """
from fbmlab.harness import ExperimentPlan, run_rate_experiment
from fbmlab.integrals import indicator_measure


def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))


plan = ExperimentPlan(0.75, (128, 256, 512), indicator_measure(0.0),
                      component_pair=(1, 2), replicates=8, master_seed=1,
                      fine_factor=256)
assert plan.fine_n == 131072
base = peak_kib()
run_rate_experiment(plan, threads=1)
one = peak_kib()
run_rate_experiment(plan, threads=2)
print(base, one, peak_kib())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_two_thread_run_reuses_the_callers_arena():
    # in a fresh interpreter, a one-thread run at i != j on a fine grid of
    # 131072 steps (m = 2^18) fills the caller's malloc arena with one
    # worker's synthesis buffers, the normals and their spectrum, about m
    # float64 each.  A two-thread run draws on the calling thread and one
    # pool thread, so it adds one worker's buffers, in the pool thread's
    # arena, not two: 4.2-4.3 MB here (the peaks read 15.4-15.5 and 19.7 MB
    # above the import baseline).  With the caller idle and two pool
    # threads drawing, it added 7.5-7.6 MB (25.3-25.5 and 32.9-33.0 MB).
    # The growth, not the one-thread peak, is bounded: until the embedding
    # spectrum came from a real transform, its 20 MB transient in set-up
    # was the one-thread peak and hid the workers (growth 0.0 MB)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _TWO_THREAD_GROWTH_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    base, one, two = (int(v) for v in proc.stdout.split())
    worker_kib = 2 * 8 * 2**18 // 1024
    assert two - one <= 1.5 * worker_kib, (
        f"two-thread run added {(two - one) / 1024:.1f} MB (peaks "
        f"{(one - base) / 1024:.1f} and {(two - base) / 1024:.1f} MB above "
        f"import), one worker's buffers are {worker_kib / 1024:.1f} MB")


def test_auto_scaled_run_extends_the_pilot():
    # the extension continues from replicate id PILOT_REPLICATES, so an
    # auto-scaled run equals a fixed run of the replicates it settled on
    plan = make_plan(n_values=(16, 32, 64), integrand=indicator_measure(1.5),
                     replicates=0, master_seed=3)
    auto = run_rate_experiment(plan, threads=2)
    assert auto.replicates > PILOT_REPLICATES
    fixed = run_rate_experiment(replace(plan, replicates=auto.replicates), threads=1)
    assert auto.l2_error == fixed.l2_error
    assert auto.stderr == fixed.stderr


def _dense_cross_moments(plan, fine, bi):
    """E[S_n^2 | B^i] at i != j as the dense form (n/t)^{4H-2} g'Dg, per row
    of ``bi``: g_m = f(B^i_m) - f(B^i at the left node of step m's coarse
    step) and D the covariance of the fine increments of B^j."""
    times = fine.nodes()
    cov = fbm_covariance(plan.hurst, times[:, None], times[None, :])
    incr_cov = np.diff(np.diff(cov, axis=0), axis=1)
    out = np.empty((len(plan.n_values), bi.shape[0]))
    for gi, n in enumerate(plan.n_values):
        r = fine.refinement_of(GridSpec(plan.t, n))
        left = np.arange(fine.num_nodes - 1) // r * r
        for row, path in enumerate(bi):
            v = integrand(plan.integrand, path)
            g = v[:-1] - v[left]
            out[gi, row] = ((n / plan.t) ** (4 * plan.hurst - 2)
                            * g @ incr_cov @ g)
    return out


def _per_path_errors(plan, first, count):
    """The harness's per-replicate second moments from per-row calls of the
    public batch kernels at i = j, and from the dense form at i != j."""
    fine = GridSpec(plan.t, plan.fine_n)
    batch = sample_fft_batch(plan.hurst, fine, plan.master_seed, count,
                             plan.components, first_replicate=first)
    i, j = plan.component_pair
    if i != j:
        return _dense_cross_moments(plan, fine, batch[:, i - 1])
    atoms = plan.integrand.atoms

    def sign_change(b, a, grid):
        return ((grid.steps / plan.t) ** (2 * plan.hurst - 1)
                * crossing_sums(b, fine, a, grid))

    errs = np.empty((len(plan.n_values), count))
    for r in range(count):
        bi = batch[r, i - 1]
        for gi, n in enumerate(plan.n_values):
            grid = GridSpec(plan.t, n)
            errs[gi, r] = sum(
                2 * c * (sign_change(bi, a, grid) - sign_change(bi, a, fine))
                for a, c in atoms)
    return errs**2


@pytest.mark.parametrize("kind, pair, t", [
    ("fine_sign_change", (1, 1), 0.83),
    ("fine_riemann", (1, 2), 0.83),
])
def test_batch_errors_match_per_path_route(kind, pair, t):
    plan = make_plan(n_values=(8, 16, 32), integrand=TWO_ATOMS, t=t,
                     replicates=12, component_pair=pair, fine_factor=16)
    assert plan.reference_kind == kind
    got = _collect(plan, 5, 17, 1)
    want = _per_path_errors(plan, 5, 12)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("t", [1.0, 0.83])
@pytest.mark.parametrize("mu", [indicator_measure(0.0), TWO_ATOMS],
                         ids=["indicator", "two_atoms"])
def test_cross_moments_equal_the_dense_form(mu, t):
    # the variogram form over the support nodes is the dense quadratic form
    # in all fine increments, at t = 1 and t = 0.83
    plan = make_plan(n_values=(8, 16, 32), integrand=mu, t=t,
                     component_pair=(1, 2), fine_factor=16)
    fine = GridSpec(plan.t, plan.fine_n)
    assert fine.num_nodes <= 513
    bi = sample_fft_batch(plan.hurst, fine, 23, 16)[:, 0]
    got = _path_errors(plan, fine, bi)
    want = _dense_cross_moments(plan, fine, bi)
    assert (want > 0).sum() >= 30
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_cross_moments_are_the_mean_over_independent_bj():
    # given B^i, the mean of the squared Riemann-sum error over independent
    # B^j is E[S_n^2 | B^i]
    plan = make_plan(n_values=(8, 16, 32), integrand=TWO_ATOMS,
                     component_pair=(1, 2), fine_factor=8)
    fine = GridSpec(plan.t, plan.fine_n)
    bi = sample_fft_batch(plan.hurst, fine, 2301, 3)[:, 0]
    bj = sample_fft_batch(plan.hurst, fine, 2302, 4000)[:, 0]
    moments = _path_errors(plan, fine, bi)
    for row, path in enumerate(bi):
        ref = riemann_sums(path, bj, fine, plan.integrand, fine)
        for gi, n in enumerate(plan.n_values):
            grid = GridSpec(plan.t, n)
            sq = (n ** (2 * plan.hurst - 1)
                  * (ref - riemann_sums(path, bj, fine, plan.integrand, grid)))**2
            assert moments[gi, row] > 0
            z = (sq.mean() - moments[gi, row]) / (sq.std(ddof=1) / np.sqrt(len(sq)))
            assert abs(z) < 4, (row, n, z)


@pytest.mark.parametrize("pair", [(1, 1), (1, 2)])
def test_rate_experiment_scales_with_the_horizon(pair):
    # S_n on n equal steps of [0, t] at level a is t^{1-H} times S_n on
    # [0, 1] at level a t^{-H}, path by path from the same streams, at i = j
    # through the crossing sums and at i != j through E[S_n^2 | B^i]
    t, a = 0.83, 0.3

    def l2(t, level):
        plan = make_plan(n_values=(16, 32, 64), t=t, replicates=40,
                         integrand=indicator_measure(level),
                         component_pair=pair, fine_factor=32)
        assert plan.fine_n == 2048
        report = run_rate_experiment(plan, threads=1)
        assert min(report.l2_error) > 0
        return np.array(report.l2_error), np.array(report.stderr)

    got, unit = l2(t, a), l2(1.0, a * t**-0.75)
    np.testing.assert_allclose(got, t**0.25 * np.array(unit), rtol=1e-12, atol=0)


def test_rate_report_rows():
    report = run_rate_experiment(make_plan(replicates=60), threads=2)
    rows = list(report.rows())
    assert len(rows) == 4
    assert rows[0]["H"] == 0.75
    assert {"n", "l2_error", "stderr", "slope", "pass"} <= set(rows[0])
    # the paper's rate -(1-H)/2 is reported beside the gate 0.2 above it
    assert report.paper_slope == -0.125
    assert report.gate_slope == pytest.approx(0.075, abs=1e-15)
    assert report.passed == (report.slope <= report.gate_slope)


def test_degenerate_empty_measure():
    plan = make_plan(integrand=SignedMeasure(()), replicates=40)
    report = run_rate_experiment(plan, threads=1)
    assert report.passed
    assert all(l2 == 0 for l2 in report.l2_error)


def test_budget_guard():
    plan = make_plan(n_values=(2 ** 14, 2 ** 16, 2 ** 18), fine_factor=256)
    with pytest.raises(PlanError):
        plan.check_budget(10_000)
