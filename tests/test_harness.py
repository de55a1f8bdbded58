"""Rate-experiment orchestration: plans, fits, determinism."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fbmlab.fbm import GridSpec, resolve_threads, sample_fft_batch
from fbmlab.harness import (
    ExperimentPlan,
    PILOT_REPLICATES,
    PlanError,
    _path_errors,
    _replicate_errors,
    default_fine_factor,
    fit_rate,
    run_rate_experiment,
)
from fbmlab.integrals import (
    SignedMeasure,
    crossing_sums,
    indicator_measure,
    riemann_sums,
)


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


def test_resolve_threads():
    assert resolve_threads(3) == 3
    assert resolve_threads(0) == 1


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


def test_rate_experiment_chunking_invariance(monkeypatch):
    # results must not depend on where the worker ranges, the streamed blocks
    # and the synthesis blocks begin and end
    import fbmlab.fbm as fmod
    import fbmlab.harness as hmod

    blocks = []
    synth = hmod.fft_paths

    def spy(h, grid, master_seed, first_replicate, out, workers=1):
        blocks.append(out.shape[0])
        synth(h, grid, master_seed, first_replicate, out, workers)

    monkeypatch.setattr(hmod, "fft_paths", spy)
    for plan in (make_plan(replicates=50),
                 make_plan(replicates=50, component_pair=(1, 2), t=0.83)):
        ref = run_rate_experiment(plan, threads=1)
        fine = GridSpec(plan.t, plan.fine_n)
        m = 2 * (fmod._embedding_amplitude(plan.hurst, fine.full_steps).shape[0] - 1)
        with monkeypatch.context() as patch:
            # synthesis blocks of 2 rows inside streamed blocks of 7
            patch.setattr(fmod, "BLOCK_VALUES", 2 * m)
            patch.setattr(hmod, "GROUP_VALUES", 7 * plan.components * fine.num_nodes)
            # one worker range of 50 replicates; with RANGES_PER_WORKER = 3,
            # six ranges of 8, 8, 9, 8, 8 and 9 under two workers and nine
            # of 5 and 6 under three
            assert fmod.RANGES_PER_WORKER == 3
            for threads, sizes in ((1, [7] * 7 + [1]),
                                   (2, [7, 1] * 4 + [7, 2] * 2),
                                   (3, [5, 6] * 4 + [6])):
                blocks.clear()
                alt = run_rate_experiment(plan, threads=threads)
                assert sorted(blocks) == sorted(sizes)
                assert alt.l2_error == ref.l2_error
                assert alt.stderr == ref.stderr


def test_streamed_errors_equal_materialised_batch(monkeypatch):
    import fbmlab.harness as hmod

    mu = SignedMeasure(((-0.3, 0.5), (0.4, 1.0)), base_constant=0.2)
    for pair in ((2, 2), (2, 1)):
        plan = make_plan(n_values=(8, 16, 32), integrand=mu, t=0.83,
                         replicates=12, component_pair=pair, fine_factor=16)
        fine = GridSpec(plan.t, plan.fine_n)
        batch = sample_fft_batch(plan.hurst, fine, plan.master_seed, 12,
                                 plan.components, first_replicate=5)
        i, j = pair
        want = _path_errors(plan, fine, batch[:, i - 1], batch[:, j - 1])
        # streamed in blocks of 5, 5 and 2 replicates
        monkeypatch.setattr(hmod, "GROUP_VALUES", 5 * 2 * fine.num_nodes)
        np.testing.assert_array_equal(_replicate_errors(plan, 5, 12), want)


def test_replicate_errors_memory_does_not_grow_with_count():
    # 64 replicates on a fine grid of 131073 nodes would be a 67 MB batch;
    # the stream holds one block of about GROUP_VALUES values instead
    plan = make_plan(n_values=(128, 256, 512), fine_factor=256, replicates=64)
    assert 64 * (plan.fine_n + 1) * 8 >= 64 * 2**20
    _replicate_errors(plan, 0, 1)  # fill the embedding cache untraced
    for count in (8, 64):
        tracemalloc.start()
        try:
            _replicate_errors(plan, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20, (count, peak)


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


def _per_path_errors(plan, first, count):
    """The harness's errors from per-row calls of the public batch kernels."""
    fine = GridSpec(plan.t, plan.fine_n)
    batch = sample_fft_batch(plan.hurst, fine, plan.master_seed, count,
                             plan.components, first_replicate=first)
    i, j = plan.component_pair
    atoms = plan.integrand.atoms

    def sign_change(b, a, grid):
        n = grid.points_per_unit
        return n ** (2 * plan.hurst - 1) * crossing_sums(b, fine, a, grid)

    errs = np.empty((len(plan.n_values), count))
    for r in range(count):
        bi, bj = batch[r, i - 1], batch[r, j - 1]
        for gi, n in enumerate(plan.n_values):
            grid = GridSpec(plan.t, n)
            if i == j:
                errs[gi, r] = sum(
                    2 * c * (sign_change(bi, a, grid) - sign_change(bi, a, fine))
                    for a, c in atoms)
            else:
                errs[gi, r] = n ** (2 * plan.hurst - 1) * (
                    riemann_sums(bi, bj, fine, plan.integrand, fine)
                    - riemann_sums(bi, bj, fine, plan.integrand, grid))
    return errs


@pytest.mark.parametrize("kind, pair, t", [
    ("fine_sign_change", (1, 1), 0.83),
    ("fine_riemann", (1, 2), 0.83),
])
def test_batch_errors_match_per_path_route(kind, pair, t):
    mu = SignedMeasure(((-0.3, 0.5), (0.4, 1.0)), base_constant=0.2)
    plan = make_plan(n_values=(8, 16, 32), integrand=mu, t=t, replicates=12,
                     component_pair=pair, fine_factor=16)
    assert plan.reference_kind == kind
    got = _replicate_errors(plan, 5, 12)
    want = _per_path_errors(plan, 5, 12)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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
