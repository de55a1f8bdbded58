"""One worker-range dispatch, one path synthesis and one rule builder: only
``fbm.fft_paths`` creates a thread pool, so every sampler and experiment
splits its replicates the same way, only ``fbm.py`` sums increments into
paths, in ``fbm.fft_paths``, and only ``quadrature.py`` builds
Gauss-Legendre rules.  A rate experiment draws only the component its
error depends on."""

import ast
from pathlib import Path

import numpy as np
import pytest

import fbmlab.fbm as fbm
import fbmlab.harness as harness
from fbmlab.fbm import GridSpec, sample_fft_batch
from fbmlab.integrals import indicator_measure

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbmlab"


def call_sites(source: str, name: str) -> list:
    """Lines of ``source`` that call ``name``, bare or as an attribute
    (``futures.ThreadPoolExecutor(...)``, ``np.cumsum(...)``)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                sites.append(node.lineno)
    return sites


def package_sites(name: str) -> dict:
    """Call sites of ``name`` per src module that has any."""
    sites = {p.name: call_sites(p.read_text(), name)
             for p in sorted(PACKAGE.glob("*.py"))}
    return {module: lines for module, lines in sites.items() if lines}


def test_pool_site_is_reported():
    source = ("import concurrent.futures as cf\nfrom concurrent.futures import "
              "ThreadPoolExecutor\nThreadPoolExecutor(2)\n\ncf.ThreadPoolExecutor()\n")
    assert call_sites(source, "ThreadPoolExecutor") == [3, 5]


def enclosing_functions(source: str, line: int) -> list:
    """Names of the functions whose bodies hold ``line`` of ``source``,
    outermost first."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.lineno <= line <= node.end_lineno]


def test_only_fbm_creates_a_thread_pool():
    sites = package_sites("ThreadPoolExecutor")
    assert list(sites) == ["fbm.py"]
    assert len(sites["fbm.py"]) == 1
    # the one pool is fft_paths' own, so every sampler and experiment draws
    # through its worker ranges, and no other dispatch is exported
    source = (PACKAGE / "fbm.py").read_text()
    assert enclosing_functions(source, sites["fbm.py"][0]) == ["fft_paths"]
    assert "fft_ranges" not in fbm.__all__


def test_cumsum_site_is_reported():
    source = ("import numpy as np\nfrom numpy import cumsum\nnp.cumsum(x)\n"
              "cumsum(x, out=y)\nx.cumsum(axis=-1)\n")
    assert call_sites(source, "cumsum") == [3, 4, 5]


def test_only_fbm_sums_increments_into_paths():
    assert list(package_sites("cumsum")) == ["fbm.py"]


def test_only_quadrature_builds_gauss_legendre_rules():
    assert list(package_sites("leggauss")) == ["quadrature.py"]


@pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
def test_cross_component_runs_draw_only_component_i(monkeypatch, pair):
    # E[S_n^2 | B^i] replaces sampling B^j: every synthesis call writes one
    # component, and it is B^i of the two-component batch, bit for bit
    plan = harness.ExperimentPlan(
        hurst=0.75, n_values=(8, 16, 32), integrand=indicator_measure(0.0),
        component_pair=pair, t=0.83, replicates=9, master_seed=4,
        fine_factor=16)
    fine = GridSpec(plan.t, plan.fine_n)
    drawn = {}
    synth = harness.fft_paths

    def spy(h, grid, master_seed, first_replicate, count, take, threads=None,
            components=1, first_component=0):
        assert components == 1

        def spy_take(start, paths):
            assert paths.shape[1] == 1
            for r, path in enumerate(paths[:, 0]):
                drawn[first_replicate + start + r, first_component] = path.copy()
            take(start, paths)

        synth(h, grid, master_seed, first_replicate, count, spy_take, threads,
              components, first_component)

    monkeypatch.setattr(harness, "fft_paths", spy)
    # sub-blocks of one row under two workers, so the ranges of two
    # replicates are handed over in two sub-blocks
    m = 2 * (fbm._embedding_amplitude(plan.hurst, fine.steps,
                                      fine.t_end).shape[0] - 1)
    monkeypatch.setattr(fbm, "BLOCK_VALUES", 2 * m)
    harness.run_rate_experiment(plan, threads=2)
    i = pair[0]
    assert sorted(drawn) == [(r, i - 1) for r in range(9)]
    batch = sample_fft_batch(plan.hurst, fine, plan.master_seed, 9, 2)
    for r in range(9):
        assert np.array_equal(drawn[r, i - 1], batch[r, i - 1])
