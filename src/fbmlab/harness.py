"""Monte Carlo orchestration: discretisation-error experiments and rate fits.

Each worker thread of ``fbm.fft_ranges`` takes contiguous ranges of
replicates and works through each range in blocks of consecutive
replicates of about ``GROUP_VALUES`` path values.  ``fbm.fft_paths``
writes a block's paths into one reused buffer, so no batch of all the
range's paths is ever held and a worker's memory does not grow with the
replicate count.  The crossing and Riemann kernels of ``integrals``
evaluate the normalised discretisation error S_n on every coarse
resolution n from the same block (common random numbers), for all of the
block's replicates at once, together with the local-time limit functional
from the fine grid.
L2 errors per (H, n) cell are reduced in a fixed order and substreams are
keyed by absolute replicate id, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from .fbm import BLOCK_VALUES, GridSpec, as_hurst, fft_paths, fft_ranges
from .integrals import SignedMeasure, crossing_sums, riemann_sums

__all__ = [
    "ExperimentPlan",
    "RateReport",
    "PlanError",
    "fit_rate",
    "run_rate_experiment",
    "default_fine_factor",
]

PILOT_REPLICATES = 200
REPLICATE_CAP = 10_000
# cap on replicates x fine-grid nodes to keep runs desk-scale
BUDGET_VALUES = 2e10
# path values per block of replicates: every kernel call on a block hands the
# interpreter lock between worker threads, so a block spans several synthesis
# blocks
GROUP_VALUES = 4 * BLOCK_VALUES


class PlanError(ValueError):
    pass


def default_fine_factor(h, component_pair) -> int:
    """16 for equal components (sign-change reference); for distinct ones
    (Riemann reference), enough that the reference's own n^{1-2H} bias is
    two orders below the target."""
    i, j = component_pair
    if i == j:
        return 16
    hv = as_hurst(h).value
    need = 100.0 ** (1.0 / (2 * hv - 1))
    f = 16
    while f < need and f < 256:
        f *= 2
    return f


@dataclass(frozen=True)
class ExperimentPlan:
    hurst: float
    n_values: tuple
    integrand: SignedMeasure
    component_pair: tuple = (1, 1)
    t: float = 1.0
    replicates: int = 0  # 0 = auto-scale (pilot, then stderr <= 10% of l2)
    master_seed: int = 0
    fine_factor: int = 0  # 0 = default for the component pair

    def __post_init__(self):
        as_hurst(self.hurst).require_rough_regime()
        ns = tuple(int(n) for n in self.n_values)
        object.__setattr__(self, "n_values", ns)
        if len(ns) < 3:
            raise PlanError(f"n_values needs at least 3 values for a rate "
                            f"fit, got {ns}")
        if any(n < 1 for n in ns):
            raise PlanError(f"n_values must all be >= 1, got {ns}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise PlanError("n values must be strictly increasing")
        if ns[-1] < 4 * ns[0]:
            raise PlanError("n values must span at least 2 octaves")
        pair = tuple(self.component_pair)
        if len(pair) != 2 or not set(pair) <= {1, 2}:
            raise PlanError(f"component pair {pair} must name two components "
                            "from {1, 2}")
        if not 0.0 < self.t < np.inf:
            raise PlanError(f"t must be positive and finite, got {self.t}")
        if self.replicates < 0 or self.replicates == 1:
            raise PlanError("replicates must be 0 (auto-scale) or >= 2 (the "
                            f"stderr needs two), got {self.replicates}")
        if self.fine_factor < 0 or self.fine_factor == 1:
            # at 1 the reference would be the n_max grid itself
            raise PlanError("fine_factor must be 0 (default for the component "
                            f"pair) or >= 2, got {self.fine_factor}")
        try:
            seed = operator.index(self.master_seed)
        except TypeError:
            seed = None
        if seed is None or seed < 0:
            raise PlanError(f"master_seed must be a nonnegative integer, got "
                            f"{self.master_seed!r}")
        object.__setattr__(self, "master_seed", seed)
        if self.fine_factor == 0:
            object.__setattr__(self, "fine_factor",
                               default_fine_factor(self.hurst, pair))
        bad = [n for n in ns if self.fine_n % n]
        if bad:
            raise PlanError(f"n_values {bad} do not divide the reference grid "
                            f"fine_n = {self.fine_n}")

    @property
    def reference_kind(self) -> str:
        """At i = j S_n has a closed form as a crossing sum; at i != j the
        reference is a Riemann sum on the fine grid."""
        i, j = self.component_pair
        return "fine_sign_change" if i == j else "fine_riemann"

    @property
    def fine_n(self) -> int:
        return self.n_values[-1] * self.fine_factor

    @property
    def components(self) -> int:
        return max(self.component_pair)

    def check_budget(self, replicates: int) -> None:
        if replicates * (self.fine_n * self.t + 2) > BUDGET_VALUES:
            raise PlanError("plan exceeds the value-count budget")


@dataclass(frozen=True)
class RateReport:
    hurst: float
    n_values: tuple
    l2_error: tuple
    stderr: tuple
    replicates: int
    slope: float
    half_width: float
    paper_slope: float  # the proved rate -(1-H)/2
    gate_slope: float  # the pass gate: slope <= paper_slope + 0.2
    passed: bool
    unusable: tuple = ()  # cells excluded from the fit (stderr > l2)
    wall_time: float = 0.0

    def rows(self):
        for n, l2, se in zip(self.n_values, self.l2_error, self.stderr):
            yield {
                "H": self.hurst, "n": n, "l2_error": l2, "stderr": se,
                "replicates": self.replicates, "slope": self.slope,
                "half_width": self.half_width, "pass": self.passed,
            }


def fit_rate(points):
    """Weighted least squares of log2(l2) on log2(n).

    ``points`` is a list of (n, l2_error, stderr); weights come from the
    delta-method error of log2(l2), so every stderr must be positive.
    half_width is twice the slope's standard error.
    """
    points = [p for p in points if p[1] > 0]
    if len(points) < 3:
        raise PlanError("need at least 3 usable points for a rate fit")
    n = np.array([p[0] for p in points], dtype=float)
    l2 = np.array([p[1] for p in points], dtype=float)
    se = np.array([p[2] for p in points], dtype=float)
    x = np.log2(n)
    y = np.log2(l2)
    sig = se / (l2 * np.log(2.0))
    if not np.all(sig > 0):
        raise PlanError("every point of a rate fit needs a positive stderr")
    w = 1.0 / sig**2
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    slope = float((w * (x - xbar) * (y - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    slope_se = float(np.sqrt(1.0 / sxx))
    return {"slope": slope, "intercept": intercept, "half_width": 2 * slope_se}


def _path_errors(plan: ExperimentPlan, fine: GridSpec, bi: np.ndarray,
                 bj: np.ndarray) -> np.ndarray:
    """Errors S_n - delta_ij * limit of the paths ``bi``, ``bj`` (components
    i and j, shape (rows, nodes) on ``fine``); shape (len(n_values), rows)."""
    hv = as_hurst(plan.hurst).value
    grids = [GridSpec(plan.t, n) for n in plan.n_values]
    atoms = plan.integrand.atoms

    def sign_change(a, grid):  # closed-form S_n of 1_{x > a}, per replicate
        n = grid.points_per_unit
        return n ** (2 * hv - 1) * crossing_sums(bi, fine, a, grid)

    errs = np.empty((len(grids), bi.shape[0]))
    i, j = plan.component_pair
    if i == j:
        # closed-form route: S_n per atom, limit from the fine grid
        fine_sc = {a: sign_change(a, fine) for a, _ in atoms}
        for gi, grid in enumerate(grids):
            e = np.zeros(bi.shape[0])
            for a, c in atoms:
                e += 2 * c * (sign_change(a, grid) - fine_sc[a])
            errs[gi] = e
    else:
        # i != j: Riemann reference, no limit term
        ref = riemann_sums(bi, bj, fine, plan.integrand, fine)
        for gi, grid in enumerate(grids):
            n = grid.points_per_unit
            errs[gi] = n ** (2 * hv - 1) * (
                ref - riemann_sums(bi, bj, fine, plan.integrand, grid))
    return errs


def _replicate_errors(plan: ExperimentPlan, first: int, count: int,
                      workers: int = 1) -> np.ndarray:
    """Errors S_n - delta_ij * limit for replicates [first, first+count),
    shape (len(n_values), count), from blocks of about ``GROUP_VALUES``
    path values drawn in turn into one reused buffer; ``workers`` goes to
    ``fft_paths``."""
    fine = GridSpec(plan.t, plan.fine_n)
    i, j = plan.component_pair
    step = max(1, GROUP_VALUES // (plan.components * fine.num_nodes))
    paths = np.empty((min(step, count), plan.components, fine.num_nodes))
    errs = np.empty((len(plan.n_values), count))
    for start in range(0, count, step):
        block = paths[:count - start]
        fft_paths(plan.hurst, fine, plan.master_seed, first + start, block,
                  workers)
        errs[:, start:start + len(block)] = _path_errors(
            plan, fine, block[:, i - 1], block[:, j - 1])
    return errs


def _collect(plan: ExperimentPlan, first: int, total: int, threads) -> np.ndarray:
    """Errors of replicates [first, total), shape (len(n_values), total - first).

    The workers take ``fbm.RANGES_PER_WORKER`` contiguous ranges each, so
    they allocate path buffers a fixed number of times whatever the
    replicate count; ``fbm.fft_paths`` allocates its synthesis buffers once
    per block."""
    out = np.empty((len(plan.n_values), total - first))

    def work(a, b, workers):
        out[:, a - first:b - first] = _replicate_errors(plan, a, b - a, workers)

    fft_ranges(plan.hurst, GridSpec(plan.t, plan.fine_n), first, total,
               threads, work)
    return out


def _l2_and_stderr(errs: np.ndarray):
    sq = errs**2
    mean_sq = sq.mean(axis=1)
    l2 = np.sqrt(mean_sq)
    m = errs.shape[1]
    std_sq = sq.std(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.where(l2 > 0, std_sq / (2 * np.maximum(l2, 1e-300) * np.sqrt(m)), 0.0)
    return l2, se


def run_rate_experiment(plan: ExperimentPlan, threads=None) -> RateReport:
    """Estimate l2(n) = ||S_n - delta_ij integral L dmu||_{L2} per n and
    fit the log-log rate; passes when slope <= -(1-H)/2 + 0.2 (the bound
    is one-sided, so faster decay also passes)."""
    start = time.monotonic()
    hv = as_hurst(plan.hurst).value

    if plan.replicates > 0:
        total = plan.replicates
        plan.check_budget(total)
        errs = _collect(plan, 0, total, threads)
    else:
        plan.check_budget(PILOT_REPLICATES)
        errs = _collect(plan, 0, PILOT_REPLICATES, threads)
        l2, se = _l2_and_stderr(errs)
        needed = PILOT_REPLICATES
        for l2_c, se_c in zip(l2, se):
            if l2_c > 0 and se_c > 0:
                needed = max(needed, int(np.ceil(
                    PILOT_REPLICATES * (se_c / (0.1 * l2_c)) ** 2)))
        total = min(needed, REPLICATE_CAP)
        plan.check_budget(total)
        # extend deterministically from the pilot's last replicate id
        if total > PILOT_REPLICATES:
            more = _collect(plan, PILOT_REPLICATES, total, threads)
            errs = np.concatenate([errs, more], axis=1)

    l2, se = _l2_and_stderr(errs)
    usable = [(n, l2_c, se_c) for n, l2_c, se_c in zip(plan.n_values, l2, se)
              if l2_c > 0 and se_c <= l2_c]
    unusable = tuple(n for n, l2_c, se_c in zip(plan.n_values, l2, se)
                     if not (l2_c > 0 and se_c <= l2_c))
    paper = -(1 - hv) / 2
    if all(l2_c == 0 for l2_c in l2):
        # degenerate plan (e.g. empty measure): flag rather than fit
        return RateReport(hv, plan.n_values, tuple(l2), tuple(se),
                          errs.shape[1], 0.0, 0.0, paper, 0.0, True, unusable,
                          time.monotonic() - start)
    fit = fit_rate(usable)
    gate = paper + 0.2
    return RateReport(
        hv, plan.n_values, tuple(l2), tuple(se), errs.shape[1],
        fit["slope"], fit["half_width"], paper, gate,
        bool(fit["slope"] <= gate), unusable, time.monotonic() - start,
    )
