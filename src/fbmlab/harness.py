"""Monte Carlo orchestration: discretisation-error experiments and rate fits.

Each worker of ``fbm.fft_ranges`` takes contiguous ranges of replicates;
the calling thread is one of them, because the set-up and any one-thread
run have already filled its malloc arena, so a run of w workers adds the
arenas of w - 1 pool threads, not w.  ``fbm.fft_paths`` hands each
range's paths of component i, the only component drawn, to the kernels
one synthesis sub-block at a time, straight from its own buffer.  So no
path outlives its sub-block, and a worker's memory is the synthesis's two
sub-block buffers whatever the replicate count.  Each replicate gives one
second moment per coarse resolution n, all from the same path (common
random numbers), for all of the sub-block's replicates at once:

* at i = j, the squared error (S_n - integral of L dmu)^2, with S_n the
  closed-form crossing sum of ``integrals`` and the local-time limit
  functional from the fine grid, all grids in one ``crossing_sums`` call
  per atom and sub-block;
* at i != j, the conditional second moment E[S_n^2 | B^i] of
  S_n = n^{2H-1} (fine Riemann sum - coarse Riemann sum) of f(B^i) dB^j.
  B^j is independent of B^i, so given B^i, S_n is a centred Gaussian whose
  variance is one small fBm-covariance quadratic form (``_cross_moments``),
  and B^j is never drawn (conditional Monte Carlo).

l2 is the square root of the mean second moment, so at i != j it
estimates the same ||S_n||_{L2} as sampled squares would, with less
variance.  The cells are reduced in a fixed order and substreams are
keyed by absolute replicate id, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fbm import GridSpec, as_hurst, fft_paths, fft_ranges
from .integrals import SignedMeasure, crossing_sums

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
        try:
            GridSpec(self.t, ns[0])
        except ValueError as exc:
            raise PlanError(str(exc)) from None
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
    """``l2_error[k]`` is the square root of the mean over replicates of a
    second moment at ``n_values[k]``: the squared error (S_n - integral of
    L dmu)^2 at i = j, and E[S_n^2 | B^i] at i != j, whose mean is the same
    ||S_n||^2_{L2}.  ``stderr`` is the delta-method standard error of l2
    from the spread of those second moments, so at i != j it counts the
    variation of B^i only."""

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


def _cross_moments(plan: ExperimentPlan, fine: GridSpec,
                   bi: np.ndarray) -> np.ndarray:
    """E[S_n^2 | B^i] at i != j for the paths ``bi`` of component i (shape
    (rows, nodes) on ``fine``); shape (len(n_values), rows).

    S_n = n^{2H-1} sum_m g_m (B^j_{m+1} - B^j_m) over the fine steps, with
    g_m = f(B^i_m) - f(B^i at the left node of the coarse step holding
    step m).  B^j is independent of B^i, so given B^i, S_n is a centred
    Gaussian of variance n^{4H-2} Var(sum_a w_a B^j_a), w_a = g_{a-1} - g_a
    (g_{-1} = g_last = 0).  w is the jump of f(B^i) negated at each fine
    node where f(B^i) changes, plus the net change of f(B^i) over each
    coarse step that holds such a node, at that step's right end.  So
    sum w = 0, and the variance is the variogram form
    -1/2 sum_{a,b} w_a w_b |t_a - t_b|^{2H} over those few nodes, at their
    node times a / fine_n, and t_end at a partial last node (so a partial
    last step is exact).  Each row's form is a pairwise sum of its own
    terms, with no BLAS, so it does not depend on the block the row is in.
    """
    hv = as_hurst(plan.hurst).value
    last = fine.num_nodes - 1
    partial_node = last if fine.has_partial_step else -1

    def times(idx):  # fine.nodes()[idx], bit for bit, without the grid
        return np.where(idx == partial_node, fine.t_end,
                        idx / fine.points_per_unit)

    levels = [(n, fine.refinement_of(GridSpec(plan.t, n)))
              for n in plan.n_values]
    out = np.zeros((len(levels), bi.shape[0]))
    # the fine steps (m - 1, m) across which f(B^i) jumps, atom by atom; a
    # flat index search, as np.nonzero of a 2-D mask is about 20x slower
    rows = nodes = np.zeros(0, dtype=np.intp)
    jumps = np.zeros(0)
    for a, c in plan.integrand.atoms:
        above = bi > a
        r, s = np.divmod(np.flatnonzero(above[:, 1:] != above[:, :-1]), last)
        rows = np.concatenate((rows, r))
        nodes = np.concatenate((nodes, s + 1))
        jumps = np.concatenate((jumps, np.where(above[r, s + 1], 2 * c, -2 * c)))
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(bi.shape[0] + 1))
    for row in np.flatnonzero(np.diff(bounds)):  # rows where f(B^i) jumps
        at = order[bounds[row]:bounds[row + 1]]
        m, d = nodes[at], jumps[at]
        for gi, (n, r) in enumerate(levels):
            ends, step = np.unique(np.minimum(-(-m // r) * r, last),
                                   return_inverse=True)
            t = times(np.concatenate((m, ends)))
            w = np.concatenate((-d, np.bincount(step, weights=d,
                                                minlength=len(ends))))
            form = (np.multiply.outer(w, w)
                    * np.abs(np.subtract.outer(t, t)) ** (2 * hv))
            out[gi, row] = -0.5 * n ** (4 * hv - 2) * form.sum()
    return out


def _path_errors(plan: ExperimentPlan, fine: GridSpec,
                 bi: np.ndarray) -> np.ndarray:
    """Per-replicate second moments of the paths ``bi`` of component i
    (shape (rows, nodes) on ``fine``); shape (len(n_values), rows).  At
    i = j, the squared error (S_n - limit)^2; at i != j, E[S_n^2 | B^i]
    from ``_cross_moments``."""
    i, j = plan.component_pair
    if i != j:
        return _cross_moments(plan, fine, bi)
    # closed-form route: S_n per atom on every coarse grid and, last, the
    # fine grid, whose S_n gives the limit, in one kernel call
    grids, scale = _crossing_grids(plan.t, plan.n_values, fine,
                                   as_hurst(plan.hurst).value)
    errs = np.zeros((len(plan.n_values), bi.shape[0]))
    for a, c in plan.integrand.atoms:
        sign_change = scale * crossing_sums(bi, fine, a, grids)
        errs += 2 * c * (sign_change[:-1] - sign_change[-1])
    return errs**2


@lru_cache(maxsize=32)
def _crossing_grids(t: float, n_values: tuple, fine: GridSpec, hv: float):
    """The coarse grids of ``n_values`` and, last, ``fine``, with the column
    of their factors n^{2H-1} (Python-float powers).  Cached, as the kernels
    run on every synthesis sub-block and building the grids costs a third
    of a two-row call."""
    grids = tuple(GridSpec(t, n) for n in n_values) + (fine,)
    scale = np.array([g.points_per_unit ** (2 * hv - 1) for g in grids])[:, None]
    scale.flags.writeable = False
    return grids, scale


def _replicate_errors(plan: ExperimentPlan, first: int, count: int,
                      workers: int = 1) -> np.ndarray:
    """Per-replicate second moments (``_path_errors``) of replicates
    [first, first+count), shape (len(n_values), count).  Only component i
    is drawn, and each synthesis sub-block of ``fft_paths`` goes straight
    to the kernels, so no path is held beyond its sub-block; ``workers``
    goes to ``fft_paths``."""
    fine = GridSpec(plan.t, plan.fine_n)
    errs = np.empty((len(plan.n_values), count))

    def take(start, paths):
        errs[:, start:start + len(paths)] = _path_errors(plan, fine, paths[:, 0])

    fft_paths(plan.hurst, fine, plan.master_seed, first, count, take, workers,
              first_component=plan.component_pair[0] - 1)
    return errs


def _collect(plan: ExperimentPlan, first: int, total: int, threads) -> np.ndarray:
    """Per-replicate second moments of replicates [first, total), shape
    (len(n_values), total - first).

    The workers, the calling thread among them (its malloc arena is already
    filled, so it adds no memory), take ``fbm.RANGES_PER_WORKER``
    contiguous ranges each, and ``fbm.fft_paths`` hashes a range's keys and
    allocates its synthesis buffers once per range, so both happen a fixed
    number of times whatever the replicate count."""
    out = np.empty((len(plan.n_values), total - first))

    def work(a, b, workers):
        out[:, a - first:b - first] = _replicate_errors(plan, a, b - a, workers)

    fft_ranges(plan.hurst, GridSpec(plan.t, plan.fine_n), first, total,
               threads, work)
    return out


def _l2_and_stderr(sq: np.ndarray):
    """l2 = sqrt of the mean of the per-replicate second moments ``sq``,
    and its delta-method standard error."""
    mean_sq = sq.mean(axis=1)
    l2 = np.sqrt(mean_sq)
    m = sq.shape[1]
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
