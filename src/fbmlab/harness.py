"""Monte Carlo orchestration: discretisation-error experiments and rate fits.

Only component i is drawn: ``fbm.fft_paths``, whose docstring states how
it splits the replicates between worker threads, hands its paths to the
kernels one synthesis sub-block at a time, straight from its own buffer.
So no path outlives its sub-block, and a worker's memory is the
synthesis's two sub-block buffers whatever the replicate count.  Each
replicate gives one second moment per coarse resolution n, all from the
same path (common random numbers), for all of the sub-block's replicates
at once:

* at i = j, the squared error (S_n - integral of L dmu)^2, with S_n the
  closed-form crossing sum of ``integrals`` and the local-time limit
  functional from the fine grid, all grids in one ``crossing_sums`` call
  per atom and sub-block;
* at i != j, the conditional second moment E[S_n^2 | B^i] of
  S_n = (n/t)^{2H-1} (fine Riemann sum - coarse Riemann sum) of f(B^i) dB^j.
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
from functools import cached_property

import numpy as np

from .fbm import GridSpec, as_hurst, fft_paths
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
    # the least power of two from 16 with f^{2H-1} >= 100, capped at 256;
    # 100^{1/(2H-1)} itself overflows for H just above 1/2
    e = 2 * as_hurst(h).value - 1
    f = 16
    while f < 256 and f**e < 100:
        f *= 2
    return f


def _plan_int(field: str, value) -> int:
    """``value`` as an int (``operator.index``): a float or a string raises
    a PlanError naming ``field`` rather than run as its truncation."""
    try:
        return operator.index(value)
    except TypeError:
        raise PlanError(f"{field} takes integers only, got {value!r}") from None


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
        ns = tuple(_plan_int("n_values", n) for n in self.n_values)
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
        pair = tuple(_plan_int("component_pair", i) for i in self.component_pair)
        object.__setattr__(self, "component_pair", pair)
        if len(pair) != 2 or not set(pair) <= {1, 2}:
            raise PlanError(f"component pair {pair} must name two components "
                            "from {1, 2}")
        if not 0.0 < self.t < np.inf:
            raise PlanError(f"t must be positive and finite, got {self.t}")
        for field in ("replicates", "fine_factor", "master_seed"):
            object.__setattr__(self, field,
                               _plan_int(field, getattr(self, field)))
        if self.replicates < 0 or self.replicates == 1:
            raise PlanError("replicates must be 0 (auto-scale) or >= 2 (the "
                            f"stderr needs two), got {self.replicates}")
        if self.fine_factor < 0 or self.fine_factor == 1:
            # at 1 the reference would be the n_max grid itself
            raise PlanError("fine_factor must be 0 (default for the component "
                            f"pair) or >= 2, got {self.fine_factor}")
        if self.master_seed < 0:
            raise PlanError(f"master_seed must be a nonnegative integer, got "
                            f"{self.master_seed!r}")
        if self.fine_factor == 0:
            object.__setattr__(self, "fine_factor",
                               default_fine_factor(self.hurst, pair))
        bad = [n for n in ns if self.fine_n % n]
        if bad:
            raise PlanError(f"n_values {bad} do not divide the reference grid "
                            f"fine_n = {self.fine_n}")
        try:  # the kernels' normalisers, before any path is drawn
            self.levels
        except ValueError as exc:
            raise PlanError(f"t is too small: {exc}") from None

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

    @cached_property
    def levels(self):
        """The kernels' grids and the column of their normalisers, built once
        for every sub-block: at i = j the coarse grids and, last, the fine
        grid, with (n/t)^{2H-1}; at i != j the coarse grids, with (n/t)^{4H-2}."""
        hv = as_hurst(self.hurst).value
        same = self.component_pair[0] == self.component_pair[1]
        steps = self.n_values + ((self.fine_n,) if same else ())
        grids = tuple(GridSpec(self.t, n) for n in steps)
        p = 2 * hv - 1 if same else 4 * hv - 2
        scale = np.array([g.mesh_power(p) for g in grids])[:, None]
        scale.flags.writeable = False
        return grids, scale

    def check_budget(self, replicates: int) -> None:
        if replicates * (self.fine_n + 1) > BUDGET_VALUES:
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

    S_n = (n/t)^{2H-1} sum_m g_m (B^j_{m+1} - B^j_m) over the fine steps,
    with g_m = f(B^i_m) - f(B^i at the left node of the coarse step holding
    step m).  B^j is independent of B^i, so given B^i, S_n is a centred
    Gaussian of variance (n/t)^{4H-2} Var(sum_a w_a B^j_a), w_a = g_{a-1} - g_a
    (g_{-1} = g_last = 0).  w is the jump of f(B^i) negated at each fine
    node where f(B^i) changes, plus the net change of f(B^i) over each
    coarse step that holds such a node, at that step's right end.  So
    sum w = 0, and the variance is the variogram form
    -1/2 sum_{a,b} w_a w_b |t_a - t_b|^{2H} over those few nodes, at their
    node times t a / fine_n.  Each row's form is a pairwise sum of its own
    terms, with no BLAS, so it does not depend on the block the row is in.
    """
    hv = as_hurst(plan.hurst).value
    last = fine.steps
    grids, scale = plan.levels
    levels = [(s, fine.refinement_of(g)) for g, s in zip(grids, scale[:, 0])]
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
        for gi, (scale, r) in enumerate(levels):
            ends, step = np.unique(-(-m // r) * r, return_inverse=True)
            # fine.nodes()[idx], bit for bit, without the grid
            t = fine.t_end * (np.concatenate((m, ends)) / fine.steps)
            w = np.concatenate((-d, np.bincount(step, weights=d,
                                                minlength=len(ends))))
            form = (np.multiply.outer(w, w)
                    * np.abs(np.subtract.outer(t, t)) ** (2 * hv))
            out[gi, row] = -0.5 * scale * form.sum()
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
    grids, scale = plan.levels
    errs = np.zeros((len(plan.n_values), bi.shape[0]))
    for a, c in plan.integrand.atoms:
        sign_change = scale * crossing_sums(bi, fine, a, grids)
        errs += 2 * c * (sign_change[:-1] - sign_change[-1])
    return errs**2


def _collect(plan: ExperimentPlan, first: int, total: int, threads) -> np.ndarray:
    """Per-replicate second moments (``_path_errors``) of replicates
    [first, total), shape (len(n_values), total - first), from one
    ``fft_paths`` call on at most ``threads`` workers."""
    fine = GridSpec(plan.t, plan.fine_n)
    out = np.empty((len(plan.n_values), total - first))

    def take(start, paths):
        out[:, start:start + len(paths)] = _path_errors(plan, fine, paths[:, 0])

    fft_paths(plan.hurst, fine, plan.master_seed, first, total - first, take,
              threads, first_component=plan.component_pair[0] - 1)
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
