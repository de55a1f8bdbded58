"""Local-time estimation for fBm paths and exact moment oracles.

Two estimators of the local time L_t(a):

* occupation binning: time spent within eps of the level, over 2*eps;
* sign-change sum: 2 n^{2H-1} sum w_k |B_{(k+1)/n ^ t} - a| over level
  crossings, which converges to L_t(a) at rate n^{-(1-H)/2} for H > 1/2.
  The weights w_k -> 1 undo the mean bias of order n^{-(1-H)} that the
  first steps leave at a = 0, where the path starts, so the estimate is
  exact in the mean at a = 0 for every n; see ``sign_change_estimates``.

Exact first and second moments of L_t(a) are computed by quadrature
after an endpoint substitution that removes the u^{-H} singularity:
adaptive for the first, a graded Gauss-Legendre tensor rule for the
second.  They serve as independent oracles for the estimators.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .fbm import GridSpec, as_hurst
from .integrals import crossing_sums
from .quadrature import _graded_rule, _iterated_integral

__all__ = [
    "ResolutionWarning",
    "binning_estimates",
    "sign_change_estimates",
    "default_bin_width",
    "moment_oracle",
]


class ResolutionWarning(UserWarning):
    """Bin width below the grid's typical increment magnitude."""


def default_bin_width(h, n: int) -> float:
    """Default eps = 4 n^{-H}: a few grid points per crossing excursion."""
    return 4.0 * n ** (-as_hurst(h).value)


def binning_estimates(h, values: np.ndarray, grid: GridSpec, a: float,
                      eps: float) -> np.ndarray:
    """Occupation-time estimate (1/2eps) * time with |B_s - a| <= eps, for
    each row of ``values`` (shape (..., nodes) on ``grid``); shape (...).

    The time integral uses the left-point piecewise-constant rule on the
    path grid, with the terminal partial step weighted by its length.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dt_typ = grid.points_per_unit ** (-as_hurst(h).value)
    if eps < 4 * dt_typ:
        warnings.warn(
            f"bin width {eps:.3g} below 4*dt^H = {4 * dt_typ:.3g}; "
            "estimate may be grid-resolution limited",
            ResolutionWarning,
        )
    w = np.diff(np.minimum(grid.nodes(), grid.t_end))
    inside = np.abs(values[..., :-1] - a) <= eps
    return (inside @ w) / (2 * eps)


@functools.lru_cache(maxsize=16)
def _crossing_weights(hv: float, steps: int, last_end: float | None) -> np.ndarray:
    """Read-only weights w_k of the grid steps [k, k+1], k < ``steps``, in
    units of 1/n, followed by the partial step [steps, last_end] if given.

    With s, e the ends of a step and rho the correlation of (B_s, B_e),
    w = (e^{1-H} - s^{1-H}) / (2 (1-H) (1-rho) e^H), evaluated through
    2 s^H e^H (1-rho) = (e-s)^{2H} - (e^H - s^H)^2 so that no difference
    of nearly equal powers is formed at large s.
    """
    starts = np.arange(steps + (last_end is not None), dtype=float)
    ends = starts + 1.0
    if last_end is not None:
        ends[-1] = last_end
    one_mh = 1.0 - hv
    w = np.empty_like(starts)
    # first step: B_0 = 0, so rho = 0
    w[0] = ends[0] ** (1.0 - 2.0 * hv) / (2.0 * one_mh)
    s = starts[1:]
    d = ends[1:] - s
    log_ratio = np.log1p(d / s)
    share = s**one_mh * np.expm1(one_mh * log_ratio)  # e^{1-H} - s^{1-H}
    gap = s**hv * np.expm1(hv * log_ratio)  # e^H - s^H
    w[1:] = share * s**hv / (one_mh * (d ** (2.0 * hv) - gap * gap))
    w.setflags(write=False)
    return w


def sign_change_estimates(h, values: np.ndarray, fine: GridSpec, a: float,
                          grid: GridSpec) -> np.ndarray:
    """Level-crossing local-time estimate 2 n^{2H-1} sum_k w_k |B - a| over
    the steps [k/n, (k+1)/n ^ t] of ``grid`` that cross a, for each row of
    ``values`` (shape (..., nodes) on ``fine``, which must refine
    ``grid``); shape (...).  Consistent for H > 1/2 only.

    For standard fBm on the integers, E|B_{k+1}| 1{crossing 0} =
    (1 - rho_k)(k+1)^H / sqrt(2 pi), with rho_k the correlation of
    (B_k, B_{k+1}) and rho_0 = 0, while the step's share of E[L(0)] is
    ((k+1)^{1-H} - k^{1-H}) / ((1-H) sqrt(2 pi)).  The weights are their
    ratio,

        w_k = ((k+1)^{1-H} - k^{1-H}) / (2 (1-H) (1 - rho_k) (k+1)^H),

    with w_0 = 1/(2(1-H)) and w_k -> 1 as k grows; a partial last step
    gets the same ratio for its own ends.  They depend only on H and the
    grid, are positive (so the estimate is never negative), and make the
    estimate exactly unbiased in the mean at a = 0 for every n, which the
    unweighted sum is not: the singular density u^{-H} near u = 0 leaves
    it a mean bias of order n^{-(1-H)} (about -10% at H = 0.75, n = 4096).

    The same weights are used at every level.  At a != 0 the density of
    B_u at a has no singularity and the weights still tend to 1, so the
    estimator stays consistent; which finite-n correction is exact there
    is left open (it would need the bivariate-normal crossing terms at
    level a), and the estimate is not claimed unbiased in the mean at
    a != 0.
    """
    h = as_hurst(h)
    h.require_rough_regime()
    n = grid.points_per_unit
    last_end = n * grid.t_end if grid.has_partial_step else None
    w = _crossing_weights(h.value, grid.full_steps, last_end)
    return 2.0 * n ** (2 * h.value - 1) * crossing_sums(values, fine, a, grid, w)


def moment_oracle(h, t: float, a: float, p: int = 1) -> float:
    """E[(L_t(a))^p] for p in {1, 2}.

    The substitution u = r^{1/(1-H)} (per time variable) removes the
    u^{-H} endpoint singularity, leaving a bounded integrand.  p = 1 uses
    adaptive quadrature (``scipy.integrate.quad``, imported on the first
    such call at a != 0, so that importing fbmlab loads numpy only); p = 2
    the graded Gauss-Legendre rule of ``_second_moment``, which needs numpy
    alone.  Raises RuntimeError when the achieved relative tolerance
    exceeds 1e-6 or the result is not finite.
    """
    h = as_hurst(h)
    hv = h.value
    if p not in (1, 2):
        raise ValueError("order p must be 1 or 2")
    if t <= 0:
        raise ValueError("t must be positive")
    one_mh = 1.0 - hv
    if p == 1:
        if a == 0:
            return t**one_mh / (one_mh * np.sqrt(2 * np.pi))

        from scipy.integrate import quad

        def f1(w):
            u2h = (w ** (1.0 / one_mh)) ** (2 * hv)
            # near H = 1, u^{2H} underflows to 0 at small w, where the
            # integrand's limit is exp(-inf) = 0
            return np.exp(-a * a / (2 * u2h)) if u2h > 0 else 0.0

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=Warning)
            val, err = quad(f1, 0.0, t**one_mh, epsabs=0, epsrel=1e-9,
                            limit=200)
        val /= one_mh * np.sqrt(2 * np.pi)
    else:
        val, err = _second_moment(hv, t, a)
    rel = err / abs(val) if val != 0 else err
    if not (np.isfinite(val) and rel <= 1e-6):
        raise RuntimeError(
            f"quadrature achieved relative tolerance {rel:.2e} > 1e-6"
        )
    return float(val)


def _pair_integrand(hv: float, a: float, r, s):
    """phi_{u,u+w}(a, a) (u w)^H / (1-H)^2 at u = r^{1/(1-H)} and
    w = s^{1/(1-H)}: the density of (B_u, B_{u+w}) at (a, a) times the
    Jacobian of the substitution, which cancels its (u w)^{-H} singularity.

    With kappa the correlation of B_u and B_{u+w} - B_u, the density is
    exp(-a^2 / (2 u^{2H} rho)) / (2 pi (u w)^H sqrt(rho)), rho = 1 - kappa^2.
    kappa is symmetric in (u, w), so it is evaluated at x = min(w/u, u/w)
    <= 1 as ((1+x)^{2H} - 1 - x^{2H}) / (2 x^H), with (1+x)^{2H} - 1 taken
    through expm1, and rho as (1 - kappa)(1 + kappa): neither forms a
    difference of nearly equal numbers when w << u, where the
    covariance-determinant form rho = (s11 s22 - s12^2) / (s11 w^{2H})
    cancels catastrophically.
    """
    one_mh = 1.0 - hv
    u = r ** (1.0 / one_mh)
    w = s ** (1.0 / one_mh)
    x = np.minimum(w / u, u / w)
    kappa = (np.expm1(2 * hv * np.log1p(x)) - x ** (2 * hv)) / (2 * x**hv)
    rho = (1.0 - kappa) * (1.0 + kappa)
    return np.exp(-0.5 * a * a / (u ** (2 * hv) * rho)) / (
        2 * np.pi * np.sqrt(rho) * one_mh**2)


def _second_moment(hv: float, t: float, a: float) -> tuple[float, float]:
    """E[L_t(a)^2] and its error estimate.

    E[L^2] = 2 * integral over 0 < u, 0 < w, u + w < t of
    phi_{u,u+w}(a, a); in r = u^{1-H}, s = w^{1-H} the integrand is
    ``_pair_integrand`` over 0 < r < t^{1-H}, 0 < s < (t - u)^{1-H}.  The
    tensor rule graded toward both ends of r and of s is applied once per
    orientation (u on the outer axis, then w), which gives the factor 2,
    and at two resolutions.  The error estimate is the larger of the
    orientation gap and the resolution gap; at a = 0 the integrand is
    symmetric in (r, s) and the orientations agree exactly.
    """
    one_mh = 1.0 - hv
    r_end = t**one_mh

    def along(r, s):
        return _pair_integrand(hv, a, r, s)

    def across(r, s):
        return _pair_integrand(hv, a, s, r)

    results = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for panels, order in ((24, 8), (40, 10)):
            rule = _graded_rule(panels, order, 1e-5, both_ends=True)
            r = r_end * rule[0]
            s_end = (t - r ** (1.0 / one_mh)) ** one_mh
            zero = np.zeros_like(r)
            results.append([
                _iterated_integral(f, (r,), r_end * rule[1], zero, s_end, rule)
                for f in (along, across)])
    (c1, c2), (f1, f2) = results
    val = f1 + f2
    return val, max(abs(f1 - f2), abs(val - c1 - c2))

