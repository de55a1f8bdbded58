"""Local-time estimation for fBm paths and exact moment oracles.

Two estimators of the local time L_t(a):

* occupation binning: time spent within eps of the level, over 2*eps;
* sign-change sum: 2 n^{2H-1} sum w_k |B_{(k+1)/n ^ t} - a| over level
  crossings, which converges to L_t(a) at rate n^{-(1-H)/2} for H > 1/2.
  The weights w_k -> 1 undo the mean bias of order n^{-(1-H)} that the
  first steps leave at a = 0, where the path starts, so the estimate is
  exact in the mean at a = 0 for every n; see ``sign_change_estimates``.

Exact first and second moments of L_t(a) are computed by graded
Gauss-Legendre quadrature after an endpoint substitution that removes
the u^{-H} singularity; at a = 0 self-similarity reduces the second
moment to one 1-D integral.  They serve as independent oracles for the
estimators.
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
    path grid: the full steps inside are counted and the count divided by
    n, and the terminal partial step adds its length t - k/n when it is
    inside, so a row's estimate does not depend on the batch it is in.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    dt_typ = grid.points_per_unit ** (-as_hurst(h).value)
    if eps < 4 * dt_typ:
        warnings.warn(
            f"bin width {eps:.3g} below 4*dt^H = {4 * dt_typ:.3g}; "
            "estimate may be grid-resolution limited",
            ResolutionWarning,
        )
    n, k = grid.points_per_unit, grid.full_steps
    inside = np.abs(values[..., :-1] - a) <= eps
    occupation = np.count_nonzero(inside[..., :k], axis=-1) / n
    if grid.has_partial_step:
        occupation = occupation + inside[..., k] * (grid.t_end - k / n)
    return occupation / (2 * eps)


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
    u^{-H} endpoint singularity, leaving a bounded integrand for
    ``_first_moment`` (a != 0; a = 0 has a closed form),
    ``_second_moment_at_level_zero`` (a = 0, one 1-D integral) or
    ``_second_moment`` (a != 0, a 2-D tensor rule), integrated by a graded
    Gauss-Legendre rule at (panels, order) = (24, 8) and (40, 10).  The
    2-D second moment takes both orientations of the simplex from one
    pass over the rule's nodes, and their gap is its own error estimate.
    The error estimate is the larger of that and the gap between the two
    rules.  Raises ValueError on a non-positive or non-finite t or a
    non-finite a, and RuntimeError when the estimated relative error
    exceeds 1e-6 or the result is not finite (the second moment near
    H = 1, where the substitution underflows: above H = 0.9775 at a = 0).
    """
    hv = as_hurst(h).value
    if p not in (1, 2):
        raise ValueError("order p must be 1 or 2")
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not np.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    if p == 1 and a == 0:
        return t ** (1.0 - hv) / ((1.0 - hv) * np.sqrt(2 * np.pi))
    moment = (_first_moment if p == 1 else
              _second_moment_at_level_zero if a == 0 else _second_moment)
    (coarse, _), (val, err) = (
        moment(hv, t, a, _graded_rule(panels, order, 1e-5, both_ends=p == 2))
        for panels, order in ((24, 8), (40, 10)))
    err = max(err, abs(val - coarse))
    if not np.isfinite(val):
        raise RuntimeError(f"quadrature value is not finite ({val}) at H={hv}, "
                           f"t={t}, a={a}, p={p}")
    rel = err / abs(val) if val != 0 else err
    if not rel <= 1e-6:
        raise RuntimeError(
            f"quadrature achieved relative tolerance {rel:.2e} > 1e-6"
        )
    return float(val)


def _first_moment(hv: float, t: float, a: float, rule) -> tuple[float, float]:
    """E[L_t(a)] at a != 0 by ``rule`` (with no error estimate of its own):
    the integral over 0 < r < t^{1-H} of exp(-a^2 / (2 r^{2H/(1-H)})) /
    ((1-H) sqrt(2 pi)).  The integrand rises from 0 to 1 near
    r* = |a|^{(1-H)/H}, the more steeply the nearer H is to 1, so the range
    is split at r* and each side is integrated with the rule graded toward
    it."""
    one_mh = 1.0 - hv
    r_end = t**one_mh
    split = np.full(2, min(abs(a) ** (one_mh / hv), r_end))
    # where r^{2H/(1-H)} underflows to 0 the integrand is exp(-inf) = 0
    with np.errstate(divide="ignore", over="ignore"):
        val = _iterated_integral(
            lambda r: np.exp(-0.5 * a * a / r ** (2 * hv / one_mh)), (),
            np.ones(2), split, np.array([0.0, r_end]), rule)
    return val / (one_mh * np.sqrt(2 * np.pi)), 0.0


def _correlation_gap(hv: float, x):
    """rho = 1 - kappa^2, with kappa the correlation of B_u and
    B_{u+w} - B_u at x = min(w/u, u/w) <= 1 (kappa is symmetric in (u, w)).

    kappa = ((1+x)^{2H} - 1 - x^{2H}) / (2 x^H), with (1+x)^{2H} - 1 taken
    through expm1, and rho = (1 - kappa)(1 + kappa): neither forms a
    difference of nearly equal numbers when x << 1, where the
    covariance-determinant form rho = (s11 s22 - s12^2) / (s11 w^{2H})
    cancels catastrophically.
    """
    kappa = (np.expm1(2 * hv * np.log1p(x)) - x ** (2 * hv)) / (2 * x**hv)
    return (1.0 - kappa) * (1.0 + kappa)


def _pair_integrand(hv: float, a: float, r, s):
    """phi_{u,u+w}(a, a) (u w)^H / (1-H)^2 at u = r^{1/(1-H)} and
    w = s^{1/(1-H)}, in both orientations: the density of (B_u, B_{u+w})
    at (a, a) times the Jacobian of the substitution, which cancels its
    (u w)^{-H} singularity, and the same with u and w swapped.

    The density is exp(-a^2 / (2 u^{2H} rho)) / (2 pi (u w)^H sqrt(rho)),
    with rho from ``_correlation_gap``.  Only the exponent tells the
    orientations apart, so rho and the normalisation 2 pi sqrt(rho) (1-H)^2
    are evaluated once and the pair (exp(-a^2 / (2 u^{2H} rho)),
    exp(-a^2 / (2 w^{2H} rho))) / norm is returned.
    """
    one_mh = 1.0 - hv
    u = r ** (1.0 / one_mh)
    w = s ** (1.0 / one_mh)
    rho = _correlation_gap(hv, np.minimum(w / u, u / w))
    norm = 2 * np.pi * np.sqrt(rho) * one_mh**2
    return (np.exp(-0.5 * a * a / (u ** (2 * hv) * rho)) / norm,
            np.exp(-0.5 * a * a / (w ** (2 * hv) * rho)) / norm)


def _second_moment(hv: float, t: float, a: float, rule) -> tuple[float, float]:
    """E[L_t(a)^2] by ``rule`` and its orientation gap.

    E[L^2] = 2 * integral over 0 < u, 0 < w, u + w < t of
    phi_{u,u+w}(a, a); in r = u^{1-H}, s = w^{1-H} the integrand is
    ``_pair_integrand`` over 0 < r < t^{1-H}, 0 < s < (t - u)^{1-H}.  The
    tensor rule, graded toward both ends of r and of s, is applied to
    both orientations (u on the outer axis, then w) in one pass, since
    ``_pair_integrand`` returns the two together, and their sum gives the
    factor 2.
    """
    one_mh = 1.0 - hv
    r_end = t**one_mh
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = r_end * rule[0]
        s_end = (t - r ** (1.0 / one_mh)) ** one_mh
        f1, f2 = _iterated_integral(
            lambda r, s: _pair_integrand(hv, a, r, s), (r,), r_end * rule[1],
            np.zeros_like(r), s_end, rule)
    return f1 + f2, abs(f1 - f2)


def _second_moment_at_level_zero(hv: float, t: float, a: float,
                                 rule) -> tuple[float, float]:
    """E[L_t(a)^2] at a = 0 by ``rule`` (with no error estimate of its own),
    from one 1-D integral.

    At a = 0 the density phi_{u,u+w}(0, 0) = 1 / (2 pi (u w)^H sqrt(rho))
    depends on w only through tau = w/u, so with w = tau u the u-integral
    over u < t / (1 + tau) is exact, (t / (1 + tau))^{2-2H} / (2 - 2H),
    and tau -> 1/tau maps tau > 1 onto tau < 1 with the same integrand:

        E[L_t(0)^2] = t^{2-2H} I / (pi (1-H)),
        I = integral over 0 < x < 1 of (1+x)^{2H-2} x^{-H} rho(x)^{-1/2}.

    x = r^{1/(1-H)} removes the x^{-H} singularity, leaving
    (1+x)^{2H-2} rho^{-1/2} / (1-H) over 0 < r < 1, with rho from
    ``_correlation_gap``; at H = 1/2, rho = 1 and I = pi/2.  x rises
    steeply near r = 1 as H nears 1, so the rule is graded toward both
    ends.  At H above about 0.9775, r^{1/(1-H)} underflows to 0 at the first
    nodes and the value is NaN.
    """
    one_mh = 1.0 - hv

    def integrand(r):
        x = r ** (1.0 / one_mh)
        return (1.0 + x) ** (2 * hv - 2) / np.sqrt(_correlation_gap(hv, x))

    with np.errstate(divide="ignore", invalid="ignore"):
        i = _iterated_integral(integrand, (), np.ones(1), np.zeros(1),
                               np.ones(1), rule)
    return t ** (2 * one_mh) * i / (np.pi * one_mh**2), 0.0
