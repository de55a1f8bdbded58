"""Local-time estimation for fBm paths and exact moment oracles.

Two estimators of the local time L_t(a):

* occupation binning: time spent within eps of the level, over 2*eps;
* sign-change sum: 2 (n/t)^{2H-1} sum w_k |B_{t_{k+1}} - a| over the level
  crossings of n equal steps [t_k, t_{k+1}] of [0, t], which converges to
  L_t(a) at rate n^{-(1-H)/2} for H > 1/2.
  The weights w_k -> 1 undo the mean bias of order n^{-(1-H)} that the
  first steps leave at a = 0, where the path starts, so the estimate is
  exact in the mean at a = 0 for every n; see ``sign_change_estimates``.

Exact first and second moments of L_t(a) serve as independent oracles
for the estimators: the first in closed form, through the generalised
exponential integral E_{1+(1-H)/(2H)}, the second as one 1-D integral by
graded Gauss-Legendre quadrature, its time integral closed through E_{1/H}.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .fbm import GridSpec, as_hurst
from .integrals import crossing_sums
from .quadrature import _graded_rule

__all__ = [
    "ResolutionWarning",
    "binning_estimates",
    "sign_change_estimates",
    "default_bin_width",
    "moment_oracle",
]


class ResolutionWarning(UserWarning):
    """Bin width below the grid's typical increment magnitude."""


def default_bin_width(h, grid: GridSpec) -> float:
    """Default eps = 4 (t/n)^H, four typical step increments of ``grid``: a
    few grid points per crossing excursion."""
    hv = as_hurst(h).value
    return 4.0 * grid.steps ** (-hv) * grid.t_end**hv


def binning_estimates(h, values: np.ndarray, grid: GridSpec, a: float,
                      eps: float) -> np.ndarray:
    """Occupation-time estimate (1/2eps) * time with |B_s - a| <= eps, for
    each row of ``values`` (shape (..., nodes) on ``grid``); shape (...).

    The time integral uses the left-point piecewise-constant rule on the
    path grid: the steps whose left node is inside are counted and the
    count times the mesh t/n is the occupation time, so a row's estimate
    does not depend on the batch it is in.  Warns (``ResolutionWarning``)
    when eps is below ``default_bin_width``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    floor = default_bin_width(h, grid)
    if eps < floor:
        warnings.warn(
            f"bin width {eps:.3g} below 4 (t/n)^H = {floor:.3g}; "
            "estimate may be grid-resolution limited",
            ResolutionWarning,
        )
    inside = np.abs(values[..., :-1] - a) <= eps
    occupation = np.count_nonzero(inside, axis=-1) / grid.steps * grid.t_end
    return occupation / (2 * eps)


@functools.lru_cache(maxsize=16)
def _crossing_weights(hv: float, steps: int) -> np.ndarray:
    """Read-only weights w_k of the grid steps [k, k+1], k < ``steps``, in
    units of the mesh.

    With s, e = s + 1 the ends of a step and rho the correlation of
    (B_s, B_e), w = (e^{1-H} - s^{1-H}) / (2 (1-H) (1-rho) e^H), evaluated
    through 2 s^H e^H (1-rho) = 1 - (e^H - s^H)^2 so that no difference of
    nearly equal powers is formed at large s.
    """
    one_mh = 1.0 - hv
    w = np.empty(steps)
    # first step: B_0 = 0, so rho = 0
    w[0] = 1.0 / (2.0 * one_mh)
    s = np.arange(1, steps, dtype=float)
    log_ratio = np.log1p(1.0 / s)
    share = s**one_mh * np.expm1(one_mh * log_ratio)  # e^{1-H} - s^{1-H}
    gap = s**hv * np.expm1(hv * log_ratio)  # e^H - s^H
    w[1:] = share * s**hv / (one_mh * (1.0 - gap * gap))
    w.setflags(write=False)
    return w


def sign_change_estimates(h, values: np.ndarray, fine: GridSpec, a: float,
                          grid: GridSpec) -> np.ndarray:
    """Level-crossing local-time estimate 2 (n/t)^{2H-1} sum_k w_k
    |B_{t_{k+1}} - a| over the steps [t_k, t_{k+1}] of ``grid`` (n equal
    steps of [0, t]) that cross a, for each row of ``values`` (shape (...,
    nodes) on ``fine``, which must refine ``grid``); shape (...).
    Consistent for H > 1/2 only.

    For standard fBm on the integers, E|B_{k+1}| 1{crossing 0} =
    (1 - rho_k)(k+1)^H / sqrt(2 pi), with rho_k the correlation of
    (B_k, B_{k+1}) and rho_0 = 0, while the step's share of E[L(0)] is
    ((k+1)^{1-H} - k^{1-H}) / ((1-H) sqrt(2 pi)).  The weights are their
    ratio,

        w_k = ((k+1)^{1-H} - k^{1-H}) / (2 (1-H) (1 - rho_k) (k+1)^H),

    with w_0 = 1/(2(1-H)) and w_k -> 1 as k grows.  By self-similarity
    they hold on every [0, t]: they depend only on H and n, are positive
    (so the estimate is never negative), and make the estimate exactly
    unbiased in the mean at a = 0 for every n and t, which the
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
    w = _crossing_weights(h.value, grid.steps)
    return (2.0 * grid.mesh_power(2 * h.value - 1)
            * crossing_sums(values, fine, a, grid, w))


def moment_oracle(h, t: float, a: float, p: int = 1) -> float:
    """E[(L_t(a))^p] for p in {1, 2}; ValueError on a non-positive or
    non-finite t or a non-finite a.

    E[L_t(a)], the integral over (0, t) of the N(0, s^{2H}) density at a, is
    t^{1-H} E_{1+b}(x) / (2H sqrt(2 pi)), x = a^2 / (2 t^{2H}), b = (1-H)/(2H),
    with E_p from ``_expint`` (DLMF 8.19) and E_{1+b}(0) = 1/b: within 2e-13
    of 40-digit mpmath over H in [0.05, 0.995], t in [0.1, 10] and |a| in
    [1e-150, 20].  At a != 0, an x below the normal floats cannot resolve
    E_{1+b}(x) - 1/b ~ x^b (3% of the value at H = 0.995): ValueError naming a.
    E[L_t(a)^2] is ``_second_moment`` by graded Gauss-Legendre rules at
    (panels, order) = (24, 8) and (40, 10), both evaluated in one pass, whose
    gap is the error estimate: RuntimeError when that exceeds 1e-6 relative
    (at some levels from H = 0.995, and at a = 1e-6 from H = 0.95) or the
    value is not finite, and ValueError naming t when t^(2H) or t^(2-2H)
    overflows.
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
    if p == 1:
        z = a / t**hv  # t^H neither overflows nor underflows to 0
        x = 0.5 * z * z
        if x < np.finfo(float).tiny:
            raise ValueError(f"a = {a} at t = {t}: a^2 / (2 t^(2H)) underflows")
        e = _expint(1.0 + 0.5 * (1.0 - hv) / hv, np.array([x]))[0]
        return float(t ** (1.0 - hv) * e / (2 * hv * np.sqrt(2 * np.pi)))
    try:
        coarse, val = _second_moment(hv, t, a, [
            _graded_rule(panels, order, 1e-5, True)
            for panels, order in ((24, 8), (40, 10))])
    except OverflowError:  # from a Python float power of t
        raise ValueError(f"t = {t}: t^(2H) or t^(2-2H) overflows at "
                         f"H = {hv}") from None
    err = abs(val - coarse)
    if not np.isfinite(val):
        raise RuntimeError(f"quadrature value is not finite ({val}) at H={hv}, "
                           f"t={t}, a={a}, p={p}")
    rel = err / abs(val) if val != 0 else err
    if not rel <= 1e-6:
        raise RuntimeError(f"quadrature achieved relative tolerance {rel:.2e} > 1e-6")
    return float(val)


def _correlation_gap(hv: float, x):
    """rho = 1 - kappa^2, with kappa the correlation of B_u and
    B_{u+w} - B_u at x = min(w/u, u/w) <= 1 (kappa is symmetric in (u, w)).

    kappa = ((1+x)^{2H} - 1 - x^{2H}) / (2 x^H), with (1+x)^{2H} - 1 taken
    through expm1, and rho = (1 - kappa)(1 + kappa): neither forms a
    difference of nearly equal numbers when x << 1, where the
    covariance-determinant form rho = (s11 s22 - s12^2) / (s11 w^{2H})
    cancels catastrophically.  At x = 0, where x underflows near H = 1,
    kappa is 0/0; its limit there is 0 (kappa ~ H x^{1-H}), so rho = 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (np.expm1(2 * hv * np.log1p(x)) - x ** (2 * hv)) / (2 * x**hv)
    return np.where(x > 0, (1.0 - kappa) * (1.0 + kappa), 1.0)


def _second_moment(hv: float, t: float, a: float, rules) -> list[float]:
    """E[L_t(a)^2] by each of ``rules``, from one 1-D integral whose
    integrand is evaluated at the nodes of all the rules in one pass.

    E[L^2] = 2 * integral over 0 < u, 0 < w, u + w < t of the density of
    (B_u, B_{u+w}) at (a, a), exp(-a^2 / (2 u^{2H} rho)) / (2 pi (u w)^H
    sqrt(rho)) with rho from ``_correlation_gap`` at w/u.  In u = s(1-x),
    w = s x, rho depends on x only and the integral over s is closed:

        I(c) = int_0^t s^{1-2H} exp(-c s^{-2H}) ds
             = c^b Gamma(-b, c t^{-2H}) / (2H) = t^{2-2H} E_{1/H}(c t^{-2H}) / (2H),

    with b = (1-H)/H and E_p the generalised exponential integral
    (``_expint``); I(0) = t^{2-2H} / (2-2H).  Folding x > 1/2 onto 1 - x,

        E[L^2] = int_0^{1/2} (I(c1) + I(c2)) / (pi (x(1-x))^H sqrt(rho)) dx,

    with rho at x/(1-x), c1 = a^2 / (2 rho (1-x)^{2H}) and
    c2 = a^2 / (2 rho x^{2H}).  x = r^{1/(1-H)} / 2 removes the x^{-H}
    singularity, leaving an integral over 0 < r < 1; x rises steeply near
    r = 1 as H nears 1, so the rule is graded toward both ends.  At a = 0,
    E_{1/H}(0) = H/(1-H) and no special function is evaluated.  Above
    H = 0.9775, x underflows to 0 at the first nodes; rho takes its limit 1
    there and I(c2) its limit 0, so the integrand stays finite.
    """
    one_mh = 1.0 - hv
    r = np.concatenate([nodes for nodes, _ in rules])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = 0.5 * r ** (1.0 / one_mh)
        rho = _correlation_gap(hv, x / (1.0 - x))
        if a * a == 0:
            pair = 2 * hv / one_mh
        else:
            level = 0.5 * a * a / (t ** (2 * hv) * rho)
            pair = _expint(1.0 / hv, level / np.stack(
                [(1.0 - x) ** (2 * hv), x ** (2 * hv)])).sum(axis=0)
        vals = pair / ((1.0 - x) ** hv * np.sqrt(rho))
    scale = t ** (2 * one_mh) * 2**hv
    moments, i = [], 0
    for nodes, weights in rules:  # each rule on its own slice of vals
        total = weights @ vals[i:i + len(nodes)]
        moments.append(scale * total / (4 * np.pi * hv * one_mh))
        i += len(nodes)
    return moments


_EULER_GAMMA = 0.5772156649015329
# zeta(2), ..., zeta(8)
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
         1.0369277551433699, 1.0173430619844491, 1.0083492773819228,
         1.0040773561979443)


def _expint(p: float, x):
    """Generalised exponential integral E_p(x) = int_1^inf e^{-xs} s^{-p} ds
    = x^{p-1} Gamma(1-p, x) for p >= 1 and an array of x > 0, to about
    1e-13 relative.

    For x >= 1, the continued fraction of DLMF 8.19.17, evaluated from a
    fixed depth of 80 up.  For x < 1, with p = q + n, n an integer and
    q = 1 - d in [1/2, 3/2]: the power series (DLMF 8.19.10)

        E_q(x) = x^{-d} g(d) + (x^{-d} - 1)/d - sum_{k>=1} (-x)^k / (k! (k+d)),

    g(d) = (Gamma(1+d) - 1)/d, which is E_1(x) = -gamma - ln x - ... at
    d = 0, then n steps of the recurrence k E_{k+1} = e^{-x} - x E_k
    (8.19.12).  For |d| < 0.01, g comes from the series of ln Gamma(1+d)
    (DLMF 5.7.3), since 1 + d rounds away the low bits of d.
    """
    out = np.empty_like(x)
    big = x >= 1.0
    if big.any():
        xb = x[big]
        tail = np.zeros_like(xb)
        for k in range(80, 0, -1):
            tail = k * (p + k - 1) / (xb + p + 2 * k - tail)
        out[big] = np.exp(-xb) / (xb + p - tail)
    if not big.all():
        xs = x[~big]
        n = round(p - 1)
        d = 1.0 + n - p
        term, series = np.ones_like(xs), np.zeros_like(xs)
        for k in range(1, 20):
            term *= -xs / k
            series += term / (k + d)
        log_x = np.log(xs)
        if d == 0:
            e = -_EULER_GAMMA - log_x - series
        else:
            if abs(d) < 0.01:
                g = math.expm1(-_EULER_GAMMA * d + sum(
                    z * (-d) ** k / k for k, z in enumerate(_ZETA, 2))) / d
            else:
                g = (math.gamma(1.0 + d) - 1.0) / d
            e = np.exp(-d * log_x) * g + np.expm1(-d * log_x) / d - series
        for k in range(n):
            e = (np.exp(-xs) - xs * e) / (p - n + k)
        out[~big] = e
    return out
