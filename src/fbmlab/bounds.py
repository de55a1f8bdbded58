"""Desk-scale verification of the decoupling estimate and Gaussian
integral identities behind the discretisation-error rate.

The central object is a comparison, for the level-crossing functional
F(x) = |x_1| 1{sgn x_0 != sgn x_1, |x_1| > eps, |x_2| <= eps} / (2 eps)
at the times (0, 0.5, 0.5 + 0.4h, 0.9 + 0.4h), between

* the true expectation E[F(B_{t_1} - a, B_{t_2} - a, B_{t_3} - a)] over
  exact joint fBm samples, and
* a decoupled surrogate in which the small middle increment is replaced
  by an independent Gaussian and the two large increments enter only
  through the merged-increment covariance Sigma' of (0, 0.5, 0.9 + 0.4h);
  the surrogate equals a Gaussian point-density prefactor times a
  closed-form inner integral.

The discrepancy between the two shrinks like h^{2-2H} as the small/large
increment ratio h goes to 0; ``decoupling_scaling`` regresses that
exponent, and ``factorisation_scaling`` does the same for the
determinant factorisation error theta1.
"""

from __future__ import annotations

import math

import numpy as np

from .covariance import _factorisation_errors, increment_cov
from .fbm import _cholesky_with_jitter, as_hurst, fbm_covariance, substream
from .quadrature import _graded_rule, _iterated_integral, _panel_rule

__all__ = [
    "true_expectation",
    "surrogate_expectation",
    "decoupling_scaling",
    "factorisation_scaling",
    "lemma_a1_oracle",
    "lemma_a1_mc",
    "lemma_a2_check",
    "density_shift_integral",
]

# half-width of the level band of the level-crossing functional F
STEP2_EPS = 0.1
# usable h cells a decoupling slope needs before a miss counts as FAIL
MIN_USABLE = 5


# ---------------------------------------------------------------------------
# decoupling of the level-crossing functional
# ---------------------------------------------------------------------------

def _sgn(x):
    return np.where(np.asarray(x) > 0, 1.0, -1.0)


def _step2_times(h):
    # large 0.5, small 0.4 h, large 0.4
    return np.array([0.0, 0.5, 0.5 + 0.4 * h, 0.9 + 0.4 * h])


def _step2_eval(z, eps):
    return (
        (np.abs(z[:, 2]) <= eps)
        * np.abs(z[:, 1])
        * (_sgn(z[:, 0]) != _sgn(z[:, 1]))
        * (np.abs(z[:, 1]) > eps)
        / (2 * eps)
    )


def _step2_inner(theta, eps):
    # E[((X^2 - eps^2)+)/2] for X ~ N(0, theta^2): the y-integrals of the
    # level-crossing kernel given the small increment.  The closed form
    # (theta^2 - eps^2) P(Z > c) + theta^2 c phi(c), c = eps / theta, cancels
    # to 2/c^2 of its terms at large c, so it is evaluated as
    # theta^2 phi(c) (c - (c^2 - 1) R(c)), R(c) = P(Z > c) / phi(c) the Mills
    # ratio, with the bracket taken from R's continued fraction for c >= 3
    if theta == 0:
        return 0.0
    c = eps / theta
    # c^2 / 2 reaches 450 at c = 30, where rounding it would cost 1e-13 of
    # phi(c): split the exact exponent into a float and its remainder
    # (fractions loads decimal, so it is imported on first use, not with fbmlab)
    from fractions import Fraction

    half_sq = (Fraction(eps) / Fraction(theta)) ** 2 / 2
    hi = float(half_sq)
    density = (math.exp(-hi) * math.exp(-float(half_sq - Fraction(hi)))
               / math.sqrt(2.0 * math.pi))
    if c < 3.0:
        mills = 0.5 * math.erfc(c / math.sqrt(2.0)) / density
        bracket = c - (c * c - 1.0) * mills
    else:
        # R(c) = 1 / (c + t), t = 1 / (c + 2 / (c + 3 / (c + ...))), so the
        # bracket is (c t + 1) / (c + t), a ratio of positive terms; 60 levels
        # converge to a few ulp at c = 3 and faster above
        t = 0.0
        for k in range(60, 1, -1):
            t = k / (c + t)
        t = 1.0 / (c + t)
        bracket = (c * t + 1.0) / (c + t)
    return float(theta**2 * density * bracket)


def true_expectation(hurst, h, a, eps, normals: np.ndarray):
    """MC estimate of E[F(B_{t_1} - a, B_{t_2} - a, B_{t_3} - a)] with
    exact joint sampling.

    ``normals`` (shape (samples, 3)) are pushed through the Cholesky
    factor of the joint covariance, so calls that share them use common
    random numbers.
    """
    ts = _step2_times(h)[1:]
    cov = fbm_covariance(hurst, ts[:, None], ts[None, :])
    b = normals @ _cholesky_with_jitter(cov).T
    vals = _step2_eval(b - a, eps)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
    return {"mean": mean, "stderr": stderr}


def surrogate_expectation(hurst, h, a, eps) -> float:
    """Decoupled surrogate: Gaussian point density of the merged large
    increments at (a, 0) times the closed-form inner integral."""
    ts = _step2_times(h)
    sig_p = increment_cov(hurst, ts[[0, 1, 3]])
    avec = np.array([a, 0.0])
    inv_a = np.linalg.solve(sig_p, avec)
    det = float(np.linalg.det(sig_p))
    prefactor = np.exp(-0.5 * avec @ inv_a) / (2 * np.pi * np.sqrt(det))
    theta = np.diff(ts)[1] ** as_hurst(hurst).value
    return float(prefactor * _step2_inner(theta, eps))


def decoupling_scaling(hurst: float, h_levels, a: float = 0.0,
                       mc_samples: int = 200_000, seed: int = 0):
    """Regress log|true - surrogate| against log h over a dyadic h-grid,
    with the level band ``STEP2_EPS``.

    Common random numbers are used across h.  Cells where the discrepancy
    is within 3 standard errors of zero are excluded as noise-dominated.
    Status is PASS when the slope meets the h^{2-2H} envelope (one-sided:
    steeper decay also passes), FAIL only with adequate power
    (>= ``MIN_USABLE`` usable cells), and INCONCLUSIVE otherwise.  Raises
    ValueError on fewer than 5 levels, a level outside (0, 1) or a
    non-finite ``a``.
    """
    h_levels = sorted(float(h) for h in h_levels)
    if len(h_levels) < 5:
        raise ValueError("need at least 5 h levels")
    if not all(0 < h < 1 for h in h_levels):
        raise ValueError("every h must lie in (0, 1)")
    if not np.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    hu = as_hurst(hurst)
    hu.require_rough_regime()
    if mc_samples < 1000:
        raise ValueError("mc_samples must be >= 1000")
    z = substream(seed, 0).standard_normal((mc_samples, 3))
    rows = []
    for h in h_levels:
        true = true_expectation(hurst, h, a, STEP2_EPS, normals=z)
        sur = surrogate_expectation(hurst, h, a, STEP2_EPS)
        disc = true["mean"] - sur
        rows.append({
            "h": h, "true": true["mean"], "stderr": true["stderr"],
            "surrogate": sur, "discrepancy": disc,
            "usable": true["stderr"] > 0 and abs(disc) > 3 * true["stderr"],
        })
    usable = [r for r in rows if r["usable"]]
    target = (2 - 2 * hu.value) - 0.4
    if len(usable) < 2:
        slope = np.nan
        status = "INCONCLUSIVE"
    else:
        x = np.log2([r["h"] for r in usable])
        y = np.log2([abs(r["discrepancy"]) for r in usable])
        slope = float(np.polyfit(x, y, 1)[0])
        if slope >= target:
            status = "PASS"
        elif len(usable) >= MIN_USABLE:
            status = "FAIL"
        else:
            status = "INCONCLUSIVE"
    return {"slope": slope, "target": target, "status": status, "per_h": rows}


def factorisation_scaling(hurst: float, h_levels):
    """Slope of log|theta1(h)| vs log h for the reference configuration
    times = {0, 1, 1+h, 2+h} with the middle increment small.

    Deterministic (dense linear algebra only); the factorisation error
    theta1 vanishes like h^{2-2H}.  Raises ValueError unless ``h_levels``
    holds at least 2 distinct values; theta1 is ``factorisation_error`` at
    each, with the matrices of all levels stacked.
    """
    h_levels = sorted(float(h) for h in h_levels)
    if len(set(h_levels)) < 2:
        raise ValueError(f"a slope needs at least 2 distinct h levels, got "
                         f"{h_levels}")
    theta1 = _factorisation_errors(hurst, h_levels)
    x = np.log2(h_levels)
    y = np.log2(np.abs(theta1))
    slope = float(np.polyfit(x, y, 1)[0])
    return {"slope": slope, "h": h_levels, "theta1": theta1}


# ---------------------------------------------------------------------------
# appendix-lemma oracles
# ---------------------------------------------------------------------------

def _require_theta(theta: float) -> None:
    if not (np.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")


def lemma_a1_oracle(theta: float) -> float:
    """Exact value theta^2 / 2 of the expected crossing-kernel integral
    E[int |y + X - alpha| 1{sgn(y + X - alpha) != sgn(y - alpha)} dy]."""
    _require_theta(theta)
    return theta * theta / 2.0


def lemma_a1_mc(theta: float, samples: int = 1_000_000, seed: int = 0) -> float:
    """MC companion: the y-integral given X equals X^2/2 exactly, so the
    estimate is mean(X^2)/2 over X ~ N(0, theta^2).  ``theta`` follows
    :func:`lemma_a1_oracle`'s rule and ``samples`` must be >= 1."""
    _require_theta(theta)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    x = substream(seed, 0).standard_normal(samples) * theta
    return float(np.mean(x * x) / 2.0)


def lemma_a2_check(theta1: float, theta2: float, samples: int = 100_000,
                   seed: int = 0):
    """MC check of the indicator-difference integral bounds.

    The y-integrals are interval lengths: per sample they equal |X2| and
    |X1||X2| respectively, bounded in mean by |theta2| and |theta1 theta2|.
    Both thetas must be finite.
    """
    if not (np.isfinite(theta1) and np.isfinite(theta2)):
        raise ValueError(f"theta1 and theta2 must be finite, got {theta1}, "
                         f"{theta2}")
    if samples < 100_000:
        raise ValueError("samples must be >= 1e5")
    rng = substream(seed, 0)
    x1 = np.abs(rng.standard_normal(samples) * theta1)
    x2 = np.abs(rng.standard_normal(samples) * theta2)
    lhs1 = float(x2.mean())
    lhs2 = float((x1 * x2).mean())
    rel1 = float(x2.std(ddof=1) / np.sqrt(samples) / max(abs(theta2), 1e-300))
    rel2 = float((x1 * x2).std(ddof=1) / np.sqrt(samples)
                 / max(abs(theta1 * theta2), 1e-300))
    ok = (lhs1 <= abs(theta2) * (1 + 3 * rel1) + 1e-300) and (
        lhs2 <= abs(theta1 * theta2) * (1 + 3 * rel2) + 1e-300
    )
    return {"lhs1": lhs1, "lhs2": lhs2, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# joint-density shift decay (quadrature, no MC)
# ---------------------------------------------------------------------------

def _pair_density(two_h, scale, s11, s22, d, x, e, f, out):
    """Density of (B_u, B_v) at (a, a), a^2 = ``scale``, into ``out``, from
    s11 = u^{2H} (one per row), s22 = v^{2H} and d = |v - u|.

    s12 = (s11 + s22 - d^{2H}) / 2, det = s11 s22 - s12^2 and the density
    exp(-a^2 (s11 + s22 - 2 s12) / (2 det)) / (2 pi sqrt(det)), each step
    one out= ufunc; at a = 0 the exponential is exactly 1 and is skipped.
    Overwrites d, x, e and f, which may be ``out``.
    """
    np.power(d, two_h, out=d)
    # s11 spread across its row once: two ufuncs with a broadcast operand
    # took about 1 ms longer per density_shift_integral(0.75, 256)
    np.copyto(e, s11)
    np.add(e, s22, out=x)
    s12 = np.multiply(0.5, np.subtract(x, d, out=d), out=d)
    det = np.subtract(np.multiply(e, s22, out=e), np.square(s12, out=f), out=e)
    if scale == 0:
        np.divide(1.0, np.multiply(2 * np.pi, np.sqrt(det, out=e), out=e),
                  out=out)
        return
    qf = np.divide(np.multiply(scale, np.subtract(
        x, np.multiply(2, s12, out=d), out=x), out=x), det, out=x)
    np.exp(np.multiply(-0.5, qf, out=x), out=x)
    np.divide(x, np.multiply(2 * np.pi, np.sqrt(det, out=e), out=e), out=out)


def density_shift_integral(h, n: int, a: float = 0.0) -> float:
    """I(n) = integral of |phi_{u,v}(a,a) - phi_{u_n,v}(a,a)| over the
    region of [0, 1]^2 where u, v and |u - v| all exceed 2/n, with
    u_n = floor(nu)/n.

    The u-axis is cut into strips [k/n, (k+1)/n] (u_n constant on each)
    with 6 Gauss-Legendre nodes per strip; for each u the v-integral runs
    over [2/n, u - 2/n] and [u + 2/n, 1] on 24 panels of 6 nodes graded
    toward the excluded diagonal.  Decays like n^{-(1-H)}; the decay sets
    in slowly, and below a few hundred n the integral sits on a
    pre-asymptotic hump.

    The value is that of this fixed rule, not the integral to 1e-12: the
    rule is graded only toward the diagonal, not toward v = 2/n below it,
    and above it the integrand kinks where the two densities cross, near
    v = 2u.  At (H, n) = (0.75, 256), single inner v-integrals miss an
    adaptive quadrature split at the kinks by up to 3.7e-4 relative, and
    the whole value moves by 1.8e-5 relative at 36 panels and by 2.2e-5 at
    order 8.
    """
    hv = as_hurst(h).value
    two_h = 2 * hv
    scale = a * a
    edges = np.arange(2, n + 1) / n
    u, wu = _panel_rule(edges, 6)
    un = np.repeat(edges[:-1], 6)
    rule = _graded_rule(24, 6, 1e-4)

    def shift(below):
        def f(u, un, work, out):
            v, du, dun, x, e = work
            # |v - u| and |v - un| by the side's sign of v - u (un <= u)
            if below:
                np.subtract(u, v, out=du)
                np.subtract(un, v, out=dun)
            else:
                np.subtract(v, u, out=du)
                np.subtract(v, un, out=dun)
            s22 = np.power(v, two_h, out=v)  # shared by both densities
            _pair_density(two_h, scale, u**two_h, s22, du, x, e, out, out)
            _pair_density(two_h, scale, un**two_h, s22, dun, x, e, du, x)
            np.abs(np.subtract(out, x, out=out), out=out)
        return f

    total = 0.0
    gap = 2.0 / n
    # v below the diagonal, graded toward u - 2/n, then above, toward u + 2/n
    for start, end, below in ((u - gap, np.full_like(u, gap), True),
                              (u + gap, np.ones_like(u), False)):
        m = (end < start) if below else (end > start)
        total += _iterated_integral(shift(below), (u[m], un[m]), wu[m],
                                    start[m], end[m], rule)
    return total
