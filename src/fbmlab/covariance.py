"""Covariance matrices of consecutive fBm increments and their structural
bounds.

Every matrix here is the covariance Sigma of the consecutive increments
B_{t_1} - B_{t_0}, ..., B_{t_m} - B_{t_{m-1}} of a strictly increasing time
vector.  The certificates are the determinant sandwich, the eigenvalue
bracket, the sharp increment-level bound constant and the error theta1 of
the small/large determinant factorisation.  Inequalities whose constants
are not explicit are reported as ratios or scaling exponents, never
asserted at a numeric level.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .fbm import as_hurst, fbm_covariance

__all__ = [
    "increment_cov",
    "determinant_sandwich",
    "eigenvalue_bracket",
    "factorisation_error",
    "increment_level_bound_constant",
    "covariance_increment_bound_check",
]

CONDITION_LIMIT = 1e12
# triples per block of covariance_increment_bound_check
COV_CHECK_BLOCK = 8192
# floor(2^64 g^-j), j = 1, 2, 3, with g = 1.2207440846... the real root of
# x^4 = x + 1: the multipliers of Roberts' R3 Kronecker sequence
R3_MULTIPLIERS = (0xD1B54A32D192ED03, 0xABC98388FB8FAC02, 0x8CB92BA72F3D8DD7)


def _increasing(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) < 2 or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be a strictly increasing vector of "
                         "at least two points")
    return ts


def increment_cov(h, times) -> np.ndarray:
    """Covariance matrix of the consecutive increments of ``times``."""
    h = as_hurst(h)
    ts = _increasing(times)
    a1, a2 = ts[:-1], ts[1:]
    # E[(B_u - B_v)(B_x - B_y)] expanded through R(s, t)
    mat = (
        fbm_covariance(h, a1[:, None], a1[None, :])
        - fbm_covariance(h, a1[:, None], a2[None, :])
        - fbm_covariance(h, a2[:, None], a1[None, :])
        + fbm_covariance(h, a2[:, None], a2[None, :])
    )
    return 0.5 * (mat + mat.T)


def determinant_sandwich(h, times):
    """det(Sigma) relative to the product of increment lengths^{2H}.

    upper_ratio = det / (m! prod d^{2H}) must be <= 1 (explicit constant);
    lower_ratio carries the non-explicit constant and is reported only.
    """
    h = as_hurst(h)
    ts = _increasing(times)
    det = float(np.linalg.det(increment_cov(h, ts)))
    prod = float(np.prod(np.diff(ts) ** (2 * h.value)))
    return {
        "det": det,
        "lower_ratio": det / prod,
        "upper_ratio": det / (math.factorial(len(ts) - 1) * prod),
        "violation": det <= 0,
    }


def eigenvalue_bracket(h, times):
    """Eigenvalue range of a consecutive-increment covariance.

    The explicit half is lambda_max <= m * max d^{2H}; the lower bracket's
    constant is unknown, so lambda_min / min d^{2H} is reported for logging.
    """
    h = as_hurst(h)
    ts = _increasing(times)
    eigs = np.linalg.eigvalsh(increment_cov(h, ts))
    d2h = np.diff(ts) ** (2 * h.value)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    return {
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "bracket_ok": bool(lam_max <= len(d2h) * d2h.max() * (1 + 1e-12)),
        "lower_ratio": lam_min / float(d2h.min()),
    }


def factorisation_error(hurst, h) -> float:
    """theta1 = det(Sigma) / (det(Sigma') h^{2H}) - 1 for the times
    (0, 1, 1+h, 2+h), whose middle increment is the small one.

    Sigma' is the covariance of the two large increments with the small
    one absorbed, the consecutive increments of (0, 1, 2+h).  theta1
    vanishes like h^{2-2H} for H > 1/2; at H = 1/2 only the O(h) term of
    that absorption is left, theta1 = -h / (1+h).
    """
    hu = as_hurst(hurst)
    if not 0 < h < 1:
        raise ValueError(f"h must lie in (0, 1), got {h}")
    ts = np.array([0.0, 1.0, 1.0 + h, 2.0 + h])
    sigma = increment_cov(hu, ts)
    sigma_prime = increment_cov(hu, ts[[0, 1, 3]])
    for label, mat in (("Sigma", sigma), ("Sigma'", sigma_prime)):
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise ValueError(f"{label} condition number {cond:.3e} exceeds limit")
    sign, logdet = np.linalg.slogdet(sigma)
    signp, logdetp = np.linalg.slogdet(sigma_prime)
    if sign <= 0 or signp <= 0:
        raise ValueError("non-positive determinant")
    small = np.diff(ts)[1] ** (2 * hu.value)
    return float(np.exp(logdet - logdetp - np.log(small))) - 1.0


def increment_level_bound_constant(h) -> float:
    """Sharp constant in |E[(B_v - B_u) B_t]| <= beta t^{2H-1} (v - u).

    The left side is the integral of d/ds E[B_s B_t] over [u, v]; that
    derivative equals H (s^{2H-1} + sgn(t-s)|t-s|^{2H-1}) and peaks at
    s = t/2 with value 2^{2-2H} H t^{2H-1} (for s > t it stays below
    H t^{2H-1}), so beta = 2^{2-2H} H.  Note beta > 1 on (1/2, 1): the
    constant-free form of the inequality fails near u = v = t/2.
    """
    hv = as_hurst(h).value
    return 2.0 ** (2 - 2 * hv) * hv


def _r3_points(seed: int, first: int, count: int) -> np.ndarray:
    """Points ``first + 1 .. first + count`` of the seed's stretch of the
    R3 Kronecker sequence, as a (3, count) array in [0, 1).

    Point i of seed s is element k = (s mod 2^32) 2^32 + i of the sequence,
    with coordinates x_j = ((k A_j mod 2^64) >> 11) 2^-53 for the
    ``R3_MULTIPLIERS`` A_j.  uint64 products wrap, so the points are exact
    and the same on every machine.
    """
    k = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    k += np.uint64((seed % 2**32) << 32)
    out = np.empty((3, count))
    for row, mult in zip(out, R3_MULTIPLIERS):
        bits = k * np.uint64(mult) >> np.uint64(11)
        # below 2^53: the int64 view converts exactly, and faster than uint64
        np.multiply(bits.view(np.int64), 2.0**-53, out=row)
    return out


def _increment_covariance(h, u, v, t):
    """E[(B_v - B_u) B_t] = (v^{2H} - u^{2H} + |t - u|^{2H} - |t - v|^{2H}) / 2,
    exactly 0 at u = v."""
    two_h = 2 * as_hurst(h).value
    return 0.5 * (v**two_h - u**two_h
                  + np.abs(t - u) ** two_h - np.abs(t - v) ** two_h)


def covariance_increment_bound_check(h, trials: int, rng_seed: int):
    """Count violations of |E[(B_v - B_u) B_t]| <= beta t^{2H-1} (v - u)
    with the sharp beta from :func:`increment_level_bound_constant`.

    Valid for H > 1/2; ``trials`` triples (t, u <= v) in [0, 1]^3 (the
    bound scales with T^{2H}, so [0, 1] covers every horizon).  Returns
    {violations, max_ratio, beta} with 1e-12 rounding slack; max_ratio is
    lhs / (t^{2H-1}(v - u)) and must stay below beta.

    No random numbers are drawn.  The triples are the first ``trials``
    points (x_1, x_2, x_3) of a stretch of Roberts' R3 Kronecker sequence
    in 64-bit fixed point (``_r3_points``), which covers the cube more
    evenly than pseudo-random points: t = x_1 and (u, v) = sorted(x_2,
    x_3).  The seed only picks the stretch, the elements
    (rng_seed mod 2^32) 2^32 + 1, 2, ..., so seeds congruent mod 2^32
    share it.  The points are built and checked ``COV_CHECK_BLOCK`` at a
    time, so the memory, about 0.9 MB traced, does not grow with
    ``trials``.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise TypeError(f"trials must be an integer, got {trials!r}") from None
    if trials < 1:
        raise ValueError("the number of samples (trials) must be >= 1, "
                         f"got {trials}")
    seed = operator.index(rng_seed)
    if seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {seed}")
    h = as_hurst(h)
    h.require_rough_regime()
    beta = increment_level_bound_constant(h)
    violations, max_ratio = 0, -np.inf
    for start in range(0, trials, COV_CHECK_BLOCK):
        t, x2, x3 = _r3_points(seed, start, min(COV_CHECK_BLOCK, trials - start))
        u = np.minimum(x2, x3)
        v = np.maximum(x2, x3)
        lhs = np.abs(_increment_covariance(h, u, v, t))
        scale = t ** (2 * h.value - 1) * (v - u)
        violations += int(np.count_nonzero(lhs > beta * scale + 1e-12))
        ratio = np.where(scale > 0, lhs / np.maximum(scale, 1e-300), 0.0)
        max_ratio = max(max_ratio, float(ratio.max()))
    return {"violations": violations, "max_ratio": max_ratio, "beta": beta}
