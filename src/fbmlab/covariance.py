"""Covariance matrices of fBm increments and their structural bounds.

Builds the matrix Sigma of E[(B_{a1}-B_{a2})(B_{b1}-B_{b2})] for a list of
time windows and provides numerical certificates: determinant sandwich,
eigenvalue bracket and inverse-entry scalings of the determinant
factorisation.  Inequalities whose constants are not explicit are reported
as positivity/finiteness certificates or scaling exponents, never asserted
at a numeric level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fbm import HurstIndex, as_hurst, fbm_covariance, substream

__all__ = [
    "IncrementWindows",
    "IncrementCovariance",
    "IncrementPartition",
    "ConditioningError",
    "consecutive_windows",
    "build_increment_cov",
    "determinant_sandwich",
    "eigenvalue_bracket",
    "decomp_factorisation_check",
    "increment_level_bound_constant",
    "covariance_increment_bound_check",
]

CONDITION_LIMIT = 1e12


class ConditioningError(RuntimeError):
    """Matrix condition number too large for meaningful inverse entries."""


@dataclass(frozen=True)
class IncrementWindows:
    """Ordered list of time pairs defining increments B_{a1} - B_{a2}."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for a, b in pairs:
            if min(a, b) < 0:
                raise ValueError("window endpoints must be nonnegative")
            if a == b:
                raise ValueError(f"degenerate window ({a}, {b})")

    def __len__(self):
        return len(self.pairs)

    def lengths(self) -> np.ndarray:
        return np.array([abs(a - b) for a, b in self.pairs])

    @property
    def is_consecutive(self) -> bool:
        """True when windows are (s_0,s_1),(s_1,s_2),... with s_i increasing."""
        prev_end = None
        for a, b in self.pairs:
            if b <= a:
                return False
            if prev_end is not None and abs(a - prev_end) > 1e-12:
                return False
            prev_end = b
        return True


def consecutive_windows(times) -> IncrementWindows:
    """Windows (s_0,s_1),(s_1,s_2),... from an increasing time vector."""
    ts = np.asarray(times, dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("times must be strictly increasing")
    return IncrementWindows(tuple(zip(ts[:-1], ts[1:])))


@dataclass(frozen=True)
class IncrementCovariance:
    windows: IncrementWindows
    hurst: HurstIndex
    matrix: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.windows)


def build_increment_cov(windows: IncrementWindows, h) -> IncrementCovariance:
    """Covariance matrix of the fBm increments given by ``windows``."""
    h = as_hurst(h)
    a1 = np.array([p[0] for p in windows.pairs])
    a2 = np.array([p[1] for p in windows.pairs])
    # E[(B_u - B_v)(B_x - B_y)] expanded through R(s, t)
    mat = (
        fbm_covariance(h, a1[:, None], a1[None, :])
        - fbm_covariance(h, a1[:, None], a2[None, :])
        - fbm_covariance(h, a2[:, None], a1[None, :])
        + fbm_covariance(h, a2[:, None], a2[None, :])
    )
    mat = 0.5 * (mat + mat.T)
    return IncrementCovariance(windows, h, mat)


def determinant_sandwich(cov: IncrementCovariance):
    """det(Sigma) relative to the product of window lengths^{2H}.

    upper_ratio = det / (m! prod d^{2H}) must be <= 1 (explicit constant);
    lower_ratio carries the non-explicit constant and is reported only.
    """
    import math

    det = float(np.linalg.det(cov.matrix))
    prod = float(np.prod(cov.windows.lengths() ** (2 * cov.hurst.value)))
    return {
        "det": det,
        "lower_ratio": det / prod,
        "upper_ratio": det / (math.factorial(cov.m) * prod),
        "violation": det <= 0,
    }


def eigenvalue_bracket(cov: IncrementCovariance):
    """Eigenvalue range of a consecutive-increment covariance.

    The explicit half is lambda_max <= m * max d^{2H}; the lower bracket's
    constant is unknown, so lambda_min / min d^{2H} is reported for logging.
    """
    if not cov.windows.is_consecutive:
        raise ValueError("windows must be consecutive ordered increments")
    eigs = np.linalg.eigvalsh(cov.matrix)
    d2h = cov.windows.lengths() ** (2 * cov.hurst.value)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    return {
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "bracket_ok": bool(lam_max <= cov.m * d2h.max() * (1 + 1e-12)),
        "lower_ratio": lam_min / float(d2h.min()),
    }


@dataclass(frozen=True)
class IncrementPartition:
    """Split of increments 1..p+q into small indices J and large complement.

    Small increments must be pairwise non-adjacent, must not include the
    first increment, and each small length must be <= h times every large
    length (validated against a time vector in ``validate``).
    """

    total: int
    small_indices: tuple
    separation_ratio: float

    def __post_init__(self):
        j = tuple(sorted(int(i) for i in self.small_indices))
        object.__setattr__(self, "small_indices", j)
        if not 0 < self.separation_ratio < 1:
            raise ValueError("separation_ratio must lie in (0, 1)")
        if any(i < 1 or i > self.total for i in j):
            raise ValueError("small indices out of range 1..total")
        if 1 in j:
            raise ValueError("the first increment cannot be small")
        if any(b - a < 2 for a, b in zip(j, j[1:])):
            raise ValueError("small indices must be pairwise non-adjacent")

    @property
    def p(self) -> int:
        return len(self.small_indices)

    @property
    def q(self) -> int:
        return self.total - self.p

    @property
    def large_indices(self) -> tuple:
        return tuple(i for i in range(1, self.total + 1) if i not in self.small_indices)

    def validate(self, times) -> None:
        ts = np.asarray(times, dtype=float)
        if len(ts) != self.total + 1:
            raise ValueError("need total+1 time points")
        if abs(ts[0]) > 1e-15 or np.any(np.diff(ts) <= 0):
            raise ValueError("times must be strictly increasing from 0")
        d = np.diff(ts)
        small = d[[i - 1 for i in self.small_indices]]
        large = d[[i - 1 for i in self.large_indices]]
        if small.size and np.any(small[:, None] > self.separation_ratio * large[None, :] * (1 + 1e-12)):
            raise ValueError(
                "small increments exceed separation_ratio times a large increment"
            )


def _checked_inverse(mat: np.ndarray, label: str) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ConditioningError(f"{label} condition number {cond:.3e} exceeds limit")
    return np.linalg.inv(mat)


def merged_large_windows(times, part: IncrementPartition) -> IncrementWindows:
    """Windows of the large increments with the intervening small increments
    absorbed: window i runs from the previous large endpoint (or 0) to
    t_{large_i}."""
    ts = np.asarray(times, dtype=float)
    ends = [ts[i] for i in part.large_indices]
    starts = [0.0] + ends[:-1]
    return IncrementWindows(tuple(zip(starts, ends)))


def decomp_factorisation_check(times, part: IncrementPartition, h):
    """Scaled errors of the small/large determinant factorisation.

    theta1: relative error of det(Sigma) ~ det(Sigma') * prod_small d^{2H};
    theta2/theta3: scaled small-block inverse entries minus their
    independent-increment limits; theta4: relative error of the large-block
    inverse entries against the merged-window inverse.  theta2/theta3
    vanish identically at H = 1/2; theta1/theta4 keep an O(h) term from
    absorbing the small windows into the merged large ones.  All scale
    like h^{2-2H} as the small/large ratio h shrinks (for H > 1/2).
    """
    h = as_hurst(h)
    part.validate(times)
    ts = np.asarray(times, dtype=float)
    d = np.diff(ts)
    two_h = 2 * h.value

    sigma = build_increment_cov(consecutive_windows(ts), h).matrix
    sigma_prime = build_increment_cov(merged_large_windows(ts, part), h).matrix
    inv = _checked_inverse(sigma, "Sigma")
    inv_prime = _checked_inverse(sigma_prime, "Sigma'")

    small = [i - 1 for i in part.small_indices]  # 0-based
    large = [i - 1 for i in part.large_indices]

    prod_small = float(np.prod(d[small] ** two_h)) if small else 1.0
    sign, logdet = np.linalg.slogdet(sigma)
    signp, logdetp = np.linalg.slogdet(sigma_prime)
    if sign <= 0 or signp <= 0:
        raise ConditioningError("non-positive determinant")
    theta1 = float(np.exp(logdet - logdetp - np.log(prod_small))) - 1.0

    theta2 = np.array([inv[i, i] * d[i] ** two_h - 1.0 for i in small])
    theta3 = np.array(
        [
            [inv[i, j] * d[i] ** h.value * d[j] ** h.value if i != j else 0.0 for j in small]
            for i in small
        ]
    )
    theta4 = np.array(
        [
            [
                inv[large[i], large[j]] / inv_prime[i, j] - 1.0
                if abs(inv_prime[i, j]) > 1e-300
                else np.nan
                for j in range(part.q)
            ]
            for i in range(part.q)
        ]
    )
    # mixed small/large entries: only finiteness is certified (the bound's
    # constant is not explicit)
    mixed = np.array([[inv[i, j] for j in large] for i in small])
    cof_bound_ok = bool(np.all(np.isfinite(mixed)))
    return {
        "theta1": theta1,
        "theta2": theta2,
        "theta3": theta3,
        "theta4": theta4,
        "cof_bound_ok": cof_bound_ok,
    }


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


def covariance_increment_bound_check(h, trials: int, rng_seed: int, horizon: float = 1.0):
    """Count violations of |E[(B_v - B_u) B_t]| <= beta t^{2H-1} (v - u)
    with the sharp beta from :func:`increment_level_bound_constant`.

    Valid for H > 1/2; ``trials`` random triples (t, u <= v) in [0, T]^3.
    Returns {violations, max_ratio} with 1e-12 rounding slack; max_ratio
    is lhs / (t^{2H-1}(v - u)) and must stay below beta.
    """
    h = as_hurst(h)
    h.require_rough_regime()
    beta = increment_level_bound_constant(h)
    rng = substream(rng_seed, 0)
    t = rng.uniform(0, horizon, trials)
    uv = np.sort(rng.uniform(0, horizon, (trials, 2)), axis=1)
    u, v = uv[:, 0], uv[:, 1]
    lhs = np.abs(fbm_covariance(h, v, t) - fbm_covariance(h, u, t))
    scale = t ** (2 * h.value - 1) * (v - u)
    bad = lhs > beta * scale + 1e-12
    ratio = np.where(scale > 0, lhs / np.maximum(scale, 1e-300), 0.0)
    return {"violations": int(bad.sum()), "max_ratio": float(ratio.max()),
            "beta": beta}
