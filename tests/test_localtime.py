"""Local-time estimators and the closed-form moment oracles.

Frozen reference values were obtained by independent quadrature in raw
time coordinates (no endpoint substitution), converged to the printed
digits.
"""

import time

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import gamma, gammaincc
from scipy.stats import norm

from fbmlab import localtime, quadrature
from fbmlab.fbm import GridSpec, sample_fft_batch
from fbmlab.localtime import (
    ResolutionWarning,
    binning_estimates,
    default_bin_width,
    moment_oracle,
    sign_change_estimates,
)

# independently computed E[L_1(a)] values (raw-coordinate adaptive quadrature)
FIRST_MOMENT_REFERENCE = {
    (0.6, 0.5): 0.382903118663079,
    (0.75, 1.0): 0.134239460611043,
}
# E[L_1(0)^2] at H = 0.6 to 15 digits (the 30-digit level-zero integral of
# _level_zero_reference below)
SECOND_MOMENT_REFERENCE_H06 = 1.69262770817236


def test_first_moment_closed_form_at_zero():
    for h in (0.51, 0.6, 0.75, 0.9):
        want = 1.0 / ((1 - h) * np.sqrt(2 * np.pi))
        assert moment_oracle(h, 1.0, 0.0, p=1) == pytest.approx(want, rel=1e-12)


def test_first_moment_time_scaling_at_zero():
    # E[L_t(0)] = t^{1-H} E[L_1(0)]
    for t in (0.25, 2.0):
        assert moment_oracle(0.7, t, 0.0) == pytest.approx(
            t ** 0.3 * moment_oracle(0.7, 1.0, 0.0), rel=1e-12)


@pytest.mark.parametrize("key", sorted(FIRST_MOMENT_REFERENCE))
def test_first_moment_nonzero_level(key):
    h, a = key
    assert moment_oracle(h, 1.0, a, p=1) == pytest.approx(
        FIRST_MOMENT_REFERENCE[key], rel=1e-12)


def _first_moment_closed_form(h, t, a):
    """E[L_t(a)] = C Gamma(s, x) for a != 0, with s = (H-1)/(2H) < 0 and
    x = a^2 / (2 t^{2H}); the upper incomplete gamma at negative s comes
    from Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}."""
    s = (h - 1) / (2 * h)
    x = a * a / (2 * t ** (2 * h))
    c = (np.sqrt(2) / abs(a)) * (a * a / 2) ** (1 / (2 * h)) / (2 * h * np.sqrt(2 * np.pi))
    return c * (gamma(s + 1) * gammaincc(s + 1, x) - x**s * np.exp(-x)) / s


# near H = 1, where b = (1-H)/(2H) is small and E_{1+b}(x) is steep at small x
@pytest.mark.parametrize("a", [0.5, 1.0, -2.0])
@pytest.mark.parametrize("t", [1.0, 0.83])
@pytest.mark.parametrize("h", [0.98, 0.99])
def test_first_moment_near_one_matches_incomplete_gamma(h, t, a):
    assert moment_oracle(h, t, a, p=1) == pytest.approx(
        _first_moment_closed_form(h, t, a), rel=1e-12)


# at small |a|, where x = a^2 / (2 t^{2H}) takes the power series of E_{1+b}
@pytest.mark.parametrize("a", [1e-6, -1e-6, 1e-3])
@pytest.mark.parametrize("t", [0.1, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("h", [0.51, 0.55, 0.6, 0.75])
def test_first_moment_small_level_matches_incomplete_gamma(h, t, a):
    assert moment_oracle(h, t, a, p=1) == pytest.approx(
        _first_moment_closed_form(h, t, a), rel=1e-12)


def _first_moment_mpmath(mp, h, t, a):
    """E[L_t(a)] = t^{1-H} E_{1+b}(x) / (2H sqrt(2 pi)), b = (1-H)/(2H) and
    x = a^2 / (2 t^{2H}), at 40 digits from the exact values of the
    float arguments."""
    with mp.workdps(40):
        h, t, a = mp.mpf(h), mp.mpf(t), mp.mpf(a)
        x = a * a / (2 * t ** (2 * h))
        return float(t ** (1 - h) * mp.expint(1 + (1 - h) / (2 * h), x)
                     / (2 * h * mp.sqrt(2 * mp.pi)))


@pytest.mark.parametrize("a", [1e-6, -1e-6, 0.5, 2.0, 8.0])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.75, 0.99])
def test_first_moment_matches_mpmath(h, t, a):
    mp = pytest.importorskip("mpmath")
    assert moment_oracle(h, t, a, p=1) == pytest.approx(
        _first_moment_mpmath(mp, h, t, a), rel=1e-12, abs=0)


def test_first_moment_refuses_a_level_below_the_normal_floats():
    # at a = 1e-300, x = a^2 / 2 underflows to 0, where E_{1+b}(x) differs
    # from its a = 0 value 1/b by about x^b (3% at H = 0.995): the oracle
    # names a rather than return E[L_1(0)]
    for h in (0.3, 0.75, 0.995):
        for a in (1e-300, -1e-300):
            with pytest.raises(ValueError, match=f"^a = {a} "):
                moment_oracle(h, 1.0, a, p=1)
    # at the least normal x the value is still resolved
    mp = pytest.importorskip("mpmath")
    a = 2.2e-154  # x = 2.42e-308
    for h in (0.99, 0.995):
        want = _first_moment_mpmath(mp, h, 1.0, a)
        assert moment_oracle(h, 1.0, a, p=1) == pytest.approx(want, rel=1e-12,
                                                              abs=0)
        assert want < 0.999 * moment_oracle(h, 1.0, 0.0, p=1)


def test_first_moment_builds_no_quadrature_rule(monkeypatch):
    def no_rule(*args, **kwargs):
        raise AssertionError("built a quadrature rule")

    for name in ("_graded_rule", "_panel_rule", "_iterated_integral"):
        monkeypatch.setattr(quadrature, name, no_rule)
    monkeypatch.setattr(localtime, "_graded_rule", no_rule)
    for h, a in ((0.75, 0.0), (0.75, 1e-6), (0.3, 0.5), (0.99, -2.0)):
        assert moment_oracle(h, 1.0, a, p=1) > 0
    # the spy is in place: the second moment is a quadrature
    with pytest.raises(AssertionError, match="quadrature rule"):
        moment_oracle(0.75, 1.0, 0.5, p=2)


def test_second_moment_brownian_unit():
    # at H = 1/2, E[L_1(0)^2] = 1 exactly
    assert moment_oracle(0.5, 1.0, 0.0, p=2) == pytest.approx(1.0, abs=1e-6)


def test_second_moment_independent_reference():
    assert moment_oracle(0.6, 1.0, 0.0, p=2) == pytest.approx(
        SECOND_MOMENT_REFERENCE_H06, rel=1e-9)


def test_second_moment_exceeds_first_squared():
    # Var(L) >= 0
    m1 = moment_oracle(0.6, 1.0, 0.0, p=1)
    m2 = moment_oracle(0.6, 1.0, 0.0, p=2)
    assert m2 > m1 * m1


def test_second_moment_raises_when_unconverged():
    # at H = 0.999 the substitution x = r^{1/(1-H)} / 2 = r^1000 / 2 leaves
    # the rule too few nodes where the integrand lives: the two resolutions
    # disagree and the oracle raises rather than return the value
    for a in (0.0, 0.5):
        with pytest.raises(RuntimeError, match="relative tolerance .* > 1e-6"):
            moment_oracle(0.999, 1.0, a, p=2)


def _level_zero_reference(mp, h):
    # E[L_1(0)^2] = I / (pi (1-H)) with I in x = r^{1/(1-H)}, at 30 digits
    with mp.workdps(30):
        h = mp.mpf(h)

        def f(r):
            x = r ** (1 / (1 - h))
            kappa = (mp.expm1(2 * h * mp.log1p(x)) - x ** (2 * h)) / (2 * x**h)
            return (1 + x) ** (2 * h - 2) / mp.sqrt((1 - kappa) * (1 + kappa))

        return float(mp.quad(f, [0, 1]) / (mp.pi * (1 - h) ** 2))


@pytest.mark.parametrize("h", [0.51, 0.6, 0.75, 0.9, 0.95])
def test_second_moment_at_level_zero_matches_30_digit_reference(h):
    mp = pytest.importorskip("mpmath")
    assert moment_oracle(h, 1.0, 0.0, p=2) == pytest.approx(
        _level_zero_reference(mp, h), rel=1e-13)


def test_second_moment_at_level_zero_brownian_is_exact():
    # at H = 1/2, kappa = 0 and I = pi/2
    assert moment_oracle(0.5, 1.0, 0.0, p=2) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
def test_second_moment_at_level_zero_time_scaling(h):
    # E[L_t(0)^2] = t^{2-2H} E[L_1(0)^2]
    for t in (0.1, 0.83, 2.5, 10.0):
        assert moment_oracle(h, t, 0.0, p=2) == pytest.approx(
            t ** (2 - 2 * h) * moment_oracle(h, 1.0, 0.0, p=2), rel=1e-14)


# E[L_1(0)^2] of the 2-D tensor rule over the simplex, (40, 10) rule in both
# orientations, which the oracle used at a != 0 before the time integral was
# taken in closed form
TENSOR_RULE_AT_LEVEL_ZERO = {
    0.51: 1.0493353500324571, 0.6: 1.6926277081886012, 0.75: 4.954158953655844,
    0.9: 36.82914100056823, 0.95: 160.535436969528,
}


@pytest.mark.parametrize("h", [0.51, 0.6, 0.75, 0.9, 0.95])
def test_second_moment_at_level_zero_matches_tensor_rule(h):
    assert moment_oracle(h, 1.0, 0.0, p=2) == pytest.approx(
        TENSOR_RULE_AT_LEVEL_ZERO[h], rel=1e-9)


# E[L_1(0)^2] of the level-zero integral in x = w/u over (0, 1), which
# moment_oracle took at a = 0 before the one 1-D route for every level
LEVEL_ZERO_ROUTE = {
    0.5: 1.0, 0.51: 1.0493353500302138, 0.55: 1.2840354877952451,
    0.6: 1.692627708172359, 0.75: 4.954158953200317, 0.9: 36.829140982864416,
    0.95: 160.53543687760205,
}


@pytest.mark.parametrize("h", sorted(LEVEL_ZERO_ROUTE))
def test_second_moment_at_level_zero_matches_the_level_zero_route(h):
    assert moment_oracle(h, 1.0, 0.0, p=2) == pytest.approx(
        LEVEL_ZERO_ROUTE[h], rel=4e-16, abs=0)


def test_second_moment_at_signed_zeros_takes_the_1d_route(monkeypatch):
    # at a = +-0 every time integral is I(0): no special function is evaluated
    want = moment_oracle(0.75, 1.0, 0.0, p=2)

    def expint(*args):
        raise AssertionError("a = 0 evaluated E_p")

    monkeypatch.setattr(localtime, "_expint", expint)
    for a in (0.0, -0.0):
        assert moment_oracle(0.75, 1.0, a, p=2) == want


# E[L_1(a)^2] at 30 digits, from tests/second_moment_references.py
SECOND_MOMENT_30_DIGITS = {
    (0.51, 0.1): 0.8814229783534,
    (0.51, 0.5): 0.42871870242882176,
    (0.51, 1.0): 0.1531931321749831,
    (0.51, 2.0): 0.011700774810657627,
    (0.6, 0.1): 1.2384359124282245,
    (0.6, 0.5): 0.534871407269237,
    (0.6, 1.0): 0.18233367342477386,
    (0.6, 2.0): 0.013609065257970778,
    (0.75, 0.1): 2.4457886817399106,
    (0.75, 0.5): 0.8834113144277393,
    (0.75, 1.0): 0.2810884948176144,
    (0.75, 2.0): 0.019972119916201563,
    (0.9, 0.1): 7.48249531674675,
    (0.9, 0.5): 2.2822966780638145,
    (0.9, 1.0): 0.6709425952512876,
    (0.9, 2.0): 0.043440138213078655,
}


@pytest.mark.parametrize("h, a", sorted(SECOND_MOMENT_30_DIGITS))
def test_second_moment_matches_30_digit_reference(h, a):
    assert moment_oracle(h, 1.0, a, p=2) == pytest.approx(
        SECOND_MOMENT_30_DIGITS[h, a], rel=1e-11)
    assert moment_oracle(h, 1.0, -a, p=2) == moment_oracle(h, 1.0, a, p=2)


def test_second_moment_reference_table_recomputes():
    pytest.importorskip("mpmath")
    from second_moment_references import second_moment_reference

    assert second_moment_reference(0.75, 1.0, 0.5) == pytest.approx(
        SECOND_MOMENT_30_DIGITS[0.75, 0.5], rel=1e-15)


def test_second_moment_matches_2d_integral_of_the_density():
    # 2 * integral over the simplex u + w < 1 of the density of
    # (B_u, B_{u+w} - B_u) at (a, 0), from its covariance matrix, in
    # u = r^{1/(1-H)} and w = s^{1/(1-H)}: an independent check of the
    # reduction to one integral, not only of its numerics
    h, a = 0.75, 0.5
    k = 1 / (1 - h)

    def density(s, r):
        u, w = r**k, s**k
        vu, vw = u ** (2 * h), w ** (2 * h)
        c = 0.5 * ((u + w) ** (2 * h) - vu - vw)
        det = vu * vw - c * c
        # the Jacobian k^2 (r s)^{k-1} = k^2 (u w)^H cancels (u w)^{-H}
        return k * k * np.exp(-0.5 * a * a * vw / det) / (
            2 * np.pi * np.sqrt(det / (vu * vw)))

    want, _ = dblquad(density, 0, 1, 0, lambda r: (1 - r**k) ** (1 - h),
                      epsabs=1e-13, epsrel=1e-10)
    assert moment_oracle(h, 1.0, a, p=2) == pytest.approx(2 * want, rel=1e-8)


# E[L_t(a)^2] as moment_oracle returned it before the time integral was
# taken in closed form: by the 2-D tensor rule at a != 0, whose error budget
# was 1e-6, and by the level-zero integral at a = 0
BEFORE_CLOSED_FORM = {
    (0.5, 1.0, 0.0): 1.0,
    (0.6, 1.0, -0.0): 1.692627708172359,
    (0.55, 0.3, 0.5): 0.059604969588221646,
    (0.75, 1.0, 0.5): 0.8834113146287416,
    (0.75, 2.5, -0.5): 2.5136434667880483,
    (0.9, 1.0, 0.0): 36.829140982864416,
}


# (0.98, 1, 0.5) raised as not finite before; it now converges and is
# checked against mpmath in test_second_moment_near_one_matches_mpmath
@pytest.mark.parametrize("h, t, a", [
    (0.5, 1.0, 0.0), (0.6, 1.0, -0.0), (0.55, 0.3, 0.5), (0.75, 1.0, 0.5),
    (0.75, 2.5, -0.5), (0.9, 1.0, 0.0), (0.98, 1.0, 0.5)])
def test_second_moment_within_budget_of_tensor_rule(h, t, a):
    if (h, t, a) not in BEFORE_CLOSED_FORM:
        assert np.isfinite(moment_oracle(h, t, a, p=2))
        return
    assert moment_oracle(h, t, a, p=2) == pytest.approx(
        BEFORE_CLOSED_FORM[h, t, a], rel=1e-6)


# E[L_1(a)^2] at H = 1/3 (E_{1/H} at the integer order 3) by the tensor rule
TENSOR_RULE_AT_ONE_THIRD = {0.5: 0.30161234260464087, 1.0: 0.12221896927611058,
                            2.0: 0.009801834114631355}


@pytest.mark.parametrize("a", sorted(TENSOR_RULE_AT_ONE_THIRD))
def test_second_moment_at_one_third_matches_tensor_rule(a):
    assert moment_oracle(1 / 3, 1.0, a, p=2) == pytest.approx(
        TENSOR_RULE_AT_ONE_THIRD[a], rel=1e-12)


def test_second_moment_raise_set_near_one():
    # x underflows to 0 at the first nodes above H = 0.9775, where rho takes
    # its limit 1; the two-resolution estimate still declines H = 0.999
    for a in (0.0, 0.5):
        assert np.isfinite(moment_oracle(0.9775, 1.0, a, p=2))
        assert np.isfinite(moment_oracle(0.98, 1.0, a, p=2))
        with pytest.raises(RuntimeError, match="relative tolerance"):
            moment_oracle(0.999, 1.0, a, p=2)


def test_correlation_gap_takes_its_limit_at_zero():
    x = np.array([0.0, 1e-300, 0.25])
    rho = localtime._correlation_gap(0.98, x)
    assert rho[0] == 1.0
    kappa = ((1 + x[1:]) ** 1.96 - 1 - x[1:] ** 1.96) / (2 * x[1:] ** 0.98)
    np.testing.assert_allclose(rho[1:], 1 - kappa**2, rtol=1e-12)


# above H = 0.9775 x underflows at the first nodes of the rule
@pytest.mark.parametrize("h, t, a", [(0.98, 1.0, 0.5), (0.99, 1.0, 0.0)])
def test_second_moment_near_one_matches_mpmath(h, t, a):
    pytest.importorskip("mpmath")
    from second_moment_references import second_moment_reference

    assert moment_oracle(h, t, a, p=2) == pytest.approx(
        second_moment_reference(h, t, a), rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 1 + 1e-12, 1.1111111111111112, 4 / 3,
                               1.9899, 2.0, 2.0 + 1e-9, 2.5, 3.0, 5.0])
def test_expint_matches_mpmath(p):
    mp = pytest.importorskip("mpmath")
    x = np.concatenate([np.geomspace(1e-300, 700.0, 60), [0.999, 1.0, 1.001]])
    want = np.array([float(mp.expint(mp.mpf(p), mp.mpf(v))) for v in x])
    np.testing.assert_allclose(localtime._expint(p, x), want, rtol=1e-13)
    assert localtime._expint(p, np.array([np.inf]))[0] == 0.0


def _brownian_second_moment(a):
    # H = 1/2: E[L_1(a)^2] = 2 int_0^1 p_u(a) sqrt(2 (1 - u) / pi) du
    def f(u):
        return norm.pdf(a, scale=np.sqrt(u)) * np.sqrt(2 * (1 - u) / np.pi)

    return 2 * quad(f, 0.0, 1.0, epsabs=0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_second_moment_brownian_nonzero_level(a):
    assert moment_oracle(0.5, 1.0, a, p=2) == pytest.approx(
        _brownian_second_moment(a), rel=1e-12)


def test_second_moment_time_scaling():
    # self-similarity: E[L_t(a)^2] = t^{2-2H} E[L_1(a t^{-H})^2]
    h, t, a = 0.7, 2.0, 0.4
    assert moment_oracle(h, t, a, p=2) == pytest.approx(
        t ** (2 - 2 * h) * moment_oracle(h, 1.0, a * t ** -h, p=2), rel=1e-8)


@pytest.mark.parametrize("t", [0.1, 2.0])
@pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
def test_second_moment_time_scaling_at_a_far_level(h, t):
    # at the effective level a t^{-H} = 6 nearly all of E[L^2] comes from
    # the tails of E_{1/H}
    a = 6.0 * t**h
    assert moment_oracle(h, t, a, p=2) == pytest.approx(
        t ** (2 - 2 * h) * moment_oracle(h, 1.0, 6.0, p=2), rel=1e-12)


@pytest.mark.parametrize("h", [0.5, 0.51, 0.55, 0.6, 0.75, 0.9])
def test_second_moment_converges_quickly(h):
    for a in (0.0, 0.5, -0.5, 1.0, 2.0):
        started = time.perf_counter()
        m2 = moment_oracle(h, 1.0, a, p=2)
        assert time.perf_counter() - started < 0.5, (h, a)
        assert m2 >= moment_oracle(h, 1.0, a, p=1) ** 2, (h, a)


def test_moment_oracle_validation():
    with pytest.raises(ValueError):
        moment_oracle(0.7, 1.0, 0.0, p=3)
    with pytest.raises(ValueError):
        moment_oracle(0.7, -1.0, 0.0)
    for t, a, name in ((np.inf, 0.0, "t"), (np.nan, 0.0, "t"),
                       (1.0, np.nan, "a"), (1.0, -np.inf, "a")):
        for p in (1, 2):
            with pytest.raises(ValueError, match=f"^{name} must"):
                moment_oracle(0.7, t, a, p)


# ---------------------------------------------------------------------------
# path estimators
# ---------------------------------------------------------------------------

def test_binning_estimator_on_known_path():
    grid = GridSpec(1.0, 4)
    b = np.array([0.0, 0.05, 0.5, -0.02, 0.3])
    # nodes 0, .05, .5, -.02 are the left values; |b| <= 0.1 at 3 of 4
    # (eps is far below the coarse grid's resolution, hence the warning)
    with pytest.warns(ResolutionWarning):
        est = binning_estimates(0.75, b, grid, 0.0, eps=0.1)
    assert est == pytest.approx((0.25 * 3) / 0.2)


def test_binning_warns_below_resolution():
    grid = GridSpec(1.0, 256)
    b = sample_fft_batch(0.75, grid, 1, 1)[0, 0]
    with pytest.warns(ResolutionWarning):
        binning_estimates(0.75, b, grid, 0.0, eps=1e-4)


def test_binning_rejects_nonpositive_eps():
    grid = GridSpec(1.0, 16)
    b = sample_fft_batch(0.75, grid, 0, 1)[0, 0]
    # nan would give nan estimates, and inf estimates of 0
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            binning_estimates(0.75, b, grid, 0.0, eps=eps)


def test_sign_change_estimator_requires_rough_regime():
    grid = GridSpec(1.0, 16)
    b = sample_fft_batch(0.5, grid, 0, 1)[0, 0]
    with pytest.raises(ValueError):
        sign_change_estimates(0.5, b, grid, 0.0, grid)


def _crossing_mean_quad(h, s, e):
    """E|B_e| 1{B_s and B_e on opposite sides of 0} for standard fBm, by
    quadrature over B_e of P(B_s on the other side | B_e)."""
    sd_e = e ** h
    if s == 0:
        # B_0 = 0 counts as below the level (sgn(0) = -1)
        val, _ = quad(lambda y: y * norm.pdf(y, scale=sd_e), 0, np.inf,
                      epsabs=0, epsrel=1e-12)
        return val
    cov = 0.5 * (s ** (2 * h) + e ** (2 * h) - (e - s) ** (2 * h))
    slope = cov / e ** (2 * h)
    cond_sd = np.sqrt(s ** (2 * h) - cov * slope)
    val, _ = quad(lambda y: y * norm.pdf(y, scale=sd_e)
                  * norm.cdf(-slope * y / cond_sd), 0, np.inf,
                  epsabs=0, epsrel=1e-12, limit=200)
    return 2 * val


def _single_crossing_weight(h, grid, step):
    """w_step read off the estimator on a path that crosses 0 only on that
    step and lands at distance 1 from it."""
    b = np.where(np.arange(grid.num_nodes) > step, 1.0, -1.0)
    return (sign_change_estimates(h, b, grid, 0.0, grid)
            / (2 * grid.steps ** (2 * h - 1)))


@pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("k", [0, 1, 5, 100])
def test_crossing_weight_makes_step_mean_exact(h, k):
    # closed form E|B_{k+1}| 1{crossing} = (1 - rho_k)(k+1)^H / sqrt(2 pi)
    mean = _crossing_mean_quad(h, k, k + 1)
    rho = 0.0 if k == 0 else (k ** (2 * h) + (k + 1) ** (2 * h) - 1) / (
        2 * k ** h * (k + 1) ** h)
    assert mean == pytest.approx((1 - rho) * (k + 1) ** h / np.sqrt(2 * np.pi),
                                 rel=1e-8)
    # the weighted step contributes exactly its share of E[L(0)]
    w = _single_crossing_weight(h, GridSpec(1.0, 128), k)
    share = ((k + 1) ** (1 - h) - k ** (1 - h)) / ((1 - h) * np.sqrt(2 * np.pi))
    assert 2 * w * mean == pytest.approx(share, rel=1e-8)


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("t", [0.83, 2.5])
def test_estimates_scale_with_the_horizon(t, a):
    # L_t(a) of B = t^H W is t^{1-H} L_1^W(a t^{-H}); on n equal steps of
    # [0, t] both estimators obey the same identity, path by path from the
    # same streams, with the bin width scaled like the level
    h, c = 0.75, t**-0.75
    fine_t, fine_1 = GridSpec(t, 1024), GridSpec(1.0, 1024)
    paths_t = sample_fft_batch(h, fine_t, 41, 50)[:, 0]
    paths_1 = sample_fft_batch(h, fine_1, 41, 50)[:, 0]
    got = sign_change_estimates(h, paths_t, fine_t, a, GridSpec(t, 256))
    want = sign_change_estimates(h, paths_1, fine_1, a * c, GridSpec(1.0, 256))
    assert (got > 0).sum() >= 10
    np.testing.assert_allclose(got, t ** (1 - h) * want, rtol=1e-12, atol=0)
    got = binning_estimates(h, paths_t, fine_t, a, 0.3)
    want = binning_estimates(h, paths_1, fine_1, a * c, 0.3 * c)
    assert (got > 0).sum() >= 10
    np.testing.assert_allclose(got, t ** (1 - h) * want, rtol=1e-12, atol=0)


def test_sign_change_estimator_is_nonnegative():
    h, n, reps = 0.75, 1024, 300
    grid = GridSpec(1.0, n)
    batch = sample_fft_batch(h, grid, 77, reps)[:, 0]
    vals = [sign_change_estimates(h, batch, grid, a, coarse).min()
            for a in (-0.5, 0.0, 0.5, 1.0)
            for coarse in (grid, GridSpec(1.0, 64))]
    assert min(vals) >= 0


def test_estimators_agree_in_the_mean():
    # both estimate L_1(0); means over shared paths agree within noise plus
    # 0.1 for the binning estimator's resolution bias, which reads low here
    # (mean 1.367 against the oracle's 1.596 at this n and seed), while the
    # weighted crossing estimator is exact in the mean at a = 0
    h, n, reps = 0.75, 1024, 300
    grid = GridSpec(1.0, n)
    batch = sample_fft_batch(h, grid, 77, reps)[:, 0]
    sign_vals = sign_change_estimates(h, batch, grid, 0.0, grid)
    eps = default_bin_width(h, grid)
    bin_vals = binning_estimates(h, batch, grid, 0.0, eps)
    se = np.sqrt(sign_vals.var() / reps + bin_vals.var() / reps)
    assert abs(sign_vals.mean() - bin_vals.mean()) < 3 * se + 0.1


def test_default_bin_width_scaling():
    # four typical step increments (t/n)^H
    assert default_bin_width(0.75, GridSpec(1.0, 256)) == 4 * 256 ** -0.75
    assert default_bin_width(0.75, GridSpec(2.5, 256)) == pytest.approx(
        4 * (2.5 / 256) ** 0.75, rel=1e-15)
