"""30-digit references for E[L_t(a)^2], the second moment of fBm local time.

Each value is the 1-D integral of ``fbmlab.localtime._second_moment`` taken
with mpmath at 30 digits, in the same variable r (x = r^{1/(1-H)} / 2), with
the time integral from mpmath's upper incomplete gamma function:

    E[L_t(a)^2] = int_0^{1/2} (I(c1) + I(c2)) / (pi (x(1-x))^H sqrt(rho)) dx,
    I(c) = c^b Gamma(-b, c t^{-2H}) / (2H),  b = (1-H)/H,  I(0) = t^{2-2H} / (2-2H),

with rho = 1 - kappa^2, kappa the correlation of B_u and B_{u+w} - B_u at
w/u = x/(1-x), c1 = a^2 / (2 rho (1-x)^{2H}) and c2 = a^2 / (2 rho x^{2H}).
The r-range is split into 16 equal parts; 40 digits and 32 parts give
the same doubles at the entries checked (H = 0.51, 0.9 and 0.95).

Run ``python tests/second_moment_references.py`` to print the table that
``tests/test_localtime.py`` freezes; it takes about a minute.
"""

import mpmath as mp

HURST = (0.51, 0.6, 0.75, 0.9)
LEVELS = (0.1, 0.5, 1.0, 2.0)


def second_moment_reference(h, t, a, dps=30, splits=16):
    """E[L_t(a)^2] at ``dps`` digits, as a float."""
    with mp.workdps(dps):
        h, t, a = mp.mpf(h), mp.mpf(t), mp.mpf(a)
        b = (1 - h) / h

        def time_integral(c):
            if c == 0:
                return t ** (2 - 2 * h) / (2 - 2 * h)
            return c**b * mp.gammainc(-b, c * t ** (-2 * h)) / (2 * h)

        def f(r):
            x = r ** (1 / (1 - h)) / 2
            z = x / (1 - x)
            kappa = (mp.expm1(2 * h * mp.log1p(z)) - z ** (2 * h)) / (2 * z**h)
            rho = (1 - kappa) * (1 + kappa)
            c1 = a * a / (2 * rho * (1 - x) ** (2 * h))
            c2 = a * a / (2 * rho * x ** (2 * h))
            dx_dr = x / ((1 - h) * r)
            return ((time_integral(c1) + time_integral(c2)) * dx_dr
                    / (mp.pi * (x * (1 - x)) ** h * mp.sqrt(rho)))

        return float(mp.quad(f, mp.linspace(0, 1, splits + 1)))


def main():
    print("{")
    for h in HURST:
        for a in LEVELS:
            print(f"    ({h}, {a}): {second_moment_reference(h, 1.0, a)!r},")
    print("}")


if __name__ == "__main__":
    main()
