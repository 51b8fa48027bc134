"""Optimal approximants to 1/(1-z)^N: exact solves vs closed forms.

The degree-n optimal approximant p_n minimizes ||p f - 1|| in the space
D_alpha with norm sum (k+1)^alpha |a_k|^2.  For f = 1-z the coefficients
have the Cesaro-type closed form c_k = 1 - (k+1)/(n+2) at alpha = 0, and
a weighted analogue for other alpha; for f = (1-z)^N the Hardy-space
coefficients are Beta-function ratios.  Everything here runs in exact
rational arithmetic, so "equal" means equal.
"""

from fractions import Fraction

from optapprox import (Series, cesaro_closed_form, hardy_power_closed_form,
                       optimal)

f = Series.exact([1, -1])

print("f = 1 - z, alpha = 0")
for n in range(5):
    res = optimal(f, n, 0)
    closed = cesaro_closed_form(n, 0)
    assert tuple(res.p.coeffs) == tuple(closed.coeffs)
    cs = ", ".join(str(Fraction(c.re)) for c in res.p.coeffs)
    print(f"  n={n}: p_n = [{cs}]   d_n^2 = {res.distance_sq} "
          f"(= 1/(n+2), so f is cyclic: d_n^2 -> 0)")

print("\nSame function, other weights (alpha = -1 Bergman, 1 Dirichlet):")
for alpha in (-1, 1):
    ds = [optimal(f, n, alpha).distance_sq for n in range(6)]
    print(f"  alpha={alpha:+d}: d_n^2 = {[str(d) for d in ds]}")

print("\nf = (1-z)^N at alpha = 0: Beta-ratio closed form vs direct solve")
import math

for N in (2, 3):
    fN = Series.exact([(-1) ** k * math.comb(N, k) for k in range(N + 1)])
    for n in (2, 5):
        assert tuple(hardy_power_closed_form(N, n).coeffs) == \
            tuple(optimal(fN, n, 0).p.coeffs)
        print(f"  N={N}, n={n}: closed form matches the Gram solve exactly")
