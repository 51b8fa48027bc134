"""Extraneous zeros inside the unit disk for negative alpha.

In spaces with alpha < 0 an approximant can vanish *inside* the unit
disk even though 1/f has no singularity there.  Three instances:

* f = (1+z)^3 at alpha = -2: the first-order approximant has the exact
  rational zero 741/775 = 0.956... < 1.
* f = (1+z)/(1-z) at alpha = -2: the first zero converges (as the
  truncation grows) to (8 pi^2 - 57)/(8 pi^2 - 54) = 0.8798...
* f = (1+z)/(1-z)^(4/5) at alpha = -1 (Bergman): the limit is 119/121.

The zero-location bound still holds: all zeros stay outside radius
2^(alpha/2) (here 1/2 and 1/sqrt(2)).
"""

import math

from optapprox import (FunctionSpec, Series, first_zero, first_zero_with_tail,
                       realize, zero_bound_check)

cube = Series.exact([1, 3, 3, 1])
z1 = first_zero(cube, -2)
print(f"f=(1+z)^3, alpha=-2: first zero = {z1.re} = {float(z1.re):.6f} < 1")
chk = zero_bound_check(cube, 1, -2)
print(f"  zero-location bound 2^(alpha/2) = {chk.bound}: "
      f"min modulus {chk.min_modulus:.6f} -> {'OK' if chk.passed else 'VIOLATED'}")

print("\nf=(1+z)/(1-z), alpha=-2, truncation 10^6:")
f = realize(FunctionSpec("eta_family", {"eta": 1, "truncation": 10 ** 6}, "float"))
v, tail = first_zero_with_tail(f, -2)
target = (8 * math.pi ** 2 - 57) / (8 * math.pi ** 2 - 54)
print(f"  first zero = {complex(v).real:.8f}  "
      f"(limit {target:.8f}, tail bound {tail:.1e})")

print("\nf=(1+z)/(1-z)^0.8, alpha=-1 (Bergman), doubling truncations:")
for M in (10 ** 5, 10 ** 6):
    f = realize(FunctionSpec("eta_family", {"eta": 0.8, "truncation": M}, "float"))
    v, tail = first_zero_with_tail(f, -1)
    print(f"  M={M:>8}: first zero = {complex(v).real:.6f}  "
          f"(limit 119/121 = {119 / 121:.6f}, tail bound {tail:.1e})")
