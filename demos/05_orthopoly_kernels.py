"""Weighted orthogonal polynomials and reproducing kernels.

The approximation problem has a second face: orthonormal polynomials
phi_k of the weighted space with inner product <p, q> = <p f, q f>_alpha.
Then p_n = conj(f(0)) sum conj(phi_k(0)) phi_k, the kernel
K_n(z, w) = sum conj(phi_k(w) f(w)) phi_k(z) f(z) reproduces evaluation
on f * P_n, and K_n(z, 0) = p_n(z) f(z).  For alpha < 0 the finite
kernels approach a closed-form limit kernel (for f = 1 the Bergman
kernel (1 - conj(w) z)^(-2)).
"""

from optapprox import (Series, approximant_via_ops, basis, extremal_value,
                       kernel_eval_from_basis, optimal, poly_mul)

f = Series.exact([1, -1])
bas = basis(f, 3, 0)
print("f = 1 - z, alpha = 0: monic orthogonal polynomials and norms")
for k, (psi, s) in enumerate(zip(bas.monic, bas.norms_sq)):
    cs = ", ".join(str(c.re) for c in psi.coeffs)
    print(f"  psi_{k} = [{cs}],  ||psi_{k} f||^2 = {s}")
print(f"  |phi_k(0)|^2 = {[str(bas.phi_zero_sq(k)) for k in range(4)]} "
      f"(sums to 1 - d_n^2)")

# K_1(z, 0) from the basis: conj(f(0)) sum_k conj(phi_k(0)) phi_k(z), times f(z)
k10 = poly_mul(approximant_via_ops(f, 1, 0), f)
p1f = poly_mul(optimal(f, 1, 0).p, f)
assert tuple(k10.coeffs) == tuple(p1f.coeffs)
print(f"\nK_1(z, 0) = p_1(z) f(z) = [{', '.join(str(c.re) for c in k10.coeffs)}]")
print(f"extremal value sup |g(0)| over unit-ball g in f*P_1: "
      f"{extremal_value(basis(f, 1, 0)):.6f} = sqrt(2/3)")

print("\nBergman-space kernels for f = 1 approach the Bergman kernel:")
one = Series.from_complex([1.0])
z = 0.5 + 0.2j
ref = 1.0 / (1.0 - abs(z) ** 2) ** 2
for n in (2, 5, 10, 20):
    val = kernel_eval_from_basis(basis(one, n, -1), z, z).value
    print(f"  n={n:>2}: K_n(z,z) = {val.real:.6f}   "
          f"(limit (1-|z|^2)^-2 = {ref:.6f}, "
          f"gap {abs(val - ref):.2e})")
