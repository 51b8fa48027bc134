"""Cyclicity diagnostics and the Hardy-space Levinson recursion.

A function f (with f(0) != 0) is cyclic when the distances
d_n^2 = ||p_n f - 1||^2 tend to zero; equivalently p_n(0) -> 1/f(0).
Two contrasting cases:

* f = 1 - z is cyclic: d_n^2 = 1/(n+2) -> 0.
* a Blaschke factor (lambda - z)/(1 - conj(lambda) z) is inner, not
  cyclic: every p_n is the constant conj(lambda) and d_n^2 sticks at
  1 - |lambda|^2.

At alpha = 0 the Gram matrix is Toeplitz and the Levinson recursion
produces all approximants in O(n^2), together with the reflection
coefficients Gamma_n; the partial products prod (1 - |Gamma_k|^2)
reach conj(f(0))/||f||^2 exactly when f is outer (= cyclic in H^2).
"""

from optapprox import (FunctionSpec, Series, cyclicity_report, levinson_solve,
                       outer_criterion, realize)

f = Series.exact([1, -1])
rep = cyclicity_report(f, 0, 10)
print("f = 1 - z, alpha = 0:")
print(f"  p_n(0) = {[str(p.re) for p in rep.pn_at_zero[:6]]} -> 1 = 1/f(0)")
print(f"  d_n^2  = {[str(d) for d in rep.distances[:6]]} -> 0; "
      f"verdict: {rep.verdict_trend}")

state = levinson_solve(f, 5)
print(f"  Levinson reflection coefficients: "
      f"{[str(g.re) for g in state.gammas]}  (Gamma_n = -1/(n+2))")
oc = outer_criterion(f, levinson_solve(f, 8))
print(f"  outer-criterion partial products: "
      f"{[str(p) for p in oc.partial_products[:4]]} -> target {oc.target.re}")

lam = 0.5
blaschke = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 10 ** 4},
                                "float"))
rep = cyclicity_report(blaschke, 0, 10)
print(f"\nBlaschke factor, lambda = {lam}:")
print(f"  p_n(0) = {rep.pn_at_zero[0].real:.4f} for every n "
      f"(constant approximants)")
print(f"  d_n^2  = {rep.distances[-1]:.4f} = 1 - lambda^2; "
      f"verdict: {rep.verdict_trend}")
oc = outer_criterion(blaschke, levinson_solve(blaschke, 8))
print(f"  outer-criterion products stay at "
      f"{oc.partial_products[-1].real:.4f} != target {oc.target.real:.4f} "
      f"(inner, hence not cyclic)")
