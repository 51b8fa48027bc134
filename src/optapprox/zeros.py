"""Root extraction for the approximant polynomials and the zero-location
checks.

Roots come from companion-matrix eigenvalues followed by a few guarded
Newton corrections on the original polynomial; exact-backend polynomials
are converted to floats first (roots are generically irrational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximant import optimal
from .errors import DegenerateError
from .series import Series, poly_mul
from .spaces import gram_matrices, gram_matrix

#: Distinguished result of first_zero when <f, zf>_alpha = 0: the degree-1
#: coefficient of p_1 vanishes and the zero escapes to infinity.
NO_FINITE_ZERO = complex(math.inf, 0.0)

#: Roots closer than this are clustered and reported with multiplicity.
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class ZeroSet:
    roots: tuple             # complex roots with multiplicity
    effective_degree: int
    residuals: tuple         # scaled residual per root (see poly_roots)

    @property
    def min_modulus(self) -> float:
        return min((abs(z) for z in self.roots), default=math.inf)


def _modulus(v: np.ndarray) -> np.ndarray:
    # |v| as scalar abs() computes it; np.abs on a complex array can differ
    # in the last bit and flip a comparison of two moduli
    return np.hypot(v.real, v.imag)


def _newton_polish(coeffs: np.ndarray, z: np.ndarray, iterations: int = 5) -> np.ndarray:
    # coeffs in increasing order; each root is polished while |p| improves
    # and stops, keeping its best iterate, when p' vanishes or |p| does not
    p = coeffs[::-1]
    dp = np.polyder(p)
    z = z.astype(np.complex128)
    pv = np.polyval(p, z)
    best = _modulus(pv)
    idx = np.arange(len(z))
    for _ in range(iterations):
        dv = np.polyval(dp, z[idx])
        idx, dv = idx[dv != 0], dv[dv != 0]
        # a step far out overflows p(step); an inf or NaN |p| fails v < best
        with np.errstate(over="ignore", invalid="ignore"):
            step = z[idx] - pv[idx] / dv
            step_pv = np.polyval(p, step)
            v = _modulus(step_pv)
        ok = v < best[idx]
        idx = idx[ok]
        z[idx], pv[idx], best[idx] = step[ok], step_pv[ok], v[ok]
    return z


def _cluster(roots: list) -> list:
    """Group roots within CLUSTER_TOL of each other; each cluster is
    reported as its centroid repeated with multiplicity."""
    out = []
    remaining = list(roots)
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        rest = []
        for z in remaining:
            if abs(z - seed) <= CLUSTER_TOL:
                cluster.append(z)
            else:
                rest.append(z)
        remaining = rest
        center = complex(sum(cluster) / len(cluster))
        out.extend([center] * len(cluster))
    return out


def _float_view(p: Series, d: int) -> np.ndarray:
    """Coefficients 0..d of p as complex128.  A float p is taken as it is.
    An exact p is multiplied by the power of two that brings its largest
    real or imaginary part to about 1, and each part is rounded once, so a
    coefficient leaves the float range only when the coefficients span
    more than it.  Where they do not, the view is that power of two times
    the rounded coefficients exactly, and has the same roots."""
    if p.backend == "float":
        return np.asarray(p.coeffs[: d + 1])
    coeffs = p.coeffs[: d + 1]
    k = -max(q.numerator.bit_length() - q.denominator.bit_length()
             for c in coeffs for q in (c.re, c.im) if q)

    # q * 2^k rounded once, as float(Fraction) rounds, without the gcd of
    # a Fraction product (ten times the cost of this view)
    def part(q):
        if k >= 0:
            return (q.numerator << k) / q.denominator
        return q.numerator / (q.denominator << -k)

    return np.array([complex(part(c.re), part(c.im)) for c in coeffs])


def poly_roots(p: Series) -> ZeroSet:
    """All complex roots of p (with multiplicity), via the companion
    matrix of the monic normalization plus Newton refinement.  A constant
    has none, and the zero polynomial raises DegenerateError.

    The degree is p's own (see Series.degree), and the roots are those of
    its float view (see _float_view), so an exact p far from unit scale
    keeps them.  When the monic normalization of the view overflows, they
    cannot be computed in floats: OverflowError.  Newton runs on all
    roots at once; each root stops after 5 steps, or when p' vanishes or
    |p| stops decreasing, and keeps its best iterate.

    Each reported residual is |p(zeta)| / max(1, |zeta|)^deg, with p the
    float view: dividing by the growth of the largest monomial makes the
    tolerance meaningful for roots outside the unit disk, where |p(zeta)|
    itself carries rounding error proportional to |zeta|^deg.
    """
    d = p.degree
    if d < 0:
        raise DegenerateError("the zero polynomial has no well-defined root set")
    if d == 0:
        return ZeroSet((), 0, ())
    coeffs = _float_view(p, d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = coeffs[:d] / coeffs[d]
    if not np.isfinite(monic).all():
        raise OverflowError("the coefficients of p span more than the float range, "
                            "so its roots cannot be computed in floats")
    z = np.roots(coeffs[::-1]).astype(np.complex128)
    # a far root overflows p(zeta) and |zeta|^deg: Newton keeps it as it
    # is, and its residual is taken as |zeta^-deg p(zeta)|, a polynomial
    # in 1/zeta
    with np.errstate(over="ignore"):
        far = np.isinf(np.maximum(1.0, np.abs(z)) ** d)
    z[~far] = _newton_polish(coeffs, z[~far])
    if far.any():
        with np.errstate(over="ignore", invalid="ignore"):
            z[far] = _newton_polish(coeffs, z[far])
    roots = tuple(_cluster(z.tolist()))
    z = np.array(roots)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.maximum(1.0, np.abs(z)) ** d
        residuals = np.abs(np.polyval(coeffs[::-1], z)) / growth
    far = np.isinf(growth)
    if far.any():
        residuals[far] = np.abs(np.polyval(coeffs, 1 / z[far]))
    scale = float(np.max(np.abs(coeffs)))
    worst = float(residuals.max())
    if worst > 1e-6 * scale:
        raise DegenerateError(f"root residual {worst:.3e} too large for scale {scale:.3e}")
    return ZeroSet(roots, d, tuple(residuals.tolist()))


def first_zero(f: Series, alpha):
    """The zero of the first-order approximant:
    z_1 = ||z f||^2_alpha / <f, z f>_alpha.

    Both inner products are entries of the 2x2 Gram matrix: num = G[1][1]
    and den = G[0][1], so the float backend runs the blocked Gram kernel
    of :func:`~optapprox.spaces.gram_matrix` (in float64 for real f).

    Returns NO_FINITE_ZERO when the denominator vanishes (p_1 is constant
    and its zero is interpreted as infinity); in the float backend, when
    it is rounding noise next to ||f|| ||z f||.
    """
    return _first_zero_of(gram_matrix(f, 1, alpha), f.backend)


def _first_zero_of(G, backend: str):
    num, den = G[1][1], G[0][1]   # ||z f||^2, <f, z f>
    if backend == "exact":
        if den.is_zero:
            return NO_FINITE_ZERO
        return num / den
    # within 4 rounding units of its Cauchy-Schwarz size ||f|| ||z f||, den
    # is noise: an exact 0 (Blaschke factor, alpha = 0) rounds to ~1e-17;
    # the two norms are taken apart, since ||f||^2 ||z f||^2 can overflow
    size = math.sqrt(G[0][0].real) * math.sqrt(num.real)
    if abs(den) <= 4 * np.finfo(np.float64).eps * size:
        return NO_FINITE_ZERO
    return complex(num / den)


#: Factor on the change of the first zero between f and its half
#: truncation that first_zero_with_tail reports as its tail estimate.
TAIL_SAFETY = 4.0


def first_zero_with_tail(f: Series, alpha):
    """first_zero together with a doubling-based tail estimate.

    For a truncated series the value is also computed for f truncated at
    half its stored degree, from the same pass over f
    (:func:`~optapprox.spaces.gram_matrices`); TAIL_SAFETY times the
    difference is reported as the error estimate (the coefficient
    families in use decay geometrically under degree doubling, so the
    remaining tail is a bounded multiple of one step).
    """
    if f.is_exact_polynomial:
        return first_zero(f, alpha), 0.0
    G, G_half = gram_matrices(f, 1, alpha, (len(f) - 1) // 2)
    v_full, v_half = _first_zero_of(G, "float"), _first_zero_of(G_half, "float")
    return v_full, TAIL_SAFETY * abs(complex(v_full) - complex(v_half))


@dataclass(frozen=True)
class ZeroBoundCheck:
    roots: ZeroSet
    min_modulus: float
    bound: float
    passed: bool


def zero_bound_check(f: Series, n: int, alpha) -> ZeroBoundCheck:
    """Verify the zero-location bound: roots of p_n lie outside the closed
    unit disk for alpha >= 0 and outside radius 2^(alpha/2) for alpha < 0."""
    zs = poly_roots(optimal(f, n, alpha).p)
    bound = 1.0 if float(alpha) >= 0 else 2.0 ** (float(alpha) / 2.0)
    mm = zs.min_modulus
    return ZeroBoundCheck(zs, mm, bound, mm > bound - 1e-9)


def fixed_point_residual(f: Series, alpha, zeros) -> tuple:
    """Residuals of the zero fixed-point system: for each candidate z_m,
    |z_m - ||z f q_m||^2 / <f q_m, z f q_m>| with q_m = prod_{j != m}(z - z_j).

    Near-zero residuals certify the candidate set as the zero set of p_n;
    a vanishing denominator flags that entry with infinity.
    """
    if not zeros:
        raise DegenerateError("fixed_point_residual needs at least one zero")
    zs = [complex(z) for z in zeros]
    ff = f.to_float()
    out = []
    for m, zm in enumerate(zs):
        q = Series.from_complex([1.0])
        for j, zj in enumerate(zs):
            if j != m:
                q = poly_mul(q, Series.from_complex([-zj, 1.0]))
        z1 = first_zero(poly_mul(ff, q), alpha)
        out.append(math.inf if z1 == NO_FINITE_ZERO else abs(zm - z1))
    return tuple(out)
