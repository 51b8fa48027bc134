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
from .spaces import gram_matrix

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


def _newton_polish(coeffs: np.ndarray, z: complex, iterations: int = 5) -> complex:
    # coeffs in increasing order; polish only while |p| improves
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    best, best_val = z, abs(np.polyval(coeffs[::-1], z))
    for _ in range(iterations):
        pv = np.polyval(coeffs[::-1], z)
        dv = np.polyval(deriv[::-1], z)
        if dv == 0:
            break
        z = z - pv / dv
        v = abs(np.polyval(coeffs[::-1], z))
        if v < best_val:
            best, best_val = z, v
        else:
            break
    return best


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


def poly_roots(p: Series) -> ZeroSet:
    """All complex roots of p (with multiplicity), via the companion
    matrix of the monic normalization plus Newton refinement.

    Each reported residual is |p(zeta)| / max(1, |zeta|)^deg: dividing by
    the growth of the largest monomial makes the tolerance meaningful for
    roots outside the unit disk, where |p(zeta)| itself carries rounding
    error proportional to |zeta|^deg.
    """
    pf = p.to_float()
    d = pf.degree
    if d < 0:
        raise DegenerateError("the zero polynomial has no well-defined root set")
    coeffs = np.asarray(pf.coeffs[: d + 1], dtype=np.complex128)
    if d == 0:
        return ZeroSet((), 0, ())
    raw = np.roots(coeffs[::-1])
    polished = [_newton_polish(coeffs, complex(z)) for z in raw]
    roots = tuple(_cluster(polished))
    scale = float(np.max(np.abs(coeffs)))
    residuals = tuple(
        float(abs(np.polyval(coeffs[::-1], z)) / max(1.0, abs(z)) ** d)
        for z in roots)
    worst = max(residuals, default=0.0)
    if worst > 1e-6 * scale:
        raise DegenerateError(f"root residual {worst:.3e} too large for scale {scale:.3e}")
    return ZeroSet(roots, d, residuals)


def first_zero(f: Series, alpha):
    """The zero of the first-order approximant:
    z_1 = ||z f||^2_alpha / <f, z f>_alpha.

    Both inner products are entries of the 2x2 Gram matrix: num = G[1][1]
    and den = G[0][1], so the float backend runs the blocked Gram kernel
    of :func:`~optapprox.spaces.gram_matrix` (in float64 for real f).

    Returns NO_FINITE_ZERO when the denominator vanishes (p_1 is constant
    and its zero is interpreted as infinity).
    """
    G = gram_matrix(f, 1, alpha)
    num, den = G[1][1], G[0][1]   # ||z f||^2, <f, z f>
    if f.backend == "exact":
        if den.is_zero:
            return NO_FINITE_ZERO
        return num / den
    if den == 0:
        return NO_FINITE_ZERO
    return complex(num / den)


def first_zero_with_tail(f: Series, alpha, safety: float = 4.0):
    """first_zero together with a doubling-based tail estimate.

    The value is recomputed with f truncated to half its stored degree;
    ``safety`` times the difference is reported as the error estimate
    (the coefficient families in use decay geometrically under degree
    doubling, so the remaining tail is a bounded multiple of one step).
    """
    v_full = first_zero(f, alpha)
    if f.is_exact_polynomial:
        return v_full, 0.0
    half = Series.from_complex(f.to_float().coeffs[: (len(f) - 1) // 2 + 1],
                               is_exact_polynomial=False)
    v_half = first_zero(half, alpha)
    return v_full, safety * abs(complex(v_full) - complex(v_half))


@dataclass(frozen=True)
class ZeroBoundCheck:
    roots: ZeroSet
    min_modulus: float
    bound: float
    passed: bool


def zero_bound_check(f: Series, n: int, alpha) -> ZeroBoundCheck:
    """Verify the zero-location bound: roots of p_n lie outside the closed
    unit disk for alpha >= 0 and outside radius 2^(alpha/2) for alpha < 0."""
    p = optimal(f, n, alpha).p
    if p.to_float().degree < 1:
        zs = ZeroSet((), max(p.to_float().degree, 0), ())
    else:
        zs = poly_roots(p)
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
        G = gram_matrix(poly_mul(ff, q), 1, alpha)
        num, den = G[1][1], G[0][1]
        if den == 0:
            out.append(math.inf)
        else:
            out.append(abs(zm - complex(num / den)))
    return tuple(out)
