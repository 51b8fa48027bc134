"""Root extraction for the approximant polynomials and the zero-location
checks.

Roots come from companion-matrix eigenvalues followed by a few guarded
Newton corrections on the original polynomial, run once over the roots of
all the polynomials of a sweep; exact-backend polynomials are converted
to floats first (roots are generically irrational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximant import optimal
from .errors import DegenerateError
from .series import Series, poly_mul
from .spaces import gram_matrix, truncation_error

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


def _horner(C: np.ndarray, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z[i]) for p the row rows[i] of C, coefficients in decreasing order
    and zero-padded at the top.  These are np.polyval's steps, y = y z + c
    from y = +0: a padding step leaves y = +0 for a finite z, so the
    padding changes no bit."""
    y = np.zeros_like(z)
    for c in C.T:
        y = y * z + c[rows]
    return y


def _newton_polish(C: np.ndarray, rows: np.ndarray, z: np.ndarray,
                   iterations: int = 5) -> np.ndarray:
    # z[i] is a root of the row rows[i] of C (see _horner); each root is
    # polished while |p| improves and stops, keeping its best iterate, when
    # p' vanishes or |p| does not
    dC = C[:, :-1] * np.arange(C.shape[1] - 1, 0, -1)   # as np.polyder
    z = z.astype(np.complex128)
    pv = _horner(C, rows, z)
    best = _modulus(pv)
    idx = np.arange(len(z))
    for _ in range(iterations):
        dv = _horner(dC, rows[idx], z[idx])
        idx, dv = idx[dv != 0], dv[dv != 0]
        # a step far out overflows p(step); an inf or NaN |p| fails v < best
        with np.errstate(over="ignore", invalid="ignore"):
            step = z[idx] - pv[idx] / dv
            step_pv = _horner(C, rows[idx], step)
            v = _modulus(step_pv)
        ok = v < best[idx]
        idx = idx[ok]
        z[idx], pv[idx], best[idx] = step[ok], step_pv[ok], v[ok]
    return z


def _growth(z: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """max(1, |z|)^d root by root, with the bits of base ** d for one d:
    numpy squares for d = 2 and calls pow() for any other d."""
    base = np.maximum(1.0, np.abs(z))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(degrees == 2, base * base, base ** degrees)


def _has_close_pair(z: np.ndarray) -> bool:
    """Whether two of the roots z are within CLUSTER_TOL of each other;
    when none are, _cluster returns each root as its own centroid."""
    diff = z[:, None] - z
    dist = _modulus(diff)
    np.fill_diagonal(dist, np.inf)
    return bool((dist <= CLUSTER_TOL).any())


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


def _companion_roots(p: Series):
    """p's degree d, its float view and the companion roots of the view
    (none for d = 0), with the refusals of :func:`poly_roots`."""
    d = p.degree
    if d < 0:
        raise DegenerateError("the zero polynomial has no well-defined root set")
    if d == 0:
        return 0, None, None
    coeffs = _float_view(p, d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = coeffs[:d] / coeffs[d]
    if not np.isfinite(monic).all():
        raise OverflowError("the coefficients of p span more than the float range, "
                            "so its roots cannot be computed in floats")
    return d, coeffs, np.roots(coeffs[::-1]).astype(np.complex128)


def _polished(heads: list) -> list:
    """The ZeroSets of the (d, view, companion roots) of :func:`_companion_roots`,
    all d >= 1, from one Newton pass over all their roots."""
    if not heads:
        return []
    degrees = np.array([d for d, _, _ in heads])
    C = np.zeros((len(heads), degrees.max() + 1), dtype=np.complex128)
    for row, (d, coeffs, _) in zip(C, heads):
        row[-d - 1:] = coeffs[::-1]
    counts = [len(z) for _, _, z in heads]
    starts = np.cumsum([0] + counts)
    rows = np.repeat(np.arange(len(heads)), counts)
    z = np.concatenate([z for _, _, z in heads])
    # a far root overflows p(zeta) and |zeta|^d: Newton keeps it as it
    # is, and its residual is taken as |zeta^-d p(zeta)|, a polynomial
    # in 1/zeta
    far = np.isinf(_growth(z, degrees[rows]))
    z[~far] = _newton_polish(C, rows[~far], z[~far])
    if far.any():
        with np.errstate(over="ignore", invalid="ignore"):
            z[far] = _newton_polish(C, rows[far], z[far])
    for a, b in zip(starts, starts[1:]):
        if _has_close_pair(z[a:b]):
            z[a:b] = _cluster(z[a:b].tolist())
    # a root alone is its own centroid, complex(0 + zeta), which turns a
    # -0.0 part into +0.0; adding +0 leaves every other centroid as it is
    z = z + 0
    growth = _growth(z, degrees[rows])
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.abs(_horner(C, rows, z)) / growth
    far = np.isinf(growth)
    for r in np.unique(rows[far]):
        sel = far & (rows == r)
        residuals[sel] = np.abs(np.polyval(heads[r][1], 1 / z[sel]))
    scale = np.abs(C).max(axis=1)
    worst = np.maximum.reduceat(residuals, starts[:-1])
    failing = np.flatnonzero(worst > 1e-6 * scale)
    if failing.size:
        r = failing[0]
        raise DegenerateError(f"root residual {float(worst[r]):.3e} too large "
                              f"for scale {float(scale[r]):.3e}")
    return [ZeroSet(tuple(z[a:b].tolist()), d, tuple(residuals[a:b].tolist()))
            for d, a, b in zip(degrees.tolist(), starts, starts[1:])]


def poly_roots_batch(ps) -> list:
    """The :func:`poly_roots` of each p in ps, in order.  Each p has its
    own companion eigenvalues; the Newton polish and the residuals then
    run once over the roots of all of them, each p's coefficients one
    zero-padded row (see _horner), so every root, residual and error is
    the one poly_roots(p) gives.  The first p in ps that fails raises its
    error."""
    heads, failure = [], None
    for p in ps:
        try:
            heads.append(_companion_roots(p))
        except (DegenerateError, OverflowError) as exc:
            failure = exc
            break
    polished = iter(_polished([h for h in heads if h[0]]))
    out = [next(polished) if d else ZeroSet((), 0, ()) for d, _, _ in heads]
    if failure is not None:
        raise failure
    return out


def poly_roots(p: Series) -> ZeroSet:
    """All complex roots of p (with multiplicity), via the companion
    matrix of the monic normalization plus Newton refinement.  A constant
    has none, and the zero polynomial raises DegenerateError.

    The degree is p's own (see Series.degree), and the roots are those of
    its float view (see _float_view), so an exact p far from unit scale
    keeps them.  When the monic normalization of the view overflows, they
    cannot be computed in floats: OverflowError.  Newton runs on all
    roots at once; each root stops after 5 steps, or when p' vanishes or
    |p| stops decreasing, and keeps its best iterate.  Roots within
    CLUSTER_TOL of each other are reported as their centroid.

    Each reported residual is |p(zeta)| / max(1, |zeta|)^deg, with p the
    float view: dividing by the growth of the largest monomial makes the
    tolerance meaningful for roots outside the unit disk, where |p(zeta)|
    itself carries rounding error proportional to |zeta|^deg.  A residual
    above 1e-6 times the largest coefficient raises DegenerateError.
    """
    return poly_roots_batch([p])[0]


def first_zero(f: Series, alpha):
    """The zero of the first-order approximant:
    z_1 = ||z f||^2_alpha / <f, z f>_alpha.

    Both inner products are entries of the 2x2 Gram matrix of
    :func:`~optapprox.spaces.gram_matrix`: num = G_11 and den = G_01.

    Returns NO_FINITE_ZERO when the denominator vanishes (p_1 is constant
    and its zero is interpreted as infinity); in the float backend, when
    it is rounding noise next to ||f|| ||z f||.
    """
    G = gram_matrix(f, 1, alpha)
    f.require_in_space(alpha)
    return _first_zero_of(G, f.backend)


def _first_zero_of(G, backend: str):
    if backend == "exact":
        G = G.to_exact()
        return NO_FINITE_ZERO if G[0][1].is_zero else G[1][1] / G[0][1]
    num, den = G[1][1], G[0][1]   # ||z f||^2, <f, z f>
    # within 4 rounding units of its Cauchy-Schwarz size ||f|| ||z f||, den
    # is noise: an exact 0 (Blaschke factor, alpha = 0) rounds to ~1e-17;
    # the two norms are taken apart, since ||f||^2 ||z f||^2 can overflow
    size = math.sqrt(G[0][0].real) * math.sqrt(num.real)
    if abs(den) <= 4 * np.finfo(np.float64).eps * size:
        return NO_FINITE_ZERO
    return complex(num / den)


def first_zero_with_tail(f: Series, alpha):
    """first_zero together with a bound on its distance to the first zero
    of the function f stands for: 0 for a polynomial.

    With every Gram entry within d = spaces.truncation_error(f, 1, alpha)
    of that function's, z = G_11 / G_01 moves by at most
    d (1 + |z|) / (|G_01| - d); the bound is inf when |G_01| <= d or z is
    NO_FINITE_ZERO.
    """
    G = gram_matrix(f, 1, alpha)
    value = _first_zero_of(G, f.backend)
    d = truncation_error(f, 1, alpha)
    if not d:
        return value, 0.0
    den = float(abs(G[0][1])) - d
    return value, (d * (1 + abs(value)) / den if den > 0 and value != NO_FINITE_ZERO
                   else math.inf)


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
