"""Optimal polynomial approximants to 1/f and the associated distances.

The degree-n optimal approximant p_n minimizes ||p f - 1||_alpha over
polynomials of degree at most n; its coefficients solve the normal
equations conj(G) c = conj(f(0)) e_0 for the Gram matrix
G_kl = <z^k f, z^l f>_alpha.  Gram's Lemma gives the squared distance
from 1 to f * P_n as d_n^2 = 1 - p_n(0) f(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linsolve
from .exact import ExactComplex
from .series import Series, poly_mul, poly_sub
from .spaces import _f0_nonzero, gram, gram_numerators, norm_sq


@dataclass(frozen=True)
class ApproximantResult:
    n: int
    p: Series
    p_at_zero: object
    distance_sq: object      # real scalar: Fraction (exact) or float
    tail_error_bound: float


def _real(x):
    """Real part of a scalar that is real up to backend noise."""
    if isinstance(x, ExactComplex):
        return x.re
    return complex(x).real


def _approximants(f: Series, degrees, alpha) -> list:
    """Approximants of each degree in ``degrees`` from one factorization
    of the Gram matrix G at the largest degree.  Minimizing ||p f - 1||^2
    gives conj(G) c = conj(f(0)) e_0, so c = conj(y) for G y = f(0) e_0,
    and the degree-n system is the leading (n+1)-block of G.  For an exact
    polynomial f, G goes to the solver as its band of integer numerators."""
    exact = f.backend == "exact"
    top = max(degrees)
    if exact and f.is_exact_polynomial:
        _f0_nonzero(f)
        G, tail = gram_numerators(f, top, alpha), 0.0
    else:
        system = gram(f, top, alpha)
        G, tail = system.matrix, system.tail_error_bound
    sizes = [n + 1 for n in degrees]
    f0 = f.at0()
    b = (f0,) + (ExactComplex(0) if exact else 0j,) * top
    if exact:
        y = [x.conjugate() for x in linsolve.solve_exact(G, b, sizes)]
    else:
        y = np.conj(linsolve.solve_hpd_float(G, b, sizes))
    out, start = [], 0
    for n in degrees:
        c = y[start: start + n + 1]
        start += n + 1
        if exact:
            p, p0, one = Series(tuple(c), True), c[0], Fraction(1)
        else:
            p, p0, one = Series.from_complex(c), complex(c[0]), 1.0
        out.append(ApproximantResult(n, p, p0, one - _real(p0 * f0), tail))
    return out


def optimal(f: Series, n: int, alpha) -> ApproximantResult:
    """Solve for the unique degree-n optimal approximant to 1/f in D_alpha."""
    return _approximants(f, [n], alpha)[0]


def optimal_sweep(f: Series, n_max: int, alpha):
    """Optimal approximants for every n = 0..n_max, read off one
    factorization of the Gram matrix at n_max."""
    return _approximants(f, range(n_max + 1), alpha)


def distance(f: Series, n: int, alpha):
    """d_n^2 = dist^2_{D_alpha}(1, f * P_n) via Gram's Lemma
    (1 - p_n(0) f(0)); nonincreasing in n."""
    return optimal(f, n, alpha).distance_sq


def pn0_via_determinants(f: Series, n: int, alpha):
    """p_n(0) = conj(f(0)) det(M-hat) / det(M), where M-hat is the lower
    right n x n minor of the Gram matrix."""
    system = gram(f, n, alpha)
    if f.backend == "exact":
        M = system.matrix
        minor = tuple(tuple(row[1:]) for row in M[1:])
        return f.at0().conjugate() * linsolve.det_exact(minor) / linsolve.det_exact(M)
    M = np.asarray(system.matrix)
    return complex(np.conj(f.at0()) * np.linalg.det(M[1:, 1:]) / np.linalg.det(M))


@dataclass(frozen=True)
class EqualQuantities:
    """Six mutually equal expressions for the squared approximation
    distance, each computed by its own route."""

    dist_sq: object              # (a) Gram's Lemma distance
    residual_norm_sq: object     # (b) ||p_n f - 1||^2 recomputed
    one_minus_p0_f0: object      # (c) 1 - p_n(0) f(0)
    one_minus_inv00: object      # (d) 1 - (M^-1)_{00} |f(0)|^2
    one_minus_phi_sum: object    # (e) 1 - sum |phi_k(0)|^2 |f(0)|^2
    one_minus_kernel00: object   # (f) 1 - K_n(0, 0)

    def as_tuple(self):
        return (self.dist_sq, self.residual_norm_sq, self.one_minus_p0_f0,
                self.one_minus_inv00, self.one_minus_phi_sum,
                self.one_minus_kernel00)

    def max_pairwise_gap(self) -> float:
        vals = [float(v) for v in self.as_tuple()]
        return max(vals) - min(vals)


def equal_quantities(f: Series, n: int, alpha) -> EqualQuantities:
    # local imports: orthopoly and kernels do not import us
    from .kernels import kernel_eval_from_basis
    from .orthopoly import basis

    exact = f.backend == "exact"
    one = Fraction(1) if exact else 1.0
    zero = ExactComplex(0) if exact else 0j
    f0 = f.at0() if exact else complex(f.at0())
    f0_sq = f0.abs_sq if exact else abs(f0) ** 2
    res = optimal(f, n, alpha)
    # (b) ||p_n f - 1||^2 recomputed from the product
    unit = Series.exact([1]) if exact else Series.from_complex([1.0])
    resid = norm_sq(poly_sub(poly_mul(res.p, f), unit), alpha)
    # (c)
    c = one - _real(res.p_at_zero * f0)
    # (d): first column of M^-1
    solve = linsolve.solve_exact if exact else linsolve.solve_hpd_float
    inv_col = solve(gram(f, n, alpha).matrix, (zero + 1,) + (zero,) * n)
    d = one - _real(inv_col[0]) * f0_sq
    # (e) via the orthonormal basis of the weighted space
    bas = basis(f, n, alpha)
    e = one - bas.phi_zero_sq_partial_sums()[-1] * f0_sq
    # (f) via the reproducing-kernel evaluation, on the basis of (e)
    fq = one - _real(kernel_eval_from_basis(bas, zero, zero).value)
    return EqualQuantities(res.distance_sq, resid, c, d, e, fq)
