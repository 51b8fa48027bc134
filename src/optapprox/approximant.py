"""Optimal polynomial approximants to 1/f and the associated distances.

The degree-n optimal approximant p_n minimizes ||p f - 1||_alpha over
polynomials of degree at most n; its coefficients solve the normal
equations conj(G) c = conj(f(0)) e_0 for the Gram matrix
G_kl = <z^k f, z^l f>_alpha.  Gram's Lemma gives the squared distance
from 1 to f * P_n as d_n^2 = 1 - p_n(0) f(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .exact import abs_sq
from .series import Series, poly_mul, poly_sub, scale
from .spaces import _f0_nonzero, gram, gram_numerators, norm_sq


@dataclass(frozen=True)
class ApproximantResult:
    n: int
    p: Series
    p_at_zero: object
    distance_sq: object      # real scalar: Fraction (exact) or float
    tail_error_bound: float


def _gram_system(f: Series, n: int, alpha) -> tuple:
    """The Gram matrix to factor and its tail estimate: for an exact
    polynomial f, its band of integer numerators, which linsolve takes as
    it is."""
    if f.backend == "exact" and f.is_exact_polynomial:
        _f0_nonzero(f)
        return gram_numerators(f, n, alpha), 0.0
    system = gram(f, n, alpha)
    return system.matrix, system.tail_error_bound


def _approximants(f: Series, degrees, alpha) -> list:
    """Approximants of each degree in ``degrees`` from one factorization
    of the Gram matrix G at the largest degree.  Minimizing ||p f - 1||^2
    gives conj(G) c = conj(f(0)) e_0, so c = conj(y) for G y = f(0) e_0,
    and the degree-n system is the leading (n+1)-block of G.  For an exact
    polynomial f, G is its band of integer numerators (and np.conj
    conjugates the exact y one by one)."""
    G, tail = _gram_system(f, max(degrees), alpha)
    f0 = f.at0()
    y = np.conj(linsolve.solve(linsolve.factor(G, f0), [n + 1 for n in degrees]))
    out, start = [], 0
    for n in degrees:
        p = f.like(y[start: start + n + 1])
        start += n + 1
        p0 = p.at0()
        out.append(ApproximantResult(n, p, p0, 1 - (p0 * f0).real, tail))
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
    # one factorization of G, with B = I, gives p_n = conj(f(0) G^-1 e_0)
    # and the basis (L^-1, D); local imports: orthopoly and kernels do not import us
    from .kernels import kernel_eval_from_basis
    from .orthopoly import _basis_from

    G = _gram_system(f, n, alpha)[0]
    F = linsolve.factor(G)
    f0 = f.at0()
    f0_sq = abs_sq(f0)
    inv_col = linsolve.solve(F)
    p = scale(f.like(np.conj(inv_col)), f0.conjugate())
    # (a) and (c): Gram's Lemma, 1 - p_n(0) f(0)
    dist = 1 - (p.at0() * f0).real
    # (b) ||p_n f - 1||^2 recomputed from the product
    resid = norm_sq(poly_sub(poly_mul(p, f), f.like([1])), alpha)
    # (d): first column of G^-1
    d = 1 - inv_col[0].real * f0_sq
    # (e) via the orthonormal basis of the weighted space
    bas = _basis_from(f, n, alpha, G, F)
    e = 1 - sum(bas.phi_zero_sq(k) for k in range(n + 1)) * f0_sq
    # (f) via the reproducing-kernel evaluation, on the basis of (e)
    fq = 1 - kernel_eval_from_basis(bas, 0, 0).value.real
    return EqualQuantities(dist, resid, dist, d, e, fq)
