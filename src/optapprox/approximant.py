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
from .spaces import _f0_nonzero, gram_matrix, norm_sq, truncation_error


@dataclass(frozen=True)
class ApproximantResult:
    n: int
    p: Series
    p_at_zero: object
    distance_sq: object      # real scalar: Fraction (exact) or float
    tail_error_bound: float


def _approximants(f: Series, degrees, alpha) -> list:
    """Approximants of each degree in ``degrees`` from one factorization
    of the Gram matrix G at the largest degree.  Minimizing ||p f - 1||^2
    gives conj(G) c = conj(f(0)) e_0, so c = conj(y) for G y = f(0) e_0,
    and the degree-n system is the leading (n+1)-block of G (np.conj
    conjugates an exact y one by one).  The tails are read after G is
    built, so that an overflowing G is refused as such."""
    _f0_nonzero(f)
    G = gram_matrix(f, max(degrees), alpha)
    tails = [truncation_error(f, n, alpha) for n in degrees]
    f0 = f.at0()
    y = np.conj(linsolve.solve(linsolve.factor(G, f0), [n + 1 for n in degrees]))
    out, start = [], 0
    for n, tail in zip(degrees, tails):
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

    _f0_nonzero(f)
    G = gram_matrix(f, n, alpha)
    f.require_in_space(alpha)
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
