"""Optimal polynomial approximants to 1/f and the associated distances.

The degree-n optimal approximant p_n minimizes ||p f - 1||_alpha over
polynomials of degree at most n; its coefficients solve the Gram system
M c = conj(f(0)) e_0.  Gram's Lemma gives the squared distance from 1 to
f * P_n as d_n^2 = 1 - p_n(0) f(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linsolve
from .exact import ExactComplex
from .series import Series, poly_mul, scale
from .spaces import GramSystem, gram, norm_sq


@dataclass(frozen=True)
class ApproximantResult:
    n: int
    p: Series
    p_at_zero: object
    distance_sq: object      # real scalar: Fraction (exact) or float
    residual_norm_sq: object  # ||p_n f - 1||^2 recomputed directly
    tail_error_bound: float


def _real(x):
    """Real part of a scalar that is real up to backend noise."""
    if isinstance(x, ExactComplex):
        return x.re
    return complex(x).real


def _normal_matrix(system: GramSystem):
    """Coefficient matrix of the normal equations.

    Minimizing ||p f - 1||^2 gives sum_k <z^k f, z^l f> c_k = conj(f(0))
    delta_{l0}, i.e. M^T c = rhs with M_{k,l} = <z^k f, z^l f>; since M is
    Hermitian, M^T = conj(M).  For real-coefficient f the conjugation is a
    no-op, which is why the distinction only shows up for complex f.
    """
    if system.backend == "float":
        return np.conj(np.asarray(system.matrix))
    return tuple(tuple(x.conjugate() for x in row) for row in system.matrix)


def _residual_norm_sq(p: Series, f: Series, alpha):
    pf = poly_mul(p, f)
    if f.backend == "exact":
        r = list(pf.coeffs)
        r[0] = r[0] - ExactComplex(1)
        return norm_sq(Series(tuple(r), True), alpha)
    r = np.array(pf.coeffs, dtype=np.complex128)
    r[0] -= 1.0
    return norm_sq(Series.from_complex(r), alpha)


def _approximant(f: Series, system: GramSystem, A, n: int, alpha) -> ApproximantResult:
    """Degree-n approximant from the leading block of the normal matrix A."""
    if f.backend == "exact":
        c = linsolve.solve_exact(tuple(row[: n + 1] for row in A[: n + 1]), system.rhs[: n + 1])
        p, p0, one = Series(tuple(c), True), c[0], Fraction(1)
    else:
        c = linsolve.solve_hpd_float(A[: n + 1, : n + 1], np.asarray(system.rhs)[: n + 1])
        p, p0, one = Series.from_complex(c), complex(c[0]), 1.0
    return ApproximantResult(
        n=n, p=p, p_at_zero=p0, distance_sq=one - _real(p0 * f.at0()),
        residual_norm_sq=_residual_norm_sq(p, f, alpha),
        tail_error_bound=system.tail_error_bound)


def optimal(f: Series, n: int, alpha) -> ApproximantResult:
    """Solve for the unique degree-n optimal approximant to 1/f in D_alpha."""
    system = gram(f, n, alpha)
    return _approximant(f, system, _normal_matrix(system), n, alpha)


def optimal_sweep(f: Series, n_max: int, alpha):
    """Optimal approximants for every n = 0..n_max, reusing one Gram
    matrix built at n_max (principal submatrices are the smaller systems)."""
    system = gram(f, n_max, alpha)
    A = _normal_matrix(system)
    return [_approximant(f, system, A, n, alpha) for n in range(n_max + 1)]


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
    from .orthopoly import basis  # local import: orthopoly does not import us

    res = optimal(f, n, alpha)
    f0 = f.at0()
    system = gram(f, n, alpha)

    # (c)
    if f.backend == "exact":
        c = Fraction(1) - _real(res.p_at_zero * f0)
    else:
        c = 1.0 - _real(complex(res.p_at_zero) * complex(f0))
    # (d): first column of M^-1
    if f.backend == "exact":
        inv_col = linsolve.solve_exact(
            system.matrix, (ExactComplex(1),) + (ExactComplex(0),) * n)
        d = Fraction(1) - _real(inv_col[0]) * f0.abs_sq
    else:
        e0 = np.zeros(n + 1, dtype=np.complex128)
        e0[0] = 1.0
        inv_col = linsolve.solve_hpd_float(system.matrix, e0)
        d = 1.0 - inv_col[0].real * abs(complex(f0)) ** 2
    # (e) via the orthonormal basis of the weighted space
    bas = basis(f, n, alpha)
    phi_sum = bas.phi_zero_sq_partial_sums()[-1]
    if f.backend == "exact":
        e = Fraction(1) - phi_sum * f0.abs_sq
    else:
        e = 1.0 - phi_sum * abs(complex(f0)) ** 2
    # (f) via the reproducing-kernel evaluation path
    from .kernels import kernel_eval

    zero = ExactComplex(0) if f.backend == "exact" else 0j
    k00 = kernel_eval(f, n, alpha, zero, zero).value
    if f.backend == "exact":
        fq = Fraction(1) - _real(k00)
    else:
        fq = 1.0 - _real(k00)
    return EqualQuantities(res.distance_sq, res.residual_norm_sq, c, d, e, fq)
