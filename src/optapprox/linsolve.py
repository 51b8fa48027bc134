"""Linear solvers for the Hermitian positive-definite Gram systems.

Float backend: Cholesky factorization, condition estimate from the factor.
Exact backend: fraction-free elimination (Bareiss, Math. Comp. 22, 1968)
over the integers, after scaling the matrix by the lcm of its
denominators; Fractions appear only in the results.  The one elimination
gives solutions, determinants (the last pivot) and, run on [G | I], the
factors L^-1 and D of G = L D L^H that make the orthogonal basis.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import zpocon, zpotrf, zpotrs

from .errors import ConditioningError, DegenerateError
from .exact import ExactComplex

#: Condition estimate beyond which the float solver refuses and advises
#: the exact backend.
CONDITION_LIMIT = 1e14


def solve_hpd_float(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b by Cholesky.  The limit applies to LAPACK's estimate
    of the 1-norm condition number from the factor (``zpocon``), which can
    differ from the 2-norm one by up to a factor n either way."""
    M = np.asarray(M, dtype=np.complex128)
    c, info = zpotrf(M)  # M = U^H U
    rcond = zpocon(c, np.linalg.norm(M, 1))[0] if info == 0 else 0.0
    cond = 1.0 / rcond if rcond > 0 else math.inf
    if not cond <= CONDITION_LIMIT:
        raise ConditioningError(
            f"Gram matrix condition estimate {cond:.3e} exceeds 1e14; "
            "use the exact backend")
    return zpotrs(c, np.asarray(b, dtype=np.complex128))[0]


# Exact elimination runs over a ring: the integers for real matrices and
# the Gaussian integers, as (re, im) pairs of ints, for complex ones.

def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gsub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _gdiv(a, b):
    """Quotient a / b of Gaussian integers, for b dividing a."""
    br, bi = b
    if bi == 0:
        return a[0] // br, a[1] // br
    nb = br * br + bi * bi
    return (a[0] * br + a[1] * bi) // nb, (a[1] * br - a[0] * bi) // nb


#: zero, one, product, difference and exact quotient of each ring
_INTEGERS = (0, 1, operator.mul, operator.sub, operator.floordiv)
_GAUSSIAN = ((0, 0), (1, 0), _gmul, _gsub, _gdiv)


def _integer_rows(rows):
    """Scale exact rows by the lcm of all their denominators; returns the
    scaled rows, the lcm and the ring they lie in."""
    lcm = 1
    for row in rows:
        for x in row:
            lcm = math.lcm(lcm, x.re.denominator, x.im.denominator)

    def scaled(q):
        return q.numerator * (lcm // q.denominator)

    if all(x.im == 0 for row in rows for x in row):
        return [[scaled(x.re) for x in row] for row in rows], lcm, _INTEGERS
    return [[(scaled(x.re), scaled(x.im)) for x in row] for row in rows], lcm, _GAUSSIAN


def _eliminate(rows, n: int, ring) -> None:
    """Fraction-free forward elimination on the first n columns, in place.

    Afterwards row k, from column k on, is Delta_k times row k of
    L^-1 [A | rest], where A = L D U, L is unit lower triangular and
    Delta_k is the k-th leading principal minor of A (Delta_0 = 1), so
    the pivot rows[k][k] is Delta_{k+1}.  Each quotient by the previous
    pivot is exact.  Entries left of the diagonal are stale.
    """
    zero, prev, mul, sub, div = ring
    for k in range(n - 1):
        pivot = rows[k][k]
        if pivot == zero:
            raise DegenerateError("zero pivot in exact elimination; matrix is singular")
        rk = rows[k][k + 1:]
        for i in range(k + 1, n):
            ri = rows[i]
            a = ri[k]
            ri[k + 1:] = [div(sub(mul(x, pivot), mul(a, y)), prev)
                          for x, y in zip(ri[k + 1:], rk)]
        prev = pivot


def _quotient(x, d) -> ExactComplex:
    """x / d as an exact scalar, for ints or Gaussian-integer pairs."""
    if isinstance(d, tuple):
        if d[1]:
            x, d = _gmul(x, (d[0], -d[1])), d[0] * d[0] + d[1] * d[1]
        else:
            d = d[0]
    if isinstance(x, tuple):
        return ExactComplex(Fraction(x[0], d), Fraction(x[1], d))
    return ExactComplex(Fraction(x, d))


def solve_exact(M, b):
    """Exact solution of M x = b over complex rationals."""
    n = len(b)
    rows, _, ring = _integer_rows([list(M[i]) + [b[i]] for i in range(n)])
    _eliminate(rows, n, ring)
    zero, _, mul, sub, div = ring
    det = rows[n - 1][n - 1]
    if det == zero:
        raise DegenerateError("zero pivot in exact back substitution")
    # Back substitution for y = det * x, which is integral by Cramer's
    # rule, so each division by a pivot is exact.
    y = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = mul(row[n], det)
        for j in range(i + 1, n):
            acc = sub(acc, mul(row[j], y[j]))
        y[i] = div(acc, row[i])
    return tuple(_quotient(v, det) for v in y)


def det_exact(M):
    """Exact determinant: the last pivot of the elimination."""
    n = len(M)
    if n == 0:
        return ExactComplex(1)
    rows, lcm, ring = _integer_rows(M)
    _eliminate(rows, n, ring)
    return _quotient(rows[n - 1][n - 1], lcm ** n)


def inverse_ldl_exact(G):
    """Rows of L^-1 and the diagonal of D for a Hermitian G = L D L^H.

    Row k of L^-1 has entries in columns 0..k only, with 1 at column k;
    these are returned truncated to length k + 1, with D as Fractions.
    Raises DegenerateError on a zero leading principal minor.
    """
    n = len(G)
    rows, lcm, ring = _integer_rows(G)
    zero, one = ring[:2]
    for k, row in enumerate(rows):
        row.extend(one if j == k else zero for j in range(n))
    _eliminate(rows, n, ring)
    minors = [one] + [rows[k][k] for k in range(n)]   # Delta_0..Delta_n
    if minors[n] == zero:
        raise DegenerateError(f"zero weighted norm at degree {n - 1}")
    inv = [tuple(_quotient(x, minors[k]) for x in rows[k][n: n + k + 1]) for k in range(n)]
    # the matrix was scaled by lcm, so D_k = Delta_{k+1} / (Delta_k lcm)
    norms = [_quotient(minors[k + 1], minors[k]).re / lcm for k in range(n)]
    return inv, norms
