"""Linear solvers for the Hermitian positive-definite Gram systems.

Float backend: Cholesky factorization, condition estimate from the factor.
Exact backend: fraction-free elimination (Bareiss, Math. Comp. 22, 1968)
over the integers or the Gaussian integers.  Its input is an
:class:`IntegerMatrix`, integer numerators over one common denominator
that store only the nonzero entries: the Gram band comes that way from
``spaces.gram_numerators``, and rows of exact scalars are scaled once by
the lcm of their denominators.  Fractions appear only in the results.
The elimination skips zeros, bringing a skipped row up to date lazily
(see :func:`_eliminate`), so a band matrix of width d costs O(n d^2)
big-int steps.  The one elimination gives solutions, determinants (the
last pivot) and, run on [G | I], the factors L^-1 and D of
G = L D L^H that make the orthogonal basis.  Neither factorization reads
past its current leading block, so both solvers read every leading
system M[:m, :m] x = b[:m] off one factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import zpocon, zpotrf, zpotrs

from .errors import ConditioningError, DegenerateError
from .exact import ExactComplex

#: Condition estimate beyond which the float solver refuses and advises
#: the exact backend.
CONDITION_LIMIT = 1e14


def solve_hpd_float(M: np.ndarray, b: np.ndarray, sizes=None) -> np.ndarray:
    """Solutions of M[:m, :m] x = b[:m] for each m in ``sizes`` (default:
    the whole system), one after another in one array, by Cholesky.  A
    system is refused when LAPACK's estimate of its 1-norm condition
    number (``zpocon``) exceeds the limit; it can differ from the 2-norm
    one by up to a factor m either way."""
    M = np.asarray(M, dtype=np.complex128)
    c, info = zpotrf(M)  # M = U^H U; info > 0: leading minor of order info is not positive
    out = []
    for m in (len(b),) if sizes is None else sizes:
        U = c[:m, :m]
        rcond = zpocon(U, np.linalg.norm(M[:m, :m], 1))[0] if not 0 < info <= m else 0.0
        cond = 1.0 / rcond if rcond > 0 else math.inf
        if not cond <= CONDITION_LIMIT:
            raise ConditioningError(
                f"Gram matrix condition estimate {cond:.3e} exceeds 1e14; "
                "use the exact backend")
        out.append(zpotrs(U, np.asarray(b[:m], dtype=np.complex128))[0])
    return np.concatenate(out)


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


@dataclass(frozen=True)
class IntegerMatrix:
    """An exact square matrix as integer numerators over one common
    denominator.

    ``rows[i]`` maps a column j to the numerator of entry (i, j): a Python
    int, or, when ``gaussian``, a Gaussian integer as an (re, im) pair of
    ints.  A column a row omits holds an exact zero, so a band matrix
    stores its band only.
    """

    rows: tuple          # of dicts {column: numerator}
    denominator: int
    gaussian: bool

    def to_exact(self) -> tuple:
        """The matrix as rows of ExactComplex, one division per nonzero entry."""
        zero = ExactComplex(0)
        n = len(self.rows)
        return tuple(tuple(_quotient(row[j], self.denominator) if j in row else zero
                           for j in range(n)) for row in self.rows)


def _as_integer(M) -> IntegerMatrix:
    """M itself, or M given as rows of exact scalars over the lcm of its
    denominators."""
    if isinstance(M, IntegerMatrix):
        return M
    lcm = 1
    for row in M:
        for x in row:
            lcm = math.lcm(lcm, x.re.denominator, x.im.denominator)

    def scaled(q):
        return q.numerator * (lcm // q.denominator)

    if any(x.im for row in M for x in row):
        return IntegerMatrix(tuple({j: (scaled(x.re), scaled(x.im))
                                    for j, x in enumerate(row) if not x.is_zero}
                                   for row in M), lcm, True)
    return IntegerMatrix(tuple({j: scaled(x.re) for j, x in enumerate(row) if x.re}
                               for row in M), lcm, False)


def _working_rows(A: IntegerMatrix, gaussian: bool) -> list:
    """Copies of A's rows for the elimination to overwrite, as Gaussian
    integers when ``gaussian``."""
    if gaussian and not A.gaussian:
        return [{j: (x, 0) for j, x in row.items()} for row in A.rows]
    return [dict(row) for row in A.rows]


def _eliminate(rows, n: int, ring) -> list:
    """Fraction-free forward elimination on the first n columns, in place;
    returns the leading principal minors Delta_0 = 1, Delta_1..Delta_n of
    the matrix A held in those columns.

    The rows are dicts {column: entry}; an absent column holds a zero.
    Afterwards row k, from column k on, is Delta_k times row k of
    L^-1 [A | rest], where A = L D U and L is unit lower triangular, so the
    pivot rows[k][k] is Delta_{k+1}; columns left of k are dropped.  Each
    quotient is exact, because every entry it produces is a minor of
    [A | rest].

    Zeros cost no arithmetic.  At step k a row whose entry in column k is zero
    is skipped: its level-(k+1) entries are its stored ones times
    Delta_{k+1} / Delta_lev, where Delta_lev is the last leading minor the
    row was brought to, so the scaling can wait.  The next update of the
    row, (x p - a y) / Delta_k on level-k entries, is (x p - a y) / Delta_lev
    on the stored ones: one exact division brings it up to date.  A row
    skipped at step k-1 can be the pivot row at step k, so a stale pivot row
    is first scaled by Delta_k / Delta_lev, before its pivot is read.  Only
    the nonzero columns of the pivot row and of the row updated are visited.
    On a band matrix of width d a step updates at most d rows of at most 2d
    entries left of the augmented columns: O(n d^2) big-int steps, not
    O(n^3).  Raises DegenerateError on a zero pivot before the last.
    """
    zero, one, mul, sub, div = ring
    minors = [one]
    level = [0] * n     # the leading minor each row was last brought to
    for k in range(n):
        rk = rows[k]
        if level[k] < k:
            s, t = minors[k], minors[level[k]]
            rows[k] = rk = {j: div(mul(x, s), t) for j, x in rk.items() if j >= k}
        pivot = rk.get(k, zero)
        minors.append(pivot)
        if k == n - 1:
            break
        if pivot == zero:
            raise DegenerateError("zero pivot in exact elimination; matrix is singular")
        tail = {j: y for j, y in rk.items() if j > k}
        for i in range(k + 1, n):
            ri = rows[i]
            a = ri.get(k, zero)
            if a == zero:
                continue
            d = minors[level[i]]
            new = {j: div(mul(x, pivot), d) for j, x in ri.items() if j > k and j not in tail}
            for j, y in tail.items():
                new[j] = div(sub(mul(ri.get(j, zero), pivot), mul(a, y)), d)
            rows[i] = new
            level[i] = k + 1
    return minors


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


def solve_exact(M, b, sizes=None):
    """Exact solutions of M[:m, :m] x = b[:m] for each m in ``sizes``
    (default: the whole system), one after another in one flat tuple,
    from one elimination of [M | b].  M is an IntegerMatrix or rows of
    exact scalars; b holds exact scalars."""
    n = len(b)
    A = _as_integer(M)
    # with b = c / q for integral c, x = z / q where (numerators of M) z is
    # A.denominator c, the augmented column
    q = math.lcm(*(p.denominator for x in b for p in (x.re, x.im)))
    scale = A.denominator * q
    gaussian = A.gaussian or any(x.im for x in b)
    ring = _GAUSSIAN if gaussian else _INTEGERS
    zero, _, mul, sub, div = ring
    rows = _working_rows(A, gaussian)
    for row, x in zip(rows, b):
        if not x.is_zero:
            re = x.re.numerator * (scale // x.re.denominator)
            row[n] = (re, x.im.numerator * (scale // x.im.denominator)) if gaussian else re
    minors = _eliminate(rows, n, ring)
    out = []
    for m in (n,) if sizes is None else sizes:
        det = minors[m]
        if det == zero:
            raise DegenerateError("zero pivot in exact back substitution")
        # Back substitution over the nonzero entries of U for y = det * z,
        # which is integral by Cramer's rule, so each division by a pivot
        # is exact; x = y / (det q).
        y = [None] * m
        for i in range(m - 1, -1, -1):
            row = rows[i]
            acc = mul(row.get(n, zero), det)
            for j, u in row.items():
                if i < j < m:
                    acc = sub(acc, mul(u, y[j]))
            y[i] = div(acc, row[i])
        d = mul(det, (q, 0) if gaussian else q)
        out.extend(_quotient(v, d) for v in y)
    return tuple(out)


def det_exact(M):
    """Exact determinant: the last pivot of the elimination."""
    A = _as_integer(M)
    n = len(A.rows)
    minors = _eliminate(_working_rows(A, A.gaussian), n,
                        _GAUSSIAN if A.gaussian else _INTEGERS)
    return _quotient(minors[n], A.denominator ** n)


def inverse_ldl_exact(G):
    """Rows of L^-1 and the diagonal of D for a Hermitian G = L D L^H,
    given as an IntegerMatrix or as rows of exact scalars.

    Row k of L^-1 has entries in columns 0..k only, with 1 at column k;
    these are returned truncated to length k + 1, with D as Fractions.
    Raises DegenerateError on a zero leading principal minor.
    """
    A = _as_integer(G)
    n = len(A.rows)
    ring = _GAUSSIAN if A.gaussian else _INTEGERS
    zero, one = ring[:2]
    rows = _working_rows(A, A.gaussian)
    for k, row in enumerate(rows):
        row[n + k] = one
    minors = _eliminate(rows, n, ring)   # Delta_0..Delta_n
    if minors[n] == zero:
        raise DegenerateError(f"zero weighted norm at degree {n - 1}")
    inv = [tuple(_quotient(rows[k].get(n + j, zero), minors[k]) for j in range(k + 1))
           for k in range(n)]
    # G = A.rows / A.denominator, so D_k = Delta_{k+1} / (Delta_k A.denominator)
    norms = [_quotient(minors[k + 1], minors[k]).re / A.denominator for k in range(n)]
    return inv, norms
