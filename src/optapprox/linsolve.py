"""The one factorization of the Hermitian positive-definite Gram matrices.

:func:`factor` reduces [G | B] once, to G = L D L^H with L unit lower
triangular and L^-1 B, for B = b0 e_0 or B = I; :func:`solve` reads the
leading systems G[:m, :m] x = B[:m, 0] off it, and :func:`forward` L^-1 B
and D.  Float backend: Cholesky factorization, condition estimate from
the factor.  Exact backend: fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) over the integers or the Gaussian integers of an
:class:`IntegerMatrix`, integer numerators over one denominator that
store only the nonzero entries, as ``spaces.gram_numerators`` builds the
Gram band (rows of exact scalars are scaled by the lcm of their
denominators).  It skips zeros (see :func:`_eliminate`), so a band of
width d costs O(n d^2) big-int steps.  Fractions appear only in results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import zpocon, zpotrf, zpotrs, ztrtri, ztrtrs

from .errors import ConditioningError, DegenerateError, InstabilityError
from .exact import ExactComplex

#: Condition estimate beyond which the float solver refuses and advises
#: the exact backend.
CONDITION_LIMIT = 1e14


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


def det_exact(M):
    """Exact determinant: the last pivot of the elimination."""
    A = _as_integer(M)
    n = len(A.rows)
    minors = _eliminate(_working_rows(A, A.gaussian), n,
                        _GAUSSIAN if A.gaussian else _INTEGERS)
    return _quotient(minors[n], A.denominator ** n)


class _FloatFactor:
    def __init__(self, G: np.ndarray, b0):
        # G = U^H U; info > 0: the leading minor of order info is not positive
        self.G, (self.U, self.info), self.identity = G, zpotrf(G), b0 is None
        self.b = np.eye(1, len(G), dtype=np.complex128)[0] * (1.0 if b0 is None else b0)


class _ExactFactor:
    def __init__(self, G, b0):
        # [A | C] after _eliminate, for A = den G and C = q B
        A = _as_integer(G)
        n = len(A.rows)
        q = 1 if b0 is None else math.lcm(b0.re.denominator, b0.im.denominator)
        gaussian = A.gaussian or (b0 is not None and b0.im != 0)
        self.ring = _GAUSSIAN if gaussian else _INTEGERS
        self.rows = _working_rows(A, gaussian)
        if b0 is None:
            for k, row in enumerate(self.rows):
                row[n + k] = self.ring[1]
        elif not b0.is_zero:
            re = b0.re.numerator * (q // b0.re.denominator)
            self.rows[0][n] = (re, b0.im.numerator * (q // b0.im.denominator)) if gaussian else re
        self.minors = _eliminate(self.rows, n, self.ring)
        self.den, self.q = ((x, 0) if gaussian else x for x in (A.denominator, q))
        self.identity = b0 is None


def factor(G, b0=None):
    """G = L D L^H and L^-1 B, for B = b0 e_0, or B = I when b0 is None: a
    Cholesky factorization of a complex ndarray G, or a fraction-free
    elimination of [G | B] for an exact G (an IntegerMatrix or rows of
    exact scalars, with b0 an exact scalar)."""
    return (_FloatFactor if isinstance(G, np.ndarray) else _ExactFactor)(G, b0)


def _refuse(F: _FloatFactor, sizes) -> None:
    """ConditioningError at the first block m in ``sizes`` whose estimate of
    the 1-norm condition number (``zpocon``: a lower bound, within a factor m
    of the 2-norm one) exceeds the limit.  cond_1(G[:m, :m]) <= sqrt(m)
    cond_1(G), which is seldom 3 times its estimate: when that is below
    limit / (100 sqrt(n)), no block can exceed the limit or is estimated."""
    def cond(m):
        rcond = zpocon(F.U[:m, :m], np.linalg.norm(F.G[:m, :m], 1))[0] \
            if not 0 < F.info <= m else 0.0
        return 1.0 / rcond if rcond > 0 else math.inf

    n = len(F.G)
    if sizes and cond(n) <= CONDITION_LIMIT / (100 * math.sqrt(n)):
        return
    for m in sizes:
        if not (c := cond(m)) <= CONDITION_LIMIT:
            raise ConditioningError(
                f"Gram matrix condition estimate {c:.3e} exceeds 1e14; "
                "use the exact backend")


def solve(F, sizes=None):
    """Solutions of G[:m, :m] x = B[:m, 0] for each m in ``sizes`` (default:
    the whole system), one after another in one complex array or tuple of
    exact scalars.  Float: refused blocks as in :func:`_refuse`."""
    if isinstance(F, _FloatFactor):
        sizes = (len(F.b),) if sizes is None else sizes
        _refuse(F, sizes)
        return np.concatenate([zpotrs(F.U[:m, :m], F.b[:m])[0] for m in sizes])
    zero, _, mul, sub, div = F.ring
    n, rows, out = len(F.minors) - 1, F.rows, []
    for m in (n,) if sizes is None else sizes:
        det = F.minors[m]
        if det == zero:
            raise DegenerateError("zero pivot in exact back substitution")
        # Back substitution over the nonzero entries of U for y = det * z,
        # where A z = C e_0: y is integral by Cramer's rule, so each
        # division by a pivot is exact; x = den y / (det q).
        y = [None] * m
        for i in range(m - 1, -1, -1):
            row = rows[i]
            acc = mul(row.get(n, zero), det)
            for j, u in row.items():
                if i < j < m:
                    acc = sub(acc, mul(u, y[j]))
            y[i] = div(acc, row[i])
        d = mul(det, F.q)
        out.extend(_quotient(mul(v, F.den), d) for v in y)
    return tuple(out)


def forward(F, sizes=()):
    """L^-1 B (for B = I, row k up to column k) and the diagonal of D: an
    array and a list of floats, or tuples of exact scalars and a list of
    Fractions.  Float: the leading blocks in ``sizes`` are refused as by
    :func:`solve`, and a pivot that is not positive raises InstabilityError."""
    if isinstance(F, _FloatFactor):
        _refuse(F, sizes)
        if F.info > 0:
            raise InstabilityError(f"nonpositive norm at degree {F.info - 1}; "
                                   "Gram matrix numerically singular")
        d = F.U.diagonal().real
        if F.identity:   # L^-1 = diag(d) U^-H, with its unit diagonal set
            LB = d[:, None] * ztrtri(F.U)[0].conj().T
            np.fill_diagonal(LB, 1.0)
        else:            # one triangular solve U^H y = b; L^-1 b = d y
            LB = d[:, None] * ztrtrs(F.U, F.b[:, None], trans=2)[0]
        return LB, (d * d).tolist()
    zero, mul, minors, n = F.ring[0], F.ring[2], F.minors, len(F.minors) - 1
    if minors[n] == zero:
        raise DegenerateError(f"zero weighted norm at degree {n - 1}")
    # row k of the eliminated [A | C] is Delta_k times that of L^-1 [A | C],
    # and D_k = Delta_{k+1} / (Delta_k den)
    return ([tuple(_quotient(F.rows[k].get(n + j, zero), mul(minors[k], F.q))
                   for j in range(k + 1 if F.identity else 1)) for k in range(n)],
            [_quotient(minors[k + 1], mul(minors[k], F.den)).re for k in range(n)])
