"""The one factorization of the Hermitian positive-definite Gram matrices.

:func:`factor` reduces [G | B] once, to G = L D L^H with L unit lower
triangular and L^-1 B, for B = b0 e_0 or B = I; :func:`solve` reads the
leading systems G[:m, :m] x = B[:m, 0] off it, and :func:`forward` L^-1 B
and D.  Float backend: Cholesky factorization, condition estimate from
the factor.  Exact backend: fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) of the one exact matrix the package factors, the
Hermitian Gram band that ``spaces.gram_matrix`` builds as an
:class:`IntegerMatrix`: integer numerators over one denominator, ints for
real f and Gaussian integers for complex f, that store only the nonzero
entries.  Its leading minors are real, so the pivots, the divisors and the
denominators of the results are ints in both rings.  The elimination skips
zeros (see :func:`_eliminate`), so a band of width d costs O(n d^2)
big-int steps.  Fractions appear only in results.

Every BLAS and LAPACK call of the float backend runs on the calling
thread.  OpenBLAS hands ``zpotrf`` of order 64 and up, ``ztrtri`` of order
65 and up and matrix products of 2^16 multiply-adds and more to its worker
threads, whose wake-up can cost far more than the call: on a 2-vCPU host,
in series of 100 calls 2 ms apart, ``zpotrf`` at orders 64 and 101 had
medians of 0.08-0.3 ms and single calls of 79 and 144 ms, and a 41x47x41
complex product took 15 ms threaded against 0.06 ms on the calling
thread.  So :func:`_cholesky` and :func:`_inverse` work in panels of at
most _ORDER = 63 columns, with one ``zpotrf`` or ``ztrtri`` on each
diagonal block and the rest in matrix products, and :func:`_product` sums
every product from pieces below 2^16 multiply-adds.  Single-column
``zpotrs`` and ``ztrtrs``, and ``zpocon``, stay on the calling thread at
every order.  Up to order 63 the factor is the one ``zpotrf`` call, bit
for bit.
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

#: Largest order of a ``zpotrf`` or ``ztrtri`` call, and of a panel.
_ORDER = 63

#: Most multiply-adds in one matrix product: OpenBLAS threads a product of
#: 2^16 (64x16x64, say) and more.
_GEMM_MACS = (1 << 16) - 1

#: Longest inner block of a product piece that is a tile of the output,
#: whose tiles are then 20x20 or larger where the output allows.  In
#: complex products of order 257-301 on a 2-vCPU host, blocks of 160 ran
#: 10-15% faster than blocks of 96 or 128; tiles over a whole inner
#: dimension of 16384 (1x3 tiles) ran at 0.4 GMAC/s against about 3.
_INNER = 160


def _product(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B, added into ``out`` when given, summed from pieces of at most
    _GEMM_MACS multiply-adds.  A long inner dimension (as long as B is wide,
    as in the basis certificate) is cut into blocks while all of the
    output fits in one piece.  Otherwise every piece is a tile of the
    output about as tall as it is wide, over blocks of at most _INNER of the
    inner dimension: a short inner dimension cut into blocks, or a long one
    left whole, gives pieces too thin to run fast (down to one column)."""
    rows, inner = A.shape
    cols = B.shape[1]
    if out is None:
        out = np.zeros((rows, cols), dtype=np.result_type(A, B))
    if rows * cols <= _GEMM_MACS and inner >= cols:
        step = _GEMM_MACS // (rows * cols)
        for k in range(0, inner, step):
            out += A[:, k:k + step] @ B[k:k + step]
        return out
    step = min(inner, _INNER)
    tall = min(rows, math.isqrt(_GEMM_MACS // step))
    wide = _GEMM_MACS // (step * tall)
    for k in range(0, inner, step):
        a, b = A[:, k:k + step], B[k:k + step]
        for i in range(0, rows, tall):
            for j in range(0, cols, wide):
                out[i:i + tall, j:j + wide] += a[i:i + tall] @ b[:, j:j + wide]
    return out


def _panels(n: int) -> list:
    """0..n-1 cut into the fewest panels of at most _ORDER columns, all of
    one width but the last, which may be narrower."""
    width = -(-n // -(-n // _ORDER))
    return [slice(i, min(i + width, n)) for i in range(0, n, width)]


def _cholesky(G: np.ndarray):
    """(U, info, inverses): U and info as ``zpotrf(G)`` gives them, G = U^H U
    with U upper triangular, or info = k > 0 when the leading minor of
    order k is the first that is not positive, and U[:k-1, :k-1] factors
    that block.  Left-looking by panels: a panel's rows of G, less
    U[q, panel]^H U[q, :] for each panel q above it, ``zpotrf`` on their
    diagonal block U11, and, below the last panel, ztrtri(U11)^H times the
    rest of the rows; ``inverses`` keeps those ztrtri(U11).  With one panel
    (order 63 and less) it is the one ``zpotrf`` call."""
    n = len(G)
    U = np.zeros((n, n), dtype=np.complex128, order="F")
    panels, inverses = _panels(n), []
    for i, p in enumerate(panels):
        rows = U[p, p.start:]
        rows[...] = G[p, p.start:]
        for q in panels[:i]:
            _product(-U[q, p].conj().T, U[q, p.start:], rows)
        U[p, p], info = zpotrf(U[p, p])
        if info:
            return U, p.start + info, inverses
        if p.stop < n:
            inverses.append(ztrtri(U[p, p])[0])
            U[p, p.stop:] = _product(inverses[-1].conj().T, U[p, p.stop:])
    return U, 0, inverses


def _inverse(U: np.ndarray, inverses: list) -> np.ndarray:
    """U^-1 for U and ``inverses`` as :func:`_cholesky` leaves them, with a
    nonzero diagonal.  By panels from the last: with X11 the inverse of
    the panel's diagonal block (``ztrtri`` on the last, which ``inverses``
    lacks), and X22 the inverse found below it, the panel's rows right of
    the block are X12 = -X11 U12 X22; U12 X22 is summed into them as each
    panel below is done.  With one panel it is the one ``ztrtri`` call."""
    n = len(U)
    X = np.zeros((n, n), dtype=np.complex128, order="F")
    panels = _panels(n)
    for i in reversed(range(len(panels))):
        p = panels[i]
        X[p, p] = X11 = inverses[i] if i < len(inverses) else ztrtri(U[p, p])[0]
        if p.stop < n:
            X[p, p.stop:] = _product(-X11, X[p, p.stop:])
        for q in panels[:i]:
            _product(U[q, p], X[p, p.start:], X[q, p.start:])
    return X


# Exact elimination runs over a ring: the integers for real matrices and
# the Gaussian integers, as (re, im) pairs of ints, for complex ones.  The
# matrix is Hermitian, so its leading minors are real: every pivot and
# every divisor is an int in both rings.

def _gmsub(c, a, b):
    """c - a b for Gaussian integers."""
    return c[0] - a[0] * b[0] + a[1] * b[1], c[1] - a[0] * b[1] - a[1] * b[0]


#: zero, c - a b, product with an int and exact quotient by an int of each ring
_INTEGERS = (0, lambda c, a, b: c - a * b, operator.mul, operator.floordiv)
_GAUSSIAN = ((0, 0), _gmsub, lambda a, s: (a[0] * s, a[1] * s),
             lambda a, d: (a[0] // d, a[1] // d))


@dataclass(frozen=True)
class IntegerMatrix:
    """A Hermitian matrix as integer numerators over one common
    denominator, the form in which ``spaces.gram_matrix`` builds the exact
    Gram band and the one exact input of :func:`factor`.

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


def _eliminate(rows, n: int, ring) -> list:
    """Fraction-free forward elimination on the first n columns, in place;
    returns the leading principal minors Delta_0 = 1, Delta_1..Delta_n of
    the Hermitian matrix A held in those columns, as ints.

    The rows are dicts {column: entry}; an absent column holds a zero.
    Afterwards row k, from column k on, is Delta_k times row k of
    L^-1 [A | rest], where A = L D L^H and L is unit lower triangular, so the
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
    zero, msub, scale, div = ring
    minors = [1]
    level = [0] * n     # the leading minor each row was last brought to
    for k in range(n):
        rk = rows[k]
        if level[k] < k:
            s, t = minors[k], minors[level[k]]
            rows[k] = rk = {j: div(scale(x, s), t) for j, x in rk.items() if j >= k}
        pivot = rk.get(k, zero)
        pivot = pivot[0] if isinstance(pivot, tuple) else pivot   # real: a minor
        minors.append(pivot)
        if k == n - 1:
            break
        if pivot == 0:
            raise DegenerateError("zero pivot in exact elimination; matrix is singular")
        tail = {j: y for j, y in rk.items() if j > k}
        for i in range(k + 1, n):
            ri = rows[i]
            a = ri.get(k, zero)
            if a == zero:
                continue
            d = minors[level[i]]
            new = {j: div(scale(x, pivot), d) for j, x in ri.items() if j > k and j not in tail}
            for j, y in tail.items():
                new[j] = div(msub(scale(ri.get(j, zero), pivot), a, y), d)
            rows[i] = new
            level[i] = k + 1
    return minors


def _quotient(x, d: int) -> ExactComplex:
    """x / d as an exact scalar, for an int or Gaussian-integer pair x."""
    if isinstance(x, tuple):
        return ExactComplex(Fraction(x[0], d), Fraction(x[1], d))
    return ExactComplex(Fraction(x, d))


class _FloatFactor:
    def __init__(self, G: np.ndarray, b0):
        # G = U^H U; info > 0: the leading minor of order info is not positive
        self.G, (self.U, self.info, self.inverses), self.identity = G, _cholesky(G), b0 is None
        self.b = np.eye(1, len(G), dtype=np.complex128)[0] * (1.0 if b0 is None else b0)


class _ExactFactor:
    def __init__(self, G: IntegerMatrix, b0):
        # [A | C] after _eliminate, for A = den G and C = q B, both real or
        # both Gaussian
        n, gaussian = len(G.rows), G.gaussian
        self.ring, self.rows = _GAUSSIAN if gaussian else _INTEGERS, [dict(r) for r in G.rows]
        self.den, self.identity = G.denominator, b0 is None
        self.q = 1 if b0 is None else math.lcm(b0.re.denominator, b0.im.denominator)
        if b0 is None:
            for k, row in enumerate(self.rows):
                row[n + k] = (1, 0) if gaussian else 1
        elif not b0.is_zero:
            re, im = (b0.re * self.q).numerator, (b0.im * self.q).numerator
            self.rows[0][n] = (re, im) if gaussian else re
        self.minors = _eliminate(self.rows, n, self.ring)


def factor(G, b0=None):
    """G = L D L^H and L^-1 B, for B = b0 e_0, or B = I when b0 is None: a
    Cholesky factorization of a complex ndarray G, or a fraction-free
    elimination of [G | B] for the :class:`IntegerMatrix` of
    ``spaces.gram_matrix``, with b0 an exact scalar that is real when G
    is."""
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
    zero, msub, scale, div = F.ring
    n, rows, out = len(F.minors) - 1, F.rows, []
    for m in (n,) if sizes is None else sizes:
        det = F.minors[m]
        if det == 0:
            raise DegenerateError("zero pivot in exact back substitution")
        # Back substitution over the nonzero entries of U for y = det * z,
        # where A z = C e_0: y is integral by Cramer's rule, so each
        # division by a pivot Delta_{i+1} is exact; x = den y / (det q).
        y = [None] * m
        for i in range(m - 1, -1, -1):
            acc = scale(rows[i].get(n, zero), det)
            for j, u in rows[i].items():
                if i < j < m:
                    acc = msub(acc, u, y[j])
            y[i] = div(acc, F.minors[i + 1])
        out.extend(_quotient(scale(v, F.den), det * F.q) for v in y)
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
            LB = d[:, None] * _inverse(F.U, F.inverses).conj().T
            np.fill_diagonal(LB, 1.0)
        else:            # one triangular solve U^H y = b; L^-1 b = d y
            LB = d[:, None] * ztrtrs(F.U, F.b[:, None], trans=2)[0]
        return LB, (d * d).tolist()
    zero, minors, n = F.ring[0], F.minors, len(F.minors) - 1
    if minors[n] == 0:
        raise DegenerateError(f"zero weighted norm at degree {n - 1}")
    # row k of the eliminated [A | C] is Delta_k times that of L^-1 [A | C],
    # and D_k = Delta_{k+1} / (Delta_k den)
    return ([tuple(_quotient(F.rows[k].get(n + j, zero), minors[k] * F.q)
                   for j in range(k + 1 if F.identity else 1)) for k in range(n)],
            [Fraction(minors[k + 1], minors[k] * F.den) for k in range(n)])
