"""Dirichlet-type inner products and Gram-matrix assembly.

The space D_alpha carries the norm ||f||^2 = sum_k (k+1)^alpha |a_k|^2,
with alpha = 0 the Hardy space, alpha = -1 the Bergman space and
alpha = 1 the Dirichlet space.  The exact backend only admits integer
alpha, so that every weight (k+1)^alpha stays rational.

:func:`gram_matrix` builds the Gram matrix of shifted inner products in
the form ``linsolve.factor`` takes, and every consumer reads that form,
Levinson's alpha = 0 column included.  The float one is one blocked
matrix product F^H W F over the coefficients, or at alpha = 0 the n+1
lags of its Toeplitz column, summed in one pass over blocks of rows.  A
truncated family is a short head plus its own far part
(``Series.gram_split``): the pass sums the rows of the head, n+1 of them
for a Blaschke factor and a few thousand for the eta family, and the
family gives the rest of each entry in closed form, so the cost does not
grow with the truncation.  The exact one is the band of its integer
numerators over one common denominator.  :func:`truncation_error` bounds
how far the matrix of a truncated family lies from that of the function,
by the family's own tail rule ``Series.tail_sq``, which refuses, as
``Series.require_in_space`` does, a function outside D_alpha.

:func:`inner` is the one reference inner product, with one float and one
exact body; :func:`norm_sq`, :func:`shifted_inner` and
:func:`weighted_inner` are reads of it.  They share no code with the Gram
assembly, so the tests check both Gram forms against them, and no module
of the package calls :func:`shifted_inner` or :func:`weighted_inner`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import toeplitz

from .errors import BackendMismatchError, ConditioningError, ZeroAtOriginError
from .exact import ExactComplex
from .linsolve import IntegerMatrix, _product
from .series import Series, poly_mul, shift


def _check_alpha(backend: str, alpha) -> None:
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if backend == "exact" and alpha != int(alpha):
        raise BackendMismatchError(
            f"exact backend requires integer alpha, got {alpha}")


def inner(f: Series, g: Series, alpha):
    """<f, g>_alpha = sum_k (k+1)^alpha f_k conj(g_k) over the overlap of
    the stored coefficient ranges: the one reference inner product."""
    if f.backend != g.backend:
        raise BackendMismatchError("inner() operands must share a backend")
    _check_alpha(f.backend, alpha)
    n = min(len(f), len(g))
    if f.backend == "float":
        w = np.arange(1, n + 1, dtype=np.float64) ** float(alpha)
        return complex(np.sum(w * np.asarray(f.coeffs[:n]) * np.conj(g.coeffs[:n])))
    acc = ExactComplex(0)
    for k in range(n):
        a, b = f.coeffs[k], g.coeffs[k]
        if not (a.is_zero or b.is_zero):
            acc = acc + a * b.conjugate() * Fraction(k + 1) ** int(alpha)
    return acc


def norm_sq(f: Series, alpha):
    """||f||^2_alpha; a nonnegative real (Fraction in the exact backend)."""
    return inner(f, f, alpha).real


def shifted_inner(f: Series, j: int, l: int, alpha):
    """<z^j f, z^l f>_alpha, the entry (j, l) of :func:`gram_matrix`."""
    return inner(shift(f, j), shift(f, l), alpha)


def weighted_inner(p: Series, q: Series, f: Series, alpha):
    """Inner product of the weighted space D_{alpha,f}: <pf, qf>_alpha."""
    return inner(poly_mul(p, f), poly_mul(q, f), alpha)


#: Rows of F per block of the float Gram product: the temporaries of one
#: block hold _GRAM_BLOCK x (n+1) entries, whatever the series length.
_GRAM_BLOCK = 1 << 14

#: The smallest normal float: a float |f(0)|^2, or a whole Gram matrix,
#: below it has lost its relative precision.
TINY = np.finfo(float).tiny


@np.errstate(over="ignore", invalid="ignore")  # reported below
def _gram_float(f: Series, n: int, alpha) -> np.ndarray:
    """The float :func:`gram_matrix`, from one pass over blocks of rows of
    the head of f.  A ConditioningError when an entry overflows, or when
    every entry is below TINY without all being 0 (a zero matrix is left to
    the solvers' pivot checks)."""
    alpha = float(alpha)
    lags = alpha == 0
    rows, far = f.gram_split(n, alpha) or (len(f) + (0 if lags else n), None)
    head = f.head(rows)
    dtype = head.dtype
    # f_{-n}, ..., f_{rows-1}, zero outside the head: row m of F reads
    # pad[m: m + n + 1], reversed
    pad = np.zeros(n + rows, dtype)
    pad[n: n + len(head)] = head
    # the work arrays of one block, reused from block to block: fresh ones
    # cost page faults, which tripled the time of a pass at n = 8
    size = min(_GRAM_BLOCK, rows)
    if lags:
        conj = np.empty(size, dtype)
    else:
        base = np.arange(1, size + 1, dtype=np.float64)
        w = np.empty(size)
        A, C = np.empty((n + 1, size), dtype), np.empty((n + 1, size), dtype)
    acc = np.zeros(n + 1 if lags else (n + 1, n + 1), dtype=dtype)
    for start in range(0, rows, _GRAM_BLOCK):
        # rows m = start..start+L-1, from f_{start-n} .. f_{start+L-1}
        L = min(_GRAM_BLOCK, rows - start)
        seg = pad[start: start + n + L]
        # F's rows are held transposed, so that every elementwise pass runs
        # along the series: Ft[k] = (f_{start-k}, ..., f_{start+L-1-k})
        Ft = sliding_window_view(seg, L)[::-1]
        if lags:
            # conj(r_k) += sum_m conj(f_m) f_{m-k}, by einsum: as a BLAS
            # matrix-vector product it goes to worker threads, and pieces
            # of 31 x 2114 took up to 70 ms there, against 1 ms for the
            # whole block by einsum (2 vCPUs)
            acc += np.einsum("kl,l->k", Ft, np.conjugate(seg[n:], out=conj[:L]))
        else:
            np.power(np.add(base[:L], start, out=w[:L]), alpha, out=w[:L])
            _product(np.multiply(Ft, w[:L], out=A[:, :L]),
                     np.conjugate(Ft, out=C[:, :L]).T, acc)
    if far is not None:
        acc += far
    if lags:
        # Toeplitz, with first column conj(r_k) and r_0 real
        c = acc.astype(np.complex128)
        c[0] = c[0].real
        M = toeplitz(c, c.conj())
    else:
        M = (acc + acc.conj().T).astype(np.complex128) / 2
    if not np.isfinite(M).all():
        raise ConditioningError("float Gram matrix overflows the float range; "
                                "use the exact backend")
    if 0 < M.diagonal().real.max() < TINY:
        raise ConditioningError("float Gram matrix lies below the normal float "
                                "range; rescale f")
    M.setflags(write=False)
    return M


def gram_matrix(f: Series, n: int, alpha):
    """(n+1)x(n+1) matrix of shifted inner products <z^k f, z^l f>_alpha,
    in the form ``linsolve.factor`` takes.

    Float backend: one product M = F^H W F, where row m of F holds
    (f_m, f_{m-1}, ..., f_{m-n}) and W = diag((m+1)^alpha).  F is a
    reversed sliding window over the zero-padded coefficients, and the
    product is accumulated over blocks of _GRAM_BLOCK rows, so that its
    temporaries do not grow with the series length.  A truncated family
    stops the pass after a head, ``f.gram_split(n, alpha)``, and adds the
    rows past it as it sums them itself, so the pass reads only
    ``f.head(K)``.  Real coefficients (the eta family, say) run in
    float64.  At alpha = 0 the matrix is Toeplitz, G_kl = conj(r_{k-l}),
    and the pass sums only the n+1 lags r_j = sum_m f_m conj(f_{m-j}),
    with r_0 real: O(M n) instead of O(M n^2).  The result is an exactly
    Hermitian, read-only complex128 array; a matrix with an entry that is
    not finite raises ConditioningError.

    Exact backend: an :class:`~optapprox.linsolve.IntegerMatrix`.  With
    f = a / c for integral a (c the lcm of the coefficients'
    denominators), and W = lcm((m+1)^|alpha|) for alpha < 0 (else 1), the
    numerator of G_kl is sum_m W (m+1)^alpha a_{m-k} conj(a_{m-l}) and the
    denominator is c^2 W.  Numerators are ints for real f and (re, im)
    Gaussian-integer pairs for complex f.  For f of degree d the matrix is a
    Hermitian band, G_kl = 0 when |k - l| > d, so only the band is computed
    and stored: O(n d^2) products of small integers.  ``to_exact()`` gives
    its rows of exact scalars.
    """
    _check_alpha(f.backend, alpha)
    if f.backend == "float":
        return _gram_float(f, n, alpha)
    alpha = int(alpha)
    coeffs = f.coeffs[: f.degree + 1]
    d = len(coeffs) - 1
    c = math.lcm(*(q.denominator for x in coeffs for q in (x.re, x.im)))
    re = [x.re.numerator * (c // x.re.denominator) for x in coeffs]
    im = [x.im.numerator * (c // x.im.denominator) for x in coeffs]
    gaussian = any(im)
    # w[m] = W (m+1)^alpha for m = 0..n+d, the range the band reads
    if alpha >= 0:
        W, w = 1, [(m + 1) ** alpha for m in range(n + d + 1)]
    else:
        W = math.lcm(*range(1, n + d + 2)) ** -alpha
        w = [W // (m + 1) ** -alpha for m in range(n + d + 1)]
    rows = tuple({} for _ in range(n + 1))
    for t in range(min(d, n) + 1):
        # G_{k,k+t} = sum_i w[k+t+i] a_{i+t} conj(a_i), i = 0..d-t
        pr = [re[i + t] * re[i] + im[i + t] * im[i] for i in range(d - t + 1)]
        pi = [im[i + t] * re[i] - re[i + t] * im[i] for i in range(d - t + 1)]
        for k in range(n + 1 - t):
            ws = w[k + t: k + d + 1]
            x = sum(map(operator.mul, ws, pr))
            y = sum(map(operator.mul, ws, pi)) if gaussian else 0
            if x or y:
                rows[k][k + t] = (x, y) if gaussian else x
                rows[k + t][k] = (x, -y) if gaussian else x
    return IntegerMatrix(rows, c * c * W, gaussian)


def _f0_nonzero(f: Series) -> None:
    """ZeroAtOriginError when f(0) = 0; in floats, a ConditioningError when
    |f(0)|^2, which the solvers divide by or solve against, is below TINY."""
    f0 = f.at0()
    if f0 == 0:
        raise ZeroAtOriginError("f(0) = 0: optimal approximants need f(0) != 0")
    if f.backend == "float" and not abs(f0) ** 2 >= TINY:
        raise ConditioningError(f"|f(0)| = {abs(f0):.3g}: |f(0)|^2 is below the "
                                "normal float range; rescale f or use the exact backend")


def truncation_error(f: Series, n: int, alpha) -> float:
    """An upper bound on |G_kl - G'_kl|, k, l <= n, for G the Gram matrix
    of the function f stands for and G' that of its stored f_0..f_M.  For
    k <= l they differ in the terms m > M + k of sum_m (m+1)^alpha
    f_{m-k} conj(f_{m-l}); by Cauchy-Schwarz, and as (j+k+1)^alpha <=
    max(1, (k+1)^alpha) (j+1)^alpha, their sum is at most
    max(1, (n+1)^alpha) f.tail_sq(M - n, alpha): 0 for a polynomial."""
    tail = f.tail_sq(len(f) - 1 - n, alpha)
    log_w = max(0.0, float(alpha) * math.log(n + 1))   # max(1, (n+1)^alpha)
    return tail and (tail * math.exp(log_w) if log_w < 709 else math.inf)
