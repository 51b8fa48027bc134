"""Dirichlet-type inner products and Gram-matrix assembly.

The space D_alpha carries the norm ||f||^2 = sum_k (k+1)^alpha |a_k|^2,
with alpha = 0 the Hardy space, alpha = -1 the Bergman space and
alpha = 1 the Dirichlet space.  The exact backend only admits integer
alpha, so that every weight (k+1)^alpha stays rational.

The float Gram matrix of shifted inner products is one blocked matrix
product F^H W F over the coefficients, or at alpha = 0 the n+1 lags of
its Toeplitz column (see :func:`gram_matrix`).  It is summed in one pass
over the blocks of the series, so a truncated family is generated inside
the pass and never held whole, and the same pass gives the matrix of the
half truncation that :func:`gram` and ``zeros.first_zero_with_tail``
read their tail estimates from (see :func:`gram_matrices`).  The
exact one is built as integers: the numerators of its band, over one
common denominator (see :func:`gram_numerators`), which the exact solver
takes as they are.  The single entries of :func:`shifted_inner` stay as
the independent reference of both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import toeplitz

from .errors import BackendMismatchError, ConditioningError, ZeroAtOriginError
from .exact import ExactComplex
from .linsolve import IntegerMatrix
from .series import DEGREE_EPSILON, Series, poly_mul


def _check_alpha(backend: str, alpha) -> None:
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if backend == "exact" and alpha != int(alpha):
        raise BackendMismatchError(
            f"exact backend requires integer alpha, got {alpha}")


def _weight_exact(k: int, alpha) -> Fraction:
    return Fraction(k + 1) ** int(alpha)


def _weights_float(lo: int, hi: int, alpha: float) -> np.ndarray:
    # weights (k+1)^alpha for k = lo..hi-1
    return np.arange(lo + 1, hi + 1, dtype=np.float64) ** float(alpha)


def inner(f: Series, g: Series, alpha):
    """<f, g>_alpha = sum_k (k+1)^alpha f_k conj(g_k) over the overlap of
    the stored coefficient ranges."""
    if f.backend != g.backend:
        raise BackendMismatchError("inner() operands must share a backend")
    _check_alpha(f.backend, alpha)
    n = min(len(f), len(g))
    if f.backend == "float":
        w = _weights_float(0, n, alpha)
        return complex(np.sum(w * np.asarray(f.coeffs[:n]) * np.conj(g.coeffs[:n])))
    acc = ExactComplex(0)
    for k in range(n):
        if f.coeffs[k].is_zero or g.coeffs[k].is_zero:
            continue
        acc = acc + f.coeffs[k] * g.coeffs[k].conjugate() * _weight_exact(k, alpha)
    return acc


def norm_sq(f: Series, alpha):
    """||f||^2_alpha; a nonnegative real (Fraction in the exact backend)."""
    _check_alpha(f.backend, alpha)
    if f.backend == "float":
        w = _weights_float(0, len(f), alpha)
        return float(np.sum(w * np.abs(np.asarray(f.coeffs)) ** 2))
    acc = Fraction(0)
    for k, c in enumerate(f.coeffs):
        if not c.is_zero:
            acc += c.abs_sq * _weight_exact(k, alpha)
    return acc


def shifted_inner(f: Series, j: int, l: int, alpha):
    """<z^j f, z^l f>_alpha without materializing the shifts:
    sum over m >= max(j, l) of (m+1)^alpha f_{m-j} conj(f_{m-l})."""
    _check_alpha(f.backend, alpha)
    M = len(f) - 1
    lo = max(j, l)
    hi = min(M + j, M + l)  # largest m with both indices in range
    if f.backend == "float":
        if hi < lo:
            return 0j
        w = _weights_float(lo, hi + 1, alpha)
        a = np.asarray(f.coeffs[lo - j: hi - j + 1])
        b = np.asarray(f.coeffs[lo - l: hi - l + 1])
        return complex(np.sum(w * a * np.conj(b)))
    acc = ExactComplex(0)
    for m in range(lo, hi + 1):
        a, b = f.coeffs[m - j], f.coeffs[m - l]
        if a.is_zero or b.is_zero:
            continue
        acc = acc + a * b.conjugate() * _weight_exact(m, alpha)
    return acc


def weighted_inner(p: Series, q: Series, f: Series, alpha):
    """Inner product of the weighted space D_{alpha,f}: <pf, qf>_alpha."""
    return inner(poly_mul(p, f), poly_mul(q, f), alpha)


@dataclass(frozen=True)
class GramSystem:
    """Gram matrix G_kl = <z^k f, z^l f>_alpha of the approximant problem,
    with the estimated truncation error of its entries."""

    matrix: object          # tuple-of-tuples (exact) or np.ndarray (float)
    tail_error_bound: float  # 0 for exact polynomials


#: Rows of F per block of the float Gram product: the temporaries of one
#: block hold _GRAM_BLOCK x (n+1) entries, whatever the series length.
_GRAM_BLOCK = 1 << 14

#: Multiply-adds per matrix product.  BLAS hands larger products to worker
#: threads, whose wake-up can cost far more than the product: on a 2-vCPU
#: host a 41x47x41 complex product took 15 ms threaded against 0.06 ms on
#: the calling thread.  :func:`_product` sums its products from pieces of
#: at most this size, which BLAS runs on the calling thread.
_GEMM_MACS = 1 << 16


def _product(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B, added into ``out`` when given, summed from pieces of at most
    _GEMM_MACS multiply-adds: blocks of A's columns while all of A's rows
    fit in one piece, else blocks of A's rows (one row at the least)."""
    rows, inner = A.shape
    cols = B.shape[1]
    if out is None:
        out = np.zeros((rows, cols), dtype=np.result_type(A, B))
    if rows * cols <= _GEMM_MACS:
        step = _GEMM_MACS // (rows * cols)
        for j in range(0, inner, step):
            out += A[:, j:j + step] @ B[j:j + step]
    else:
        step = max(1, _GEMM_MACS // (inner * cols))
        for i in range(0, rows, step):
            out[i:i + step] += A[i:i + step] @ B
    return out


def _gram_from(acc: np.ndarray) -> np.ndarray:
    """The Hermitian complex128 Gram matrix from the sums of _gram_float:
    its n+1 lags (a vector) or the matrix itself."""
    if acc.ndim == 1:
        # Toeplitz, with first column conj(r_k) and r_0 real
        c = acc.astype(np.complex128)
        c[0] = c[0].real
        M = toeplitz(c, c.conj())
    else:
        M = (acc + acc.conj().T).astype(np.complex128) / 2
    if not np.isfinite(M).all():
        raise ConditioningError("float Gram matrix overflows the float range; "
                                "use the exact backend")
    M.setflags(write=False)
    return M


@np.errstate(over="ignore", invalid="ignore")  # reported by _gram_from
def _gram_float(f: Series, n: int, alpha, H: int | None = None) -> tuple:
    """The float Gram matrices of f and of f truncated at degree H (f
    itself when H is None or not below its stored degree), from one pass
    over the blocks of f.  Row m of F is (f_m, f_{m-1}, ..., f_{m-n}),
    zero outside the stored range, so that
    (F^T W conj(F))[k, l] = sum_m (m+1)^alpha f_{m-k} conj(f_{m-l});
    the truncated matrix shares the rows m <= H and adds the n rows past
    H, where the truncated f is 0.  At alpha = 0 the matrix is Toeplitz
    and the pass sums only its first column G_k0 = conj(r_k), from the
    lags r_k = sum_m f_m conj(f_{m-k}) (of the truncation: the sums to
    m = H)."""
    if H is not None and H >= len(f) - 1:
        H = None
    alpha = float(alpha)
    lags = alpha == 0
    blocks = f.blocks(_GRAM_BLOCK)
    first = next(blocks)
    blocks, dtype = chain([first], blocks), first.dtype
    rows = len(f) + (0 if lags else n)
    # the work arrays of one block, reused from block to block: fresh ones
    # cost page faults, which tripled the time of a pass at n = 8
    size = min(max(_GRAM_BLOCK, n), rows)
    seg = np.zeros(size + n, dtype=dtype)
    if lags:
        conj = np.empty(size, dtype)
    else:
        base = np.arange(1, size + 1, dtype=np.float64)
        w = np.empty(size)
        A, C = np.empty((n + 1, size), dtype), np.empty((n + 1, size), dtype)

    def add_rows(acc, seg, start):
        # rows m = start..start+L-1, from seg = f_{start-n} .. f_{start+L-1};
        # F's rows are held transposed, so that every elementwise pass runs
        # along the series: Ft[k] = (f_{start-k}, ..., f_{start+L-1-k})
        L = len(seg) - n
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

    acc = np.zeros(n + 1 if lags else (n + 1, n + 1), dtype=dtype)
    acc_h, L = acc, 0
    for start in range(0, rows, _GRAM_BLOCK):
        # f_{start-n} .. f_{start+L-1}, zero outside the stored range
        seg[:n] = seg[L: L + n]
        L = min(_GRAM_BLOCK, rows - start)
        block = next(blocks, seg[:0])
        seg[n: n + len(block)] = block
        seg[n + len(block): n + L] = 0
        if H is not None and start <= H < start + L:
            acc_h = acc.copy()
            add_rows(acc_h, seg[: H + 1 - start + n], start)
            if n and not lags:
                past = np.zeros(2 * n, dtype=dtype)  # f_{H+1-n} .. f_H, then zeros
                past[:n] = seg[H + 1 - start: H + 1 - start + n]
                add_rows(acc_h, past, H + 1)
        add_rows(acc, seg[: n + L], start)
    G = _gram_from(acc)
    return G, G if acc_h is acc else _gram_from(acc_h)


def gram_numerators(f: Series, n: int, alpha) -> IntegerMatrix:
    """The exact (n+1)x(n+1) Gram matrix <z^k f, z^l f>_alpha as integer
    numerators over one common denominator.

    With f = a / c for integral a (c the lcm of the coefficients'
    denominators), and W = lcm((m+1)^|alpha|) for alpha < 0 (else 1), the
    numerator of G_kl is sum_m W (m+1)^alpha a_{m-k} conj(a_{m-l}) and the
    denominator is c^2 W.  Numerators are ints for real f and (re, im)
    Gaussian-integer pairs for complex f.  For f of degree d the matrix is a
    Hermitian band, G_kl = 0 when |k - l| > d, so only the band is computed
    and stored: O(n d^2) products of small integers.
    """
    if f.backend != "exact":
        raise BackendMismatchError("gram_numerators() needs an exact series")
    _check_alpha(f.backend, alpha)
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


def gram_matrix(f: Series, n: int, alpha):
    """(n+1)x(n+1) matrix of shifted inner products <z^k f, z^l f>_alpha.

    Float backend: one product M = F^H W F, where row m of F holds
    (f_m, f_{m-1}, ..., f_{m-n}) and W = diag((m+1)^alpha).  F is a
    reversed sliding window over the zero-padded coefficients, and the
    product is accumulated over blocks of rows taken from
    ``f.blocks(_GRAM_BLOCK)``, so memory does not grow with the series
    length, and a BlockSeries is generated inside the pass.  Real
    coefficients (the eta family, say) run in float64.  At alpha = 0 the
    matrix is Toeplitz, G_kl = conj(r_{k-l}), and the pass sums only the
    n+1 lags r_j = sum_m f_m conj(f_{m-j}): O(M n) instead of O(M n^2).
    The result is an exactly Hermitian, read-only complex128 array; a
    matrix with an entry that is not finite raises ConditioningError.

    Exact backend: the band of integer numerators of
    :func:`gram_numerators`, each nonzero one divided once by the common
    denominator; entries outside the band are exact zeros.
    """
    _check_alpha(f.backend, alpha)
    if f.backend == "float":
        return _gram_float(f, n, alpha)[0]
    return gram_numerators(f, n, alpha).to_exact()


def gram_matrices(f: Series, n: int, alpha, H: int) -> tuple:
    """The float Gram matrices of :func:`gram_matrix` for f and for f
    truncated at degree H (its coefficients 0..H), from one pass over f:
    the two share the rows m <= H of F, and the truncated one adds the n
    rows past H (at alpha = 0, its lags are the partial sums to m = H)."""
    _check_alpha(f.backend, alpha)
    if f.backend != "float":
        raise BackendMismatchError("gram_matrices() needs a float series")
    return _gram_float(f, n, alpha, H)


def _f0_nonzero(f: Series) -> None:
    f0 = f.at0()
    if f.backend == "exact":
        if f0.is_zero:
            raise ZeroAtOriginError("f(0) = 0: optimal approximants need f(0) != 0")
    elif abs(f0) <= DEGREE_EPSILON:
        raise ZeroAtOriginError("f(0) = 0: optimal approximants need f(0) != 0")


def gram(f: Series, n: int, alpha) -> GramSystem:
    """Assemble the Gram matrix of the degree-n approximant problem.

    For a truncated infinite family, ``tail_error_bound`` is the largest
    change of an entry between f and f truncated at half its stored
    degree (at least n + 1), both from the one pass of
    :func:`gram_matrices`.  Despite its name this is an estimate of the
    truncation error, not a bound: it can fall below the true error.
    """
    _f0_nonzero(f)
    if f.is_exact_polynomial:
        return GramSystem(gram_matrix(f, n, alpha), 0.0)
    M, Mh = gram_matrices(f, n, alpha, max(n + 1, (len(f) - 1) // 2))
    return GramSystem(M, float(np.max(np.abs(M - Mh))))
