"""Dirichlet-type inner products and Gram-matrix assembly.

The space D_alpha carries the norm ||f||^2 = sum_k (k+1)^alpha |a_k|^2,
with alpha = 0 the Hardy space, alpha = -1 the Bergman space and
alpha = 1 the Dirichlet space.  The exact backend only admits integer
alpha, so that every weight (k+1)^alpha stays rational.

The float Gram matrix of shifted inner products is one blocked matrix
product F^H W F over the coefficients (see :func:`gram_matrix`).  The
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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BackendMismatchError, ConditioningError, ZeroAtOriginError
from .exact import ExactComplex
from .linsolve import IntegerMatrix
from .series import DEGREE_EPSILON, Series, poly_mul, shift


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


@np.errstate(over="ignore", invalid="ignore")  # reported by the check at the end
def _gram_float(c: np.ndarray, n: int, alpha) -> np.ndarray:
    # Row m of F is (f_m, f_{m-1}, ..., f_{m-n}) for m = 0..len(c)+n-1
    # (zero outside the stored range), so that
    # (F^T W conj(F))[k, l] = sum_m (m+1)^alpha f_{m-k} conj(f_{m-l}).
    if not c.imag.any():
        c = c.real
    rows = len(c) + n
    acc = np.zeros((n + 1, n + 1), dtype=c.dtype)
    for start in range(0, rows, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, rows)
        # f_{start-n} .. f_{stop-1}, zero-padded outside the stored range
        seg = np.zeros(stop - start + n, dtype=c.dtype)
        lo, hi = max(start - n, 0), min(stop, len(c))
        seg[lo - start + n: hi - start + n] = c[lo:hi]
        # the block's rows of F, held transposed so that every elementwise
        # pass runs along the series: Ft[k] = (f_{start-k}, ..., f_{stop-1-k})
        Ft = sliding_window_view(seg, stop - start)[::-1]
        A, C = Ft * _weights_float(start, stop, alpha), np.conj(Ft)
        _product(A, C.T, acc)
        del A, C  # before the next block's are made
    M = (acc + acc.conj().T).astype(np.complex128) / 2
    if not np.isfinite(M).all():
        raise ConditioningError("float Gram matrix overflows the float range; "
                                "use the exact backend")
    M.setflags(write=False)
    return M


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
    reversed sliding window over the zero-padded coefficients and the
    product is accumulated over blocks of rows, so memory does not grow
    with the series length.  Real coefficients (the eta family, say) run
    the same product in float64.  The result is symmetrized into an
    exactly Hermitian, read-only complex128 array; a matrix with an
    entry that is not finite raises ConditioningError.

    Exact backend: the band of integer numerators of
    :func:`gram_numerators`, each nonzero one divided once by the common
    denominator; entries outside the band are exact zeros.
    """
    _check_alpha(f.backend, alpha)
    if f.backend == "float":
        return _gram_float(np.asarray(f.coeffs), n, alpha)
    return gram_numerators(f, n, alpha).to_exact()


def _f0_nonzero(f: Series) -> None:
    f0 = f.at0()
    if f.backend == "exact":
        if f0.is_zero:
            raise ZeroAtOriginError("f(0) = 0: optimal approximants need f(0) != 0")
    elif abs(f0) <= DEGREE_EPSILON:
        raise ZeroAtOriginError("f(0) = 0: optimal approximants need f(0) != 0")


def _truncate(f: Series, m: int) -> Series:
    if f.backend == "float":
        return Series.from_complex(f.coeffs[: m + 1], f.is_exact_polynomial)
    return Series(f.coeffs[: m + 1], f.is_exact_polynomial)


def gram(f: Series, n: int, alpha) -> GramSystem:
    """Assemble the Gram matrix of the degree-n approximant problem.

    For truncated infinite families the entries are recomputed at half
    the stored truncation degree, and the largest change is reported as
    ``tail_error_bound``.  Despite its name this is an estimate of the
    truncation error, not a bound: it can fall below the true error.
    """
    _f0_nonzero(f)
    M = gram_matrix(f, n, alpha)
    tail = 0.0
    if not f.is_exact_polynomial:
        half = _truncate(f, max(n + 1, (len(f) - 1) // 2))
        Mh = gram_matrix(half, n, alpha)
        if f.backend == "float":
            tail = float(np.max(np.abs(M - Mh)))
        else:
            tail = max(
                float(abs(complex(M[k][l] - Mh[k][l])))
                for k in range(n + 1) for l in range(n + 1))
    return GramSystem(M, tail)
