"""Dirichlet-type inner products and Gram-matrix assembly.

The space D_alpha carries the norm ||f||^2 = sum_k (k+1)^alpha |a_k|^2,
with alpha = 0 the Hardy space, alpha = -1 the Bergman space and
alpha = 1 the Dirichlet space.  The exact backend only admits integer
alpha, so that every weight (k+1)^alpha stays rational.

:func:`gram_matrix` builds the Gram matrix of shifted inner products in
the form ``linsolve.factor`` takes, and every consumer reads that form,
Levinson's alpha = 0 column included.  Both backends read it off one band
body, :func:`_band`.  A truncated family is a short head plus its own far
part (``Series.gram_split``): the band sums the rows of the head, n+1 of
them for a Blaschke factor and a few thousand for the eta family, and the
family gives the rest of each entry in closed form, so the cost does not
grow with the truncation.  :func:`truncation_error` bounds how far the
matrix of a truncated family lies from that of the function, by the
family's own tail rule ``Series.tail_sq``, which refuses, as
``Series.require_in_space`` does, a function outside D_alpha.

:func:`inner` is the one reference inner product, with one float and one
exact body; :func:`norm_sq`, :func:`shifted_inner` and
:func:`weighted_inner` are reads of it.  They share no code with the Gram
assembly, so the tests check both Gram forms against them, and no module
of the package calls :func:`shifted_inner` or :func:`weighted_inner`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import toeplitz

from .errors import BackendMismatchError, ConditioningError, ZeroAtOriginError
from .exact import ExactComplex
from .linsolve import IntegerMatrix
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


#: The smallest normal float: a float |f(0)|^2, or a whole Gram matrix,
#: below it has lost its relative precision.
TINY = np.finfo(float).tiny


def _band(re, im, w, n: int):
    """The band of the Gram matrix of a = re + i im (im None for a real a)
    of degree d, under the weights w[m], m <= n + d: diagonal t <= min(d, n)
    is G_{k,k+t} = sum_i w[k+t+i] a_{i+t} conj(a_i), k <= n - t, one
    correlation of w with the lag product a_{i+t} conj(a_i).  w None means
    every weight is 1 (alpha = 0): diagonal t is then the one lag r_t, and
    the lags r_0..r_n are correlations of the zero-padded a with itself.
    Returns (real, imaginary) parts indexed by t, the second None for a
    real a; exact over object arrays of Python ints, with O(d) temporaries."""
    d = len(re) - 1
    if w is None:
        def lags(x, y):   # sum_i x_{i+t} y_i, t = 0..n: y is padded with n zeros
            return np.correlate(np.concatenate((np.zeros(n, y.dtype), y)), x)[::-1]
        if im is None:
            return lags(re, re), None
        return lags(re, re) + lags(im, im), lags(im, re) - lags(re, im)
    x, y = [], None if im is None else []
    for t in range(min(d, n) + 1):
        e = d + 1 - t
        p = re[t:] * re[:e]
        if im is not None:
            p += im[t:] * im[:e]
            y.append(np.correlate(w[t: n + e], im[t:] * re[:e] - re[t:] * im[:e]))
        x.append(np.correlate(w[t: n + e], p))
    return x, y


@np.errstate(over="ignore", invalid="ignore")  # reported below
def _gram_float(f: Series, n: int, alpha) -> np.ndarray:
    """The float :func:`gram_matrix`, from the band of the head of f."""
    alpha = float(alpha)
    rows, far = f.gram_split(n, alpha) or (len(f) + n, None)
    a = f.head(rows)
    re, im = a.real, a.imag if a.imag.any() else None
    if alpha == 0:
        # Toeplitz, G_kl = r_{l-k} for l >= k, with r_0 real
        x, y = _band(re, im, None, n)
        r = x + 1j * (0 if y is None else y)
        if far is not None:
            r += far.conj()   # the far part of the first column, G_t0
        r[0] = r[0].real
        M = toeplitz(r.conj(), r)
    else:
        # before the weights, so that an order no memory holds fails first
        M = np.zeros((n + 1, n + 1), dtype=np.complex128)
        w = np.arange(1.0, n + len(a) + 1) ** alpha
        w[rows:] = 0   # the head sums the rows m < rows and nothing past them
        x, y = _band(re, im, w, n)
        flat = M.reshape(-1)   # diagonal t runs on every (n+2)th entry
        for t in range(len(x)):
            v = x[t] if y is None else x[t] + 1j * y[t]
            flat[t * (n + 1):: n + 2] = np.conj(v)
            flat[t: (n + 1 - t) * (n + 1): n + 2] = v
        if far is not None:
            M += far
            M = (M + M.conj().T) / 2
    if not np.isfinite(M).all():
        raise ConditioningError("float Gram matrix overflows the float range; "
                                "use the exact backend")
    if 0 < M.diagonal().real.max() < TINY:
        raise ConditioningError("float Gram matrix lies below the normal float "
                                "range; rescale f")
    M.setflags(write=False)
    return M


def gram_matrix(f: Series, n: int, alpha):
    """(n+1)x(n+1) matrix of shifted inner products <z^k f, z^l f>_alpha
    = sum_m (m+1)^alpha f_{m-k} conj(f_{m-l}), in the form
    ``linsolve.factor`` takes, read off the band of :func:`_band`.

    Float backend: the band of the head ``f.head(K)`` plus a truncated
    family's far part, the rows m >= K, as ``f.gram_split(n, alpha)`` gives
    them; a polynomial is its own head.  At alpha = 0 the matrix is
    Toeplitz and only its lags are summed.  The result is an exactly
    Hermitian, read-only complex128 array.  A ConditioningError when an
    entry is not finite, or when every entry is below TINY without all
    being 0 (a zero matrix is left to the solvers' pivot checks).

    Exact backend: an :class:`~optapprox.linsolve.IntegerMatrix`.  With
    f = a / c for integral a (c the lcm of the coefficients'
    denominators), and W = lcm((m+1)^|alpha|) for alpha < 0 (else 1), the
    numerators are the band of a under the weights W (m+1)^alpha and the
    denominator is c^2 W: ints for real f and (re, im) Gaussian-integer
    pairs for complex f.  ``to_exact()`` gives its rows of exact scalars.
    """
    _check_alpha(f.backend, alpha)
    if f.backend == "float":
        return _gram_float(f, n, alpha)
    alpha = int(alpha)
    coeffs = f.coeffs[: f.degree + 1]
    d = len(coeffs) - 1
    c = math.lcm(*(q.denominator for x in coeffs for q in (x.re, x.im)))
    re = np.array([x.re.numerator * (c // x.re.denominator) for x in coeffs], dtype=object)
    im = np.array([x.im.numerator * (c // x.im.denominator) for x in coeffs], dtype=object)
    gaussian = any(im)
    # w[m] = W (m+1)^alpha for m = 0..n+d, the range the band reads
    if alpha >= 0:
        W, w = 1, [(m + 1) ** alpha for m in range(n + d + 1)]
    else:
        W = math.lcm(*range(1, n + d + 2)) ** -alpha
        w = [W // (m + 1) ** -alpha for m in range(n + d + 1)]
    x, y = _band(re, im if gaussian else None, np.array(w, dtype=object), n)
    rows = tuple({} for _ in range(n + 1))
    for t in range(len(x)):
        for k in range(n + 1 - t):
            p, q = x[t][k], y[t][k] if gaussian else 0
            if p or q:
                rows[k][k + t] = (p, q) if gaussian else p
                rows[k + t][k] = (p, -q) if gaussian else p
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
