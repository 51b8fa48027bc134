"""Hardy-space (alpha = 0) Toeplitz structure and Levinson recursion.

Shifts are isometries on the Hardy space, so the Gram matrix satisfies
M_{k,l} = M_{k-l,0} and one autocorrelation column determines the whole
system.  The Levinson recursion then produces the optimal-approximant
coefficients degree by degree together with the reflection coefficients
Gamma_n, and the infinite product of (1 - |Gamma_n|^2) characterizes
outer functions.  The column is column 0 of ``spaces.gram_matrix(f, n,
0)``, the matrix every other solver factors: in floats, the n+1 lags of
f's head plus a truncated family's far part, so such a family is never
held whole.

In floats the coefficients of every degree are the rows of one
complex128 array, and each degree costs one dot product for Gamma_n and
one vector update: a run to n = 250 takes about 1.8 ms.  Exact, the same
recursion runs fraction-free (Bareiss, 1969) on the Gaussian integers
R_k = conj(N_k), N_k the numerators of the column over its denominator
c^2.  With Delta_m the Toeplitz minors (Delta_{-1} = 1, Delta_0 = R_0) it
carries the integer vectors A_m = Delta_m c_m from A_0 = [1]:

    beta_m = sum_i A_m[i] R_{m+1-i}
    A_{m+1} = (Delta_m [A_m, 0] - beta_m conj(rev [A_m, 0])) // Delta_{m-1}
    Delta_{m+1} = (Delta_m^2 - |beta_m|^2) // Delta_{m-1}

with both divisions exact, and makes fractions only for its outputs:
Gamma_m = beta_m / Delta_m, the coefficients and the outer criterion's
partial products Delta_{m+1} / (Delta_0 Delta_m).  On (1+z)^3 an exact
run and its outer criterion take 0.6-1.1 ms to n = 25 and 4.2-7.6 ms to
n = 100, against 17-18 and 257-288 ms with Fraction arithmetic in the
loop (in-process bests, 2 vCPU, Python 3.11).

The recursion is stated for f(0) = 1; general f is normalized to
g = f / f(0) internally and the coefficients are rescaled afterwards
(p_n for f equals the g-approximant divided by f(0), since p f = q g
with q = p f(0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from operator import mul
from typing import Callable

import numpy as np

from .errors import BreakdownError, ConditioningError
from .exact import ExactComplex, abs_sq
from .series import Series
from .spaces import TINY, _f0_nonzero, gram_matrix


def _column(f: Series, n: int):
    """The column of :func:`toeplitz_column` and, exact, its numerators N_k
    as two int sequences (re, im) with their denominator c^2 (None in
    floats)."""
    G = gram_matrix(f, n, 0)
    f.require_in_space(0)
    if f.backend == "float":
        return tuple(G[:, 0].tolist()), None
    zero = (0, 0) if G.gaussian else 0
    col = [row.get(0, zero) for row in G.rows]
    re, im = zip(*col) if G.gaussian else (col, (0,) * len(col))
    den = G.denominator
    return (tuple(ExactComplex(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)),
            (re, im, den))


def toeplitz_column(f: Series, n_max: int):
    """Autocorrelation column (<z^k f, f>_0)_{k=0..n_max}, column 0 of
    ``gram_matrix(f, n_max, 0)``, with ||f||^2 real at k = 0; the full
    Gram matrix follows via M_{k,l} = column[k-l] (conjugate for k < l).
    Float: a ConditioningError when it overflows."""
    return _column(f, n_max)[0]


@dataclass(frozen=True)
class LevinsonState:
    n: int
    coeffs: Series          # optimal approximant coefficients at degree n (for f)
    gammas: tuple           # Gamma_0..Gamma_{n-1}
    partial_products: tuple  # prod_{k<=m} (1 - |Gamma_k|^2) for m = 0..n-1
    autocorr: tuple         # <z^k f, f>_0 for k = 0..n
    _history: Callable = field(repr=False, compare=False)   # builds ``history``

    @cached_property
    def history(self) -> tuple:
        """Coefficient tuples (for f) at every degree 0..n, built from the
        recursion's record on first access."""
        return self._history()


def _float_history(H: np.ndarray, inv_f0) -> tuple:
    """Row m of H holds g's coefficients at degree m: p_m[f] = q_m[g] / f(0)."""
    return tuple(tuple((row[: m + 1] * inv_f0).tolist()) for m, row in enumerate(H))


def levinson_solve(f: Series, n: int) -> LevinsonState:
    """Run the Levinson recursion up to degree n (alpha = 0).

    c_{k,n+1} = (c_{k,n} - Gamma_n conj(c_{n+1-k,n})) / (1 - |Gamma_n|^2)
    with Gamma_n = sum_k c_{n-k,n} <z^{k+1} g, g> and c_{0,0} = 1/||g||^2,
    for the normalized g = f/f(0); exact, the same recursion fraction-free,
    :func:`_exact_levinson`.
    """
    _f0_nonzero(f)
    if f.backend == "exact":
        return _exact_levinson(f, n)
    zero = f.scalar(0)
    inv_f0 = 1 / f.scalar(f.at0())
    # The normal equations read conj(M) c = e_0 with M_{k,l} = <z^k g, z^l g>
    # (see approximant._approximants), so the recursion runs on the
    # conjugated autocorrelation column of g, which is f's over |f(0)|^2.
    autocorr = toeplitz_column(f, n)
    f0_sq = abs_sq(f.at0())
    if not autocorr[0].real * TINY < f0_sq:
        # r_0 TINY >= 1: c_{0,0} = 1 / r_0 would leave the normal float range
        raise ConditioningError("||f||^2 / |f(0)|^2 is beyond the float range; "
                                "use the exact backend")
    r = np.conj(np.array(autocorr)) / f0_sq

    # row m holds c at degree m, padded with zeros, so that row m read
    # backwards from column m+1 is c_{m+1-k,m} for k = 0..m+1, with c_{m+1,m} = 0
    H = np.full((n + 1, n + 2), zero)
    H[0, 0] = 1 / r[0]
    gammas = np.full(n, zero)
    for m in range(n):
        gamma = H[m, m::-1] @ r[1:m + 2]
        g2 = abs_sq(gamma)
        if g2 >= 1:
            raise BreakdownError(f"|Gamma_{m}|^2 = {float(g2):.6g} >= 1")
        H[m + 1, :m + 2] = (H[m, :m + 2] - np.conj(H[m, m + 1::-1]) * gamma) / (1 - g2)
        gammas[m] = gamma
    H.setflags(write=False)
    # the loop's 1 - g2 again, in one pass; cumprod multiplies in order
    products = np.cumprod(1 - (gammas.real * gammas.real + gammas.imag * gammas.imag))

    # rescale from g back to f, p_n[f] = q_n[g] / f(0), at degree n only;
    # the other degrees when ``history`` is read
    return LevinsonState(n=n, coeffs=f.like(H[n, :n + 1] * inv_f0),
                         gammas=tuple(gammas.tolist()), partial_products=tuple(products.tolist()),
                         autocorr=autocorr,
                         _history=partial(_float_history, H, inv_f0))


def _exact_levinson(f: Series, n: int) -> LevinsonState:
    """The exact :func:`levinson_solve`: the fraction-free recursion of the
    module docstring on R_k = conj(N_k) = |a_0|^2 r_k, for a_0 = c f(0).
    A_m = Delta_m c_m[R] is an integer vector by Cramer's rule, and the
    Gram matrix is positive definite exactly while every Delta_m > 0.  The
    outputs are Gamma_m = beta_m / Delta_m and p_m = |a_0|^2 A_m /
    (Delta_m f(0)) = s A_m / Delta_m, with the Gaussian integer
    s = c^2 conj(f(0)).  The telescoping product of 1 - |Gamma_k|^2 =
    Delta_{k+1} Delta_{k-1} / Delta_k^2 gives the outer criterion's
    prod_{k<=m} (1 - |Gamma_k|^2) = Delta_{m+1} / (Delta_0 Delta_m)."""
    autocorr, (re, im, den) = _column(f, n)
    im = [-y for y in im]
    a, b = [1], [0]                  # A_m = a + i b
    prev, d = 1, re[0]               # Delta_{m-1}, Delta_m
    rows, betas, products = [(a, b, d)], [], []
    for m in range(n):
        x, y = re[m + 1:0:-1], im[m + 1:0:-1]      # R_{m+1-i}, i = 0..m
        br = sum(map(mul, a, x)) - sum(map(mul, b, y))
        bi = sum(map(mul, a, y)) + sum(map(mul, b, x))
        b2 = br * br + bi * bi
        if b2 >= d * d:
            raise BreakdownError(f"|Gamma_{m}|^2 = {float(Fraction(b2, d * d)):.6g} >= 1")
        # conj(rev [A_m, 0]) = u - i v
        u, v = [0] + a[::-1], [0] + b[::-1]
        a, b = ([(d * p - br * j - bi * k) // prev for p, j, k in zip(a + [0], u, v)],
                [(d * q - bi * j + br * k) // prev for q, j, k in zip(b + [0], u, v)])
        betas.append((br, bi, d))
        prev, d = d, (d * d - b2) // prev
        rows.append((a, b, d))
        products.append(Fraction(d, re[0] * prev))
    f0 = f.at0()
    s = (f0.re.numerator * (den // f0.re.denominator),
         -f0.im.numerator * (den // f0.im.denominator))
    return LevinsonState(n=n, coeffs=f.like(_exact_row(s, *rows[-1])),
                         gammas=tuple(ExactComplex(Fraction(br, d), Fraction(bi, d))
                                      for br, bi, d in betas),
                         partial_products=tuple(products),
                         autocorr=autocorr,
                         _history=partial(_exact_history, s, rows))


def _exact_row(s, a, b, d) -> tuple:
    """p_m = s A_m / Delta_m, for A_m = a + i b."""
    sr, si = s
    return tuple(ExactComplex(Fraction(sr * p - si * q, d), Fraction(sr * q + si * p, d))
                 for p, q in zip(a, b))


def _exact_history(s, rows) -> tuple:
    return tuple(_exact_row(s, *row) for row in rows)


@dataclass(frozen=True)
class OuterCriterion:
    partial_products: tuple  # prod_{k<=n} (1 - |c_{k+1,k+1}/c_{0,k+1}|^2)
    target: object           # conj(f(0)) / ||f||^2
    p0_values: tuple         # p_{n+1}(0) via the running product formula


def outer_criterion(f: Series, state: LevinsonState) -> OuterCriterion:
    """The outer-function criterion, from the partial products that
    ``state = levinson_solve(f, N)`` records: f is outer iff
    prod_n (1 - |c_{n+1,n+1}/c_{0,n+1}|^2) reaches conj(f(0)) / ||f||^2, and
    p_{n+1}(0) = conj(f(0)) / (||f||^2 prod_{k<=n} (1 - |Gamma_k|^2))."""
    target = f.at0().conjugate() / state.autocorr[0].real   # ||f||^2
    return OuterCriterion(state.partial_products, target,
                          tuple(target / p for p in state.partial_products))
