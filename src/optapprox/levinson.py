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

The recursion runs over arrays in both backends: the coefficients of
every degree are the rows of one array of the backend's scalars
(complex128, or ExactComplex objects), and each degree costs one dot
product for Gamma_n and one vector update.  A float run to n = 250
takes about 1.8 ms (in-process, 2 vCPU, Python 3.11).

The recursion is stated for f(0) = 1; general f is normalized to
g = f / f(0) internally and the coefficients are rescaled afterwards
(p_n for f equals the g-approximant divided by f(0), since p f = q g
with q = p f(0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BreakdownError, ConditioningError
from .exact import abs_sq
from .series import Series
from .spaces import TINY, _f0_nonzero, gram_matrix


def toeplitz_column(f: Series, n_max: int):
    """Autocorrelation column (<z^k f, f>_0)_{k=0..n_max}, column 0 of
    ``gram_matrix(f, n_max, 0)``, with ||f||^2 real at k = 0; the full
    Gram matrix follows via M_{k,l} = column[k-l] (conjugate for k < l).
    Float: a ConditioningError when it overflows."""
    G = gram_matrix(f, n_max, 0)
    f.require_in_space(0)
    if f.backend == "float":
        return tuple(G[:, 0].tolist())
    return tuple(row[0] for row in G.to_exact())


@dataclass(frozen=True)
class LevinsonState:
    n: int
    coeffs: Series          # optimal approximant coefficients at degree n (for f)
    gammas: tuple           # Gamma_0..Gamma_{n-1}
    autocorr: tuple         # <z^k f, f>_0 for k = 0..n
    g_history: np.ndarray = field(repr=False, compare=False)  # row m: g's coefficients at degree m
    inv_f0: object = field(repr=False)     # 1/f(0)

    @cached_property
    def history(self) -> tuple:
        """Coefficient tuples (for f) at every degree 0..n, rescaled from
        g's on first access: p_n[f] = q_n[g] / f(0)."""
        return tuple(tuple((row[: m + 1] * self.inv_f0).tolist())
                     for m, row in enumerate(self.g_history))


def levinson_solve(f: Series, n: int) -> LevinsonState:
    """Run the Levinson recursion up to degree n (alpha = 0).

    c_{k,n+1} = (c_{k,n} - Gamma_n conj(c_{n+1-k,n})) / (1 - |Gamma_n|^2)
    with Gamma_n = sum_k c_{n-k,n} <z^{k+1} g, g> and c_{0,0} = 1/||g||^2,
    for the normalized g = f/f(0).
    """
    _f0_nonzero(f)
    zero = f.scalar(0)
    inv_f0 = 1 / f.scalar(f.at0())
    # The normal equations read conj(M) c = e_0 with M_{k,l} = <z^k g, z^l g>
    # (see approximant._approximants), so the recursion runs on the
    # conjugated autocorrelation column of g, which is f's over |f(0)|^2.
    autocorr = toeplitz_column(f, n)
    f0_sq = abs_sq(f.at0())
    if f.backend == "float" and not autocorr[0].real * TINY < f0_sq:
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

    # rescale from g back to f, p_n[f] = q_n[g] / f(0), at degree n only;
    # the other degrees when ``history`` is read
    return LevinsonState(n=n, coeffs=f.like(H[n, :n + 1] * inv_f0),
                         gammas=tuple(gammas.tolist()), autocorr=autocorr,
                         g_history=H, inv_f0=inv_f0)


@dataclass(frozen=True)
class OuterCriterion:
    partial_products: tuple  # prod_{k<=n} (1 - |c_{k+1,k+1}/c_{0,k+1}|^2)
    target: object           # conj(f(0)) / ||f||^2
    p0_values: tuple         # p_{n+1}(0) via the running product formula


def outer_criterion(f: Series, state: LevinsonState) -> OuterCriterion:
    """Partial products of the outer-function criterion, from the reflection
    coefficients of ``state = levinson_solve(f, N)``: f is outer iff
    prod_n (1 - |c_{n+1,n+1}/c_{0,n+1}|^2) reaches conj(f(0)) / ||f||^2."""
    target = f.at0().conjugate() / state.autocorr[0].real   # ||f||^2
    prod, products, p0s = 1, [], []
    for gamma in state.gammas:
        prod = prod * (1 - abs_sq(gamma))
        products.append(prod)
        # p_{n+1}(0) = conj(f(0)) / (||f||^2 prod_k (1 - |Gamma_k|^2))
        p0s.append(target / prod)
    return OuterCriterion(tuple(products), target, tuple(p0s))
