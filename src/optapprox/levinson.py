"""Hardy-space (alpha = 0) Toeplitz structure and Levinson recursion.

Shifts are isometries on the Hardy space, so the Gram matrix satisfies
M_{k,l} = M_{k-l,0} and one autocorrelation column determines the whole
system.  The Levinson recursion then produces the optimal-approximant
coefficients degree by degree together with the reflection coefficients
Gamma_n, and the infinite product of (1 - |Gamma_n|^2) characterizes
outer functions.

The recursion is stated for f(0) = 1; general f is normalized to
g = f / f(0) internally and the coefficients are rescaled afterwards
(p_n for f equals the g-approximant divided by f(0), since p f = q g
with q = p f(0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import BreakdownError, DegenerateError
from .exact import abs_sq
from .series import Series
from .spaces import _f0_nonzero, norm_sq, shifted_inner


def toeplitz_column(f: Series, n_max: int):
    """Autocorrelation column (<z^k f, f>_0)_{k=0..n_max}; the full Gram
    matrix follows via M_{k,l} = column[k-l] (conjugate for k < l)."""
    return tuple(shifted_inner(f, k, 0, 0) for k in range(n_max + 1))


@dataclass(frozen=True)
class LevinsonState:
    n: int
    coeffs: Series          # optimal approximant coefficients at degree n (for f)
    gammas: tuple           # Gamma_0..Gamma_{n-1}
    autocorr: tuple         # <z^k f, f>_0 for k = 0..n
    g_history: tuple = field(repr=False)   # coefficient tuples for g = f/f(0)
    inv_f0: object = field(repr=False)     # 1/f(0)

    @cached_property
    def history(self) -> tuple:
        """Coefficient tuples (for f) at every degree 0..n, rescaled from
        g's on first access: p_n[f] = q_n[g] / f(0)."""
        return tuple(tuple(ck * self.inv_f0 for ck in row) for row in self.g_history)


def levinson_solve(f: Series, n: int) -> LevinsonState:
    """Run the Levinson recursion up to degree n (alpha = 0).

    c_{k,n+1} = (c_{k,n} - Gamma_n conj(c_{n+1-k,n})) / (1 - |Gamma_n|^2)
    with Gamma_n = sum_k c_{n-k,n} <z^{k+1} g, g> and c_{0,0} = 1/||g||^2,
    for the normalized g = f/f(0).
    """
    _f0_nonzero(f)
    inv_f0 = 1 / f.scalar(f.at0())
    # The normal equations read conj(M) c = e_0 with M_{k,l} = <z^k g, z^l g>
    # (see approximant._approximants), so the recursion runs on the
    # conjugated autocorrelation column of g, which is f's over |f(0)|^2.
    autocorr = toeplitz_column(f, n)
    f0_sq = abs_sq(f.at0())
    r = tuple(x.conjugate() / f0_sq for x in autocorr)

    c = [1 / r[0]]
    history = [tuple(c)]
    gammas = []
    for m in range(n):
        gamma = sum((c[m - k] * r[k + 1] for k in range(m + 1)), start=f.scalar(0))
        g2 = abs_sq(gamma)
        if g2 >= 1:
            raise BreakdownError(f"|Gamma_{m}|^2 = {float(g2):.6g} >= 1")
        prev, denom = c + [f.scalar(0)], f.scalar(1 - g2)
        c = [(prev[k] - gamma * prev[m + 1 - k].conjugate()) / denom
             for k in range(m + 2)]
        gammas.append(gamma)
        history.append(tuple(c))

    # rescale from g back to f, p_n[f] = q_n[g] / f(0), at degree n only;
    # the other degrees when ``history`` is read
    return LevinsonState(n=n, coeffs=f.like([ck * inv_f0 for ck in c]),
                         gammas=tuple(gammas), autocorr=autocorr,
                         g_history=tuple(history), inv_f0=inv_f0)


def reflection_coefficients(state: LevinsonState):
    """Gamma_n = -c_{n+1,n+1} / c_{0,n+1} recomputed from the per-degree
    coefficient history; matches the gammas recorded during the recursion."""
    out = []
    for m in range(1, state.n + 1):
        row = state.history[m]
        if row[0] == 0:
            raise DegenerateError(f"c_0 at degree {m} vanishes")
        out.append(-(row[m] / row[0]))
    return tuple(out)


@dataclass(frozen=True)
class OuterCriterion:
    partial_products: tuple  # prod_{k<=n} (1 - |c_{k+1,k+1}/c_{0,k+1}|^2)
    target: object           # conj(f(0)) / ||f||^2
    p0_values: tuple         # p_{n+1}(0) via the running product formula


def outer_criterion_partial(f: Series, N: int) -> OuterCriterion:
    """Partial products of the outer-function criterion: f is outer iff
    prod_n (1 - |c_{n+1,n+1}/c_{0,n+1}|^2) reaches conj(f(0)) / ||f||^2."""
    return outer_criterion(f, levinson_solve(f, N))


def outer_criterion(f: Series, state: LevinsonState) -> OuterCriterion:
    """The outer-function criterion from the reflection coefficients of
    ``state = levinson_solve(f, N)``, without running the recursion again."""
    target = f.at0().conjugate() / norm_sq(f, 0)
    prod, products, p0s = 1, [], []
    for gamma in state.gammas:
        prod = prod * (1 - abs_sq(gamma))
        products.append(prod)
        # p_{n+1}(0) = conj(f(0)) / (||f||^2 prod_k (1 - |Gamma_k|^2))
        p0s.append(target / prod)
    return OuterCriterion(tuple(products), target, tuple(p0s))
