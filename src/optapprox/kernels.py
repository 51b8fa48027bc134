"""Reproducing kernels of the subspaces f * P_n and cyclicity diagnostics.

K_n(z, w) = sum_{k<=n} conj(phi_k(w) f(w)) phi_k(z) f(z) reproduces point
evaluation on f * P_n, and K_n(z, 0) = p_n(z) f(z) ties the kernel to the
optimal approximant.  The cyclicity report tabulates the quantities whose
limits characterize cyclicity: p_n(0) -> 1/f(0) and
sum_k |phi_k(0)|^2 -> 1/|f(0)|^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linsolve
from .approximant import optimal
from .errors import DegenerateError, UnsupportedAlphaError
from .exact import abs_sq
from .orthopoly import OrthonormalBasis, basis
from .series import Series, poly_eval, poly_mul
from .spaces import _f0_nonzero, gram_matrix, gram_numerators


@dataclass(frozen=True)
class KernelEvaluation:
    z: object
    w: object
    value: object  # K_n(z, w); Hermitian: K_n(z,w) = conj(K_n(w,z))


def kernel_eval(f: Series, n: int, alpha, z, w) -> KernelEvaluation:
    """Evaluate K_n(z, w) from the orthonormal basis.

    Uses the monic form: sum_k conj(psi_k(w)) psi_k(z) / s_k, times
    f(z) conj(f(w)), so exact inputs give exact values.
    """
    bas = basis(f, n, alpha)
    return kernel_eval_from_basis(bas, z, w)


def kernel_eval_from_basis(bas: OrthonormalBasis, z, w) -> KernelEvaluation:
    f = bas.f
    z, w = f.scalar(z), f.scalar(w)
    acc = f.scalar(0)
    for psi, s in zip(bas.monic, bas.norms_sq):
        acc = acc + poly_eval(psi, z) * poly_eval(psi, w).conjugate() / s
    value = acc * poly_eval(f, z) * poly_eval(f, w).conjugate()
    return KernelEvaluation(z, w, value)


def kernel_at_zero(f: Series, n: int, alpha) -> Series:
    """The polynomial K_n(z, 0) = p_n(z) f(z)."""
    return poly_mul(optimal(f, n, alpha).p, f)


def extremal_value(f: Series, n: int, alpha) -> float:
    """sqrt(K_n(0,0)): the largest |g(0)| over g in f * P_n with norm <= 1,
    attained by g = K_n(., 0)/sqrt(K_n(0,0))."""
    k00 = kernel_eval(f, n, alpha, 0, 0).value
    return math.sqrt(max(float(k00.real), 0.0))


def mccarthy_reference(f: Series, alpha, z, w):
    """Closed-form limit kernel of the weighted polynomial closure for
    alpha < 0: (1 - conj(w) z)^(alpha - 1) / (conj(f(w)) f(z)).

    Diagnostic target only; finite-n kernels converge to it for cyclic f
    that are nice up to the boundary.  Principal branch of the power,
    well-defined since Re(1 - conj(w) z) > 0 on the open bidisk.
    """
    if float(alpha) >= 0:
        raise UnsupportedAlphaError("the reference kernel formula requires alpha < 0")
    z, w = complex(z), complex(w)
    if abs(z) >= 1 or abs(w) >= 1:
        raise ValueError("the reference kernel is defined for |z| < 1, |w| < 1")
    fz = complex(poly_eval(f.to_float(), z))
    fw = complex(poly_eval(f.to_float(), w))
    if fz == 0 or fw == 0:
        raise DegenerateError("f vanishes at the evaluation point")
    base = 1.0 - np.conj(w) * z
    return complex(cmath.exp((float(alpha) - 1.0) * cmath.log(base)) / (np.conj(fw) * fz))


@dataclass(frozen=True)
class CyclicityReport:
    max_n: int
    pn_at_zero: tuple      # p_n(0) for n = 0..max_n
    partial_sums: tuple    # sum_{k<=n} |phi_k(0)|^2, nondecreasing
    target: object         # 1/|f(0)|^2
    distances: tuple       # d_n^2, nonincreasing
    verdict_trend: str     # approaching-target | plateaued | inconclusive


def _verdict(distances) -> str:
    """Heuristic label only; finite data cannot decide cyclicity."""
    d = [float(x) for x in distances]
    if d[-1] < 1e-12:
        return "approaching-target"
    if len(d) >= 5 and d[-1] > 1e-6 and max(d[-5:]) - min(d[-5:]) < 1e-12:
        return "plateaued"
    if len(d) >= 3:
        tail = d[-3:]
        ns = list(range(len(d) - 2, len(d) + 1))
        if tail[0] > tail[1] > tail[2] > 0:
            # log-log slope of d_n^2 against n; negative slope extrapolates to 0
            xs = [math.log(n + 1) for n in ns]
            ys = [math.log(v) for v in tail]
            slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
            if slope < -1e-3:
                return "approaching-target"
    return "inconclusive"


def cyclicity_report(f: Series, alpha, max_n: int) -> CyclicityReport:
    """p_n(0), the |phi_k(0)|^2 partial sums and d_n^2 for n <= max_n, off
    the forward pass of G = L D L^H with B = e_0: the rows of L^-1 are the
    monic psi_k, so |phi_k(0)|^2 = |(L^-1 e_0)_k|^2 / D_k.  Float: refused
    as the approximants of n <= max_n are."""
    _f0_nonzero(f)
    G = (gram_matrix if f.backend == "float" else gram_numerators)(f, max_n, alpha)
    F = linsolve.factor(G, f.scalar(1))
    col, norms = linsolve.forward(F, range(1, max_n + 2))
    f0 = f.at0()
    sums = tuple(accumulate(abs_sq(x[0]) / s for x, s in zip(col, norms)))
    pn0 = tuple(f0.conjugate() * s for s in sums)
    dists = tuple(1 - (p0 * f0).real for p0 in pn0)
    return CyclicityReport(max_n, pn0, sums, 1 / abs_sq(f0), dists, _verdict(dists))
