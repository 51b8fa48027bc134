"""Orthonormal polynomials of the weighted space D_{alpha,f}.

The polynomials phi_0..phi_n satisfy <phi_k f, phi_j f>_alpha = delta_kj,
deg phi_k = k, and have positive leading coefficient A_k.  Internally the
basis is kept in monic form psi_k together with the squared weighted
norms s_k, so that phi_k = psi_k / sqrt(s_k); every quantity the library
derives from the basis (approximants, kernels, |phi_k(0)|^2 sums)
involves phi twice and therefore stays rational in the exact backend.
Both backends read the basis off one triangular factor of the Gram
matrix (see :func:`basis`); the float one is then certified on G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zpotrf, ztrtri

from . import linsolve
from .errors import DegenerateError, InstabilityError, UnsupportedAlphaError
from .exact import abs_sq
from .series import Series, poly_add, poly_sub, reflect, scale
from .spaces import _product, gram_matrix, gram_numerators

#: Maximum tolerated orthogonality defect |<psi_k f, psi_j f>| / sqrt(s_k s_j)
#: of the float basis.
ORTHO_RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class OrthonormalBasis:
    f: Series
    alpha: float
    n: int
    monic: tuple        # monic orthogonal polynomials psi_0..psi_n
    norms_sq: tuple     # squared weighted norms s_k (Fraction or float)

    @property
    def backend(self) -> str:
        return self.f.backend

    @property
    def phis(self) -> tuple:
        """Normalized basis phi_k = psi_k / sqrt(s_k) as float Series.

        Normalization involves square roots, so even for exact input the
        phis are float; exact identities should be phrased through
        ``monic`` and ``norms_sq``.
        """
        out = []
        for psi, s in zip(self.monic, self.norms_sq):
            out.append(scale(psi.to_float(), 1.0 / math.sqrt(float(s))))
        return tuple(out)

    def leading_coefficients(self) -> tuple:
        """A_k = 1/sqrt(s_k); real and positive by construction."""
        return tuple(1.0 / math.sqrt(float(s)) for s in self.norms_sq)

    def phi_zero_sq(self, k):
        """|phi_k(0)|^2, exact in the exact backend."""
        return abs_sq(self.monic[k].at0()) / self.norms_sq[k]

    def phi_zero_sq_partial_sums(self):
        """Partial sums sum_{k<=m} |phi_k(0)|^2 for m = 0..n."""
        out = []
        acc = 0
        for k in range(self.n + 1):
            acc = acc + self.phi_zero_sq(k)
            out.append(acc)
        return out


def _basis_float(f: Series, n: int, alpha) -> OrthonormalBasis:
    G = gram_matrix(f, n, alpha)
    L, info = zpotrf(G, lower=1)  # G = L L^H
    if info > 0:
        raise InstabilityError(f"nonpositive norm at degree {info - 1}; "
                               "Gram matrix numerically singular")
    # C = diag(l_kk) L^-1 is unit lower triangular and C G C^H = diag(l_kk^2)
    d = L.diagonal().real
    C = d[:, None] * ztrtri(L, lower=1)[0]
    np.fill_diagonal(C, 1.0)
    H = np.abs(_product(_product(C, G), C.conj().T))
    H /= np.outer(d, d)
    np.fill_diagonal(H, 0.0)
    defect = float(H.max())
    if not defect <= ORTHO_RESIDUAL_LIMIT:  # NaN fails too
        raise InstabilityError(
            f"orthogonality defect {defect:.3e} exceeds {ORTHO_RESIDUAL_LIMIT}; "
            "use the exact backend or a lower degree")
    return OrthonormalBasis(
        f, float(alpha), n,
        tuple(Series.from_complex(C[k, : k + 1]) for k in range(n + 1)),
        tuple((d * d).tolist()))


def _basis_exact(f: Series, n: int, alpha) -> OrthonormalBasis:
    # <psi_k f, z^j f> = (L^-1 G)[k, j] vanishes for j < k, so the rows of
    # L^-1 are the monic psi_k, and s_k = <psi_k f, z^k f> = D_k.
    inv, norms = linsolve.inverse_ldl_exact(gram_numerators(f, n, alpha))
    return OrthonormalBasis(f, float(alpha), n,
                            tuple(Series(row, True) for row in inv), tuple(norms))


def basis(f: Series, n: int, alpha) -> OrthonormalBasis:
    """Orthonormal polynomial basis of f * P_n under the weighted inner
    product.  Float: for the Cholesky factor G = L L^H of the Gram matrix,
    the rows of C = diag(l_kk) L^-1 are the monic psi_k and s_k = l_kk^2;
    a nonpositive pivot, or an off-diagonal |C G C^H|_kj above
    ORTHO_RESIDUAL_LIMIT sqrt(s_k s_j), raises InstabilityError.
    Exact: the monic psi_k are the rows of L^-1 in the factorization
    G = L D L^H of the Gram matrix, and D holds their squared norms, both
    from one fraction-free elimination (``linsolve.inverse_ldl_exact``)
    run on the band of G as integer numerators over one denominator
    (``spaces.gram_numerators``); no entry outside the band is built.

    Monic construction makes the leading coefficients automatically real
    and positive, which is the uniqueness convention.
    """
    if f.is_zero:
        raise DegenerateError("cannot orthogonalize against the zero function")
    if f.backend == "float":
        return _basis_float(f, n, alpha)
    return _basis_exact(f, n, alpha)


def approximant_via_ops(f: Series, n: int, alpha) -> Series:
    """Optimal approximant reconstructed from the orthonormal basis:
    p_n = conj(f(0)) sum_k conj(phi_k(0)) phi_k."""
    bas = basis(f, n, alpha)
    f0c = f.at0().conjugate()
    out = f.like([0])
    for psi, s in zip(bas.monic, bas.norms_sq):
        out = poly_add(out, scale(psi, f0c * psi.at0().conjugate() / s))
    return out


def phi_from_diff(p_n: Series, p_prev: Series, f0, phi_n_at_zero) -> Series:
    """Reconstruct phi_n from consecutive optimal approximants:
    phi_n = (p_n - p_{n-1}) / (conj(phi_n(0)) conj(f(0)))."""
    phi0 = p_n.scalar(phi_n_at_zero)
    if phi0 == 0:
        raise DegenerateError("phi_n(0) = 0: reconstruction from differences impossible")
    return scale(poly_sub(p_n, p_prev), 1 / (phi0.conjugate() * p_n.scalar(f0).conjugate()))


def phi_abs_at_zero(p_n_at_zero, p_prev_at_zero, f0) -> float:
    """|phi_n(0)| = sqrt((p_n(0) - p_{n-1}(0)) / conj(f(0)))."""
    num = (complex(p_n_at_zero) - complex(p_prev_at_zero)) / np.conj(complex(f0))
    if num.real < -1e-12 or abs(num.imag) > 1e-10 * (1 + abs(num)):
        raise DegenerateError(f"(p_n(0)-p_prev(0))/conj(f0) = {num} is not a "
                              "nonnegative real")
    return math.sqrt(max(num.real, 0.0))


def szego_identity_residual(f: Series, n: int, alpha=0) -> float:
    """Max coefficient deviation in the circle-case identity
    phi_n* = (1/A_n) sum_k conj(phi_k(0)) phi_k (alpha = 0 only).

    A residual near zero certifies p_n = conj(f(0)) A_n phi_n*.
    """
    if float(alpha) != 0.0:
        raise UnsupportedAlphaError("the reflected-polynomial identity holds for alpha = 0")
    bas = basis(f, n, 0)
    # scaled identity: reflect(psi_n, n) = s_n sum_k conj(psi_k(0)) psi_k / s_k
    s_n = bas.norms_sq[n]
    rhs = f.like([0])
    for psi, s in zip(bas.monic, bas.norms_sq):
        rhs = poly_add(rhs, scale(psi, psi.at0().conjugate() * (s_n / s)))
    diff = poly_sub(reflect(bas.monic[n], n), rhs)
    return max(abs(complex(c)) for c in diff.coeffs) / math.sqrt(float(s_n))
