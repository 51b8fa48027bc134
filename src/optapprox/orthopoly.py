"""Orthonormal polynomials of the weighted space D_{alpha,f}.

The polynomials phi_0..phi_n satisfy <phi_k f, phi_j f>_alpha = delta_kj,
deg phi_k = k, and have positive leading coefficient A_k.  Internally the
basis is kept in monic form psi_k together with the squared weighted
norms s_k, so that phi_k = psi_k / sqrt(s_k); every quantity the library
derives from the basis (approximants, kernels, |phi_k(0)|^2 sums)
involves phi twice and therefore stays rational in the exact backend.
Both backends read the basis off one factorization of the Gram matrix
(see :func:`basis`); the float one is then certified on G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linsolve
from .errors import DegenerateError, InstabilityError, UnsupportedAlphaError
from .exact import abs_sq
from .series import Series, poly_add, poly_sub, reflect, scale
from .spaces import gram_matrix

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
    def phis(self) -> tuple:
        """Normalized basis phi_k = psi_k / sqrt(s_k) as float Series.

        Normalization involves square roots, so even for exact input the
        phis are float; exact identities should be phrased through
        ``monic`` and ``norms_sq``.
        """
        return tuple(scale(psi.to_float(), a)
                     for psi, a in zip(self.monic, self.leading_coefficients()))

    def leading_coefficients(self) -> tuple:
        """A_k = 1/sqrt(s_k); real and positive by construction.  For s_k =
        m 4^j, 1/2 <= m < 4, it is 2^-j / sqrt(m), also beyond the float
        range, and 1/sqrt(float(s_k)) to the bit where both are normal."""
        out = []
        for num, den in (s.as_integer_ratio() for s in self.norms_sq):
            j = (num.bit_length() - den.bit_length()) // 2
            m = num / (den << 2 * j) if j >= 0 else (num << -2 * j) / den
            out.append(math.ldexp(1.0 / math.sqrt(m), -j))
        return tuple(out)

    def phi_zero_sq(self, k):
        """|phi_k(0)|^2, exact in the exact backend."""
        return abs_sq(self.monic[k].at0()) / self.norms_sq[k]


def _basis_from(f: Series, n: int, alpha, G, F) -> OrthonormalBasis:
    """The basis read off the factor F of G made with B = I."""
    inv, norms = linsolve.forward(F)
    if isinstance(G, np.ndarray):
        # C = L^-1 has C G C^H = D; certify its off-diagonal part
        H = np.abs(linsolve._product(linsolve._product(inv, G), inv.conj().T))
        s = np.sqrt(norms)
        H /= np.outer(s, s)
        np.fill_diagonal(H, 0.0)
        defect = float(H.max())
        if not defect <= ORTHO_RESIDUAL_LIMIT:  # NaN fails too
            raise InstabilityError(
                f"orthogonality defect {defect:.3e} exceeds {ORTHO_RESIDUAL_LIMIT}; "
                "use the exact backend or a lower degree")
    return OrthonormalBasis(f, float(alpha), n,
                            tuple(f.like(row[: k + 1]) for k, row in enumerate(inv)),
                            tuple(norms))


def basis(f: Series, n: int, alpha) -> OrthonormalBasis:
    """Orthonormal polynomial basis of f * P_n under the weighted inner
    product.  In the factorization G = L D L^H of the Gram matrix
    (``linsolve.factor`` with B = I; exact, on the band of G as integer
    numerators), <psi_k f, z^j f> = (L^-1 G)[k, j] vanishes for j < k, so
    the monic psi_k are the rows of L^-1, and s_k = D_k.  Float: a
    nonpositive pivot, or an off-diagonal |L^-1 G L^-H|_kj above
    ORTHO_RESIDUAL_LIMIT sqrt(s_k s_j), raises InstabilityError.

    Monic construction makes the leading coefficients automatically real
    and positive, which is the uniqueness convention.
    """
    if f.is_zero:
        raise DegenerateError("cannot orthogonalize against the zero function")
    G = gram_matrix(f, n, alpha)
    f.require_in_space(alpha)
    return _basis_from(f, n, alpha, G, linsolve.factor(G))


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
