"""Weighted orthonormal polynomial bases and the identities linking them
to optimal approximants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from optapprox import (ExactComplex, Series, approximant_via_ops, basis,
                       gram_matrix, optimal, orthopoly, phi_from_diff, poly_roots,
                       szego_identity_residual, weighted_inner)
from optapprox.errors import (DegenerateError, InstabilityError,
                              UnsupportedAlphaError)

from conftest import random_poly

ONE_MINUS_Z = Series.exact([1, -1])
CUBE = Series.exact([1, 3, 3, 1])


class TestBasis:
    def test_monomials_hardy(self):
        bas = basis(Series.exact([1]), 3, 0)
        for k, psi in enumerate(bas.monic):
            expected = [Fraction(0)] * k + [Fraction(1)]
            assert tuple(psi.coeffs) == tuple(Series.exact(expected).coeffs)
            assert bas.norms_sq[k] == Fraction(1)

    def test_monomials_weighted(self):
        for alpha in (-2, 1):
            bas = basis(Series.exact([1]), 3, alpha)
            for k in range(4):
                # phi_k = (k+1)^(-alpha/2) z^k  <=>  s_k = (k+1)^alpha
                assert bas.norms_sq[k] == Fraction(k + 1) ** alpha
                assert bas.phi_zero_sq(k) == (Fraction(1) if k == 0 else Fraction(0))

    def test_blaschke_monomials(self):
        from optapprox import FunctionSpec, realize

        f = realize(FunctionSpec("blaschke", {"lambda": 0.4, "truncation": 4000},
                                 "float"))
        bas = basis(f, 4, 0)
        for k, phi in enumerate(bas.phis):
            expected = np.zeros(k + 1, dtype=np.complex128)
            expected[k] = 1.0
            assert np.asarray(phi.coeffs) == pytest.approx(expected, abs=1e-9)

    def test_orthonormality_random(self, rng):
        for _ in range(5):
            f = random_poly(rng, 6)
            for alpha in (-1, 0, 0.7):
                bas = basis(f, 5, alpha)
                phis = bas.phis
                for j in range(6):
                    for k in range(j + 1):
                        v = weighted_inner(phis[j], phis[k], f, alpha)
                        target = 1.0 if j == k else 0.0
                        assert abs(v - target) <= 1e-10

    def test_degree_and_positive_leading(self, rng):
        f = random_poly(rng, 5)
        bas = basis(f, 4, 0)
        for k, phi in enumerate(bas.phis):
            assert phi.degree == k
        for A in bas.leading_coefficients():
            assert isinstance(A, float) and A > 0

    def test_exact_orthogonality_identity(self):
        bas = basis(CUBE, 4, -2)
        for j in range(5):
            for k in range(j):
                assert weighted_inner(bas.monic[j], bas.monic[k], CUBE, -2) == \
                    ExactComplex(0)
            assert weighted_inner(bas.monic[j], bas.monic[j], CUBE, -2) == \
                ExactComplex(bas.norms_sq[j])

    def test_hardy_phi_roots_inside_disk(self, rng):
        for _ in range(5):
            f = random_poly(rng, 5)
            bas = basis(f, 5, 0)
            for phi in bas.phis[1:]:
                zs = poly_roots(phi)
                assert all(abs(z) < 1 + 1e-9 for z in zs.roots)


def _off_circle_poly(rng, degree):
    """c * prod (1 - z/r_j) with every root off an annulus around the unit
    circle, so that the Gram matrices stay well conditioned up to n = 100."""
    c = np.array([rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))])
    for _ in range(degree):
        r = rng.uniform(0.25, 0.75) if rng.random() < 0.25 else rng.uniform(1.3, 3.0)
        c = np.convolve(c, [1.0, -np.exp(-1j * rng.uniform(-np.pi, np.pi)) / r])
    return Series.from_complex(c)


class TestFloatBasisKernel:
    """The float basis comes from one Cholesky factor G = L L^H; these
    check it against the exact basis and against inner products computed
    without G."""

    @pytest.mark.parametrize("coeffs", [
        [1], [2, 1], [1, 1], [1, -1], [2, -1], [1, 0, 1], [1, 2, 1], [1, 1, 1],
        [3, 1, 1], [3, -1, 2], [4, -2, 1], [5, 1, -2, 1]])
    def test_matches_exact_basis(self, coeffs):
        f = Series.exact(coeffs)
        for alpha in (-2, -1, 0, 1, 2):
            for n in (0, 1, 2, 7, 20):
                exact, fl = basis(f, n, alpha), basis(f.to_float(), n, alpha)
                for k in range(n + 1):
                    want = np.asarray(exact.monic[k].to_float().coeffs)
                    got = np.asarray(fl.monic[k].coeffs)
                    assert len(got) == k + 1 and got[k] == 1.0
                    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                    s = float(exact.norms_sq[k])
                    assert abs(fl.norms_sq[k] - s) <= 1e-12 * s

    def test_orthonormal_through_weighted_inner(self, rng):
        for n, degree in ((100, 4), (70, 1), (37, 6), (12, 3)):
            f = _off_circle_poly(rng, degree)
            for alpha in (-1, -0.5, 0, 0.5, 1):
                phis = basis(f, n, alpha).phis
                for j in range(n + 1):
                    for k in range(j + 1):
                        v = weighted_inner(phis[j], phis[k], f, alpha)
                        assert abs(v - (j == k)) <= 1e-9

    def test_scale_invariance(self, rng):
        # basis(c f) has the same monic psi_k and norms |c|^2 s_k
        f = _off_circle_poly(rng, 4)
        ref = basis(f, 40, 0.5)
        for c in (1e-6, 1e6j):
            bas = basis(Series.from_complex(c * np.asarray(f.coeffs)), 40, 0.5)
            for k in range(41):
                assert np.asarray(bas.monic[k].coeffs) == pytest.approx(
                    np.asarray(ref.monic[k].coeffs), rel=1e-12, abs=1e-12)
                assert bas.norms_sq[k] == pytest.approx(abs(c) ** 2 * ref.norms_sq[k],
                                                        rel=1e-12)

    def test_singular_gram_raises(self):
        # weights (k+1)^-300 underflow: the Gram matrix has zero pivots
        with pytest.raises(InstabilityError, match="nonpositive norm at degree 11"):
            basis(Series.from_complex([1.0]), 20, -300)
        with pytest.raises(InstabilityError, match="nonpositive norm at degree 0"):
            basis(Series.from_complex([0.0] * 20 + [1.0]), 3, -300)

    @pytest.mark.parametrize("p, alpha, n", [(6, 0, 40), (5, -2, 60)])
    def test_certificate_reads_the_exact_defect(self, monkeypatch, p, alpha, n):
        # (1 - z)^p with positive pivots: the certificate refuses the basis,
        # and the basis, evaluated exactly against the exact Gram matrix,
        # is indeed off-diagonal by more than the limit
        c = [(-1) ** k * math.comb(p, k) for k in range(p + 1)]
        with pytest.raises(InstabilityError, match="orthogonality defect") as err:
            basis(Series.from_complex(c), n, alpha)
        cert, limit = float(str(err.value).split()[2]), orthopoly.ORTHO_RESIDUAL_LIMIT
        monkeypatch.setattr(orthopoly, "ORTHO_RESIDUAL_LIMIT", 1.0)
        monic = basis(Series.from_complex(c), n, alpha).monic
        G = gram_matrix(Series.exact(c), n, alpha).to_exact()
        # C G C^H over the Gaussian integers: every float is a dyadic rational
        g = math.lcm(*(x.denominator for row in G for z in row for x in (z.re, z.im)))
        Gr = np.array([[int(z.re * g) for z in row] for row in G], dtype=object)
        Gi = np.array([[int(z.im * g) for z in row] for row in G], dtype=object)
        Cr = np.zeros((n + 1, n + 1), dtype=object)
        Ci = np.zeros((n + 1, n + 1), dtype=object)
        for k, psi in enumerate(monic):
            Cr[k, : k + 1] = [Fraction(z.real) for z in psi.coeffs]
            Ci[k, : k + 1] = [Fraction(z.imag) for z in psi.coeffs]
        D = math.lcm(*(x.denominator for x in (*Cr.flat, *Ci.flat)))
        Cr, Ci = (np.vectorize(lambda x: int(x * D), otypes=[object])(M) for M in (Cr, Ci))
        Tr, Ti = Cr.dot(Gr) - Ci.dot(Gi), Cr.dot(Gi) + Ci.dot(Gr)
        Hr, Hi = Tr.dot(Cr.T) + Ti.dot(Ci.T), Ti.dot(Cr.T) - Tr.dot(Ci.T)
        exact = max(math.sqrt(Fraction(Hr[k, j] ** 2 + Hi[k, j] ** 2, Hr[k, k] * Hr[j, j]))
                    for k in range(n + 1) for j in range(k))
        assert exact > limit
        assert exact / 4 < cert < 4 * exact


class TestApproximantViaOps:
    def test_constant_function(self):
        out = approximant_via_ops(Series.exact([1]), 2, 0)
        assert tuple(out.coeffs) == tuple(Series.exact([1, 0, 0]).coeffs)

    def test_one_minus_z(self):
        out = approximant_via_ops(ONE_MINUS_Z, 1, 0)
        assert tuple(out.coeffs) == \
            tuple(Series.exact([Fraction(2, 3), Fraction(1, 3)]).coeffs)

    def test_binomial_cube(self):
        out = approximant_via_ops(CUBE, 1, -2)
        assert tuple(out.coeffs) == tuple(
            Series.exact([Fraction(741, 1694), Fraction(-775, 1694)]).coeffs)

    def test_matches_gram_solve_random(self, rng):
        for _ in range(5):
            f = random_poly(rng, 6)
            for alpha in (-1, 0, 0.5):
                via_ops = np.asarray(approximant_via_ops(f, 4, alpha).coeffs)
                direct = np.asarray(optimal(f, 4, alpha).p.coeffs)
                assert np.max(np.abs(via_ops - direct)) <= 1e-10


class TestPhiFromDiff:
    def test_constant_function_degenerate(self):
        p1 = optimal(Series.exact([1]), 1, 0).p
        p0 = optimal(Series.exact([1]), 0, 0).p
        with pytest.raises(DegenerateError):
            phi_from_diff(p1, p0, ExactComplex(1), ExactComplex(0))

    def test_one_minus_z_reconstruction(self):
        p1 = optimal(ONE_MINUS_Z, 1, 0).p
        p0 = optimal(ONE_MINUS_Z, 0, 0).p
        # difference (1/6, 1/3); |phi_1(0)|^2 = 1/6
        assert tuple(p1.coeffs)[0] - tuple(p0.coeffs)[0] == \
            ExactComplex(Fraction(1, 6))
        mod = math.sqrt(basis(ONE_MINUS_Z, 1, 0).phi_zero_sq(1))
        assert mod == pytest.approx(math.sqrt(1 / 6))
        bas = basis(ONE_MINUS_Z, 1, 0)
        phi1 = bas.phis[1]
        rec = phi_from_diff(p1.to_float(), p0.to_float(), 1.0,
                            complex(phi1.at0()))
        assert np.asarray(rec.coeffs)[:2] == pytest.approx(
            np.asarray(phi1.coeffs), abs=1e-12)

    def test_binomial_cube_reconstruction(self):
        p1 = optimal(CUBE, 1, -2).p
        p0 = optimal(CUBE, 0, -2).p
        bas = basis(CUBE, 1, -2)
        phi1 = bas.phis[1]
        rec = phi_from_diff(p1.to_float(), p0.to_float(), 1.0,
                            complex(phi1.at0()))
        assert np.asarray(rec.coeffs)[:2] == pytest.approx(
            np.asarray(phi1.coeffs), abs=1e-12)


class TestSzegoIdentity:
    def test_constant(self):
        assert szego_identity_residual(Series.exact([1]), 3) == 0.0

    def test_one_minus_z(self):
        for n in range(1, 11):
            assert szego_identity_residual(ONE_MINUS_Z, n) <= 1e-10

    def test_binomial_cube(self):
        for n in range(1, 11):
            assert szego_identity_residual(CUBE, n) <= 1e-10
            assert szego_identity_residual(CUBE.to_float(), n) <= 1e-10

    def test_rejects_nonzero_alpha(self):
        with pytest.raises(UnsupportedAlphaError):
            szego_identity_residual(ONE_MINUS_Z, 2, alpha=-1)
