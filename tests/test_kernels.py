"""Reproducing kernels, extremal values, the reference limit kernel and
cyclicity reports."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optapprox import (ExactComplex, FunctionSpec, Series, basis, cyclicity_report,
                       extremal_value, inner, kernel_at_zero, kernel_eval,
                       mccarthy_reference, norm_sq, optimal, poly_eval,
                       poly_mul, realize, scale)
from optapprox.errors import DegenerateError, UnsupportedAlphaError

from conftest import random_poly

ONE_MINUS_Z = Series.exact([1, -1])


class TestKernelEval:
    def test_monomial_geometric_sum(self):
        f = Series.from_complex([1.0])
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        for n in (0, 2, 5):
            val = kernel_eval(f, n, 0, z, w).value
            expected = sum((np.conj(w) * z) ** k for k in range(n + 1))
            assert val == pytest.approx(expected, rel=1e-12)

    def test_one_minus_z_at_origin(self):
        val = kernel_eval(ONE_MINUS_Z, 1, 0, ExactComplex(0), ExactComplex(0)).value
        assert val == ExactComplex(Fraction(2, 3))

    def test_diagonal_real_nonnegative(self, rng):
        for _ in range(5):
            f = random_poly(rng, 5)
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            val = kernel_eval(f, 3, 0, z, z).value
            assert abs(val.imag) <= 1e-12 * (1 + abs(val))
            assert val.real >= -1e-12

    def test_hermitian_symmetry(self, rng):
        for _ in range(5):
            f = random_poly(rng, 5)
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            for alpha in (-1, 0, 0.5):
                kzw = kernel_eval(f, 3, alpha, z, w).value
                kwz = kernel_eval(f, 3, alpha, w, z).value
                assert kzw == pytest.approx(np.conj(kwz), rel=1e-10, abs=1e-12)

    def test_reproducing_property(self, rng):
        for _ in range(5):
            f = random_poly(rng, 5)
            n = 4
            for alpha in (-1, 0):
                w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                q = random_poly(rng, n, min_f0=0.0)
                # K_n(., w) as a polynomial: sum_k conj(phi_k(w) f(w)) phi_k f
                from optapprox.orthopoly import basis

                bas = basis(f, n, alpha)
                kern = Series.from_complex(np.zeros(n + 1))
                fw = complex(poly_eval(f, w))
                for phi in bas.phis:
                    weight = np.conj(complex(poly_eval(phi, w)) * fw)
                    padded = np.zeros(n + 1, dtype=np.complex128)
                    padded[: len(phi)] = phi.coeffs
                    kern = Series.from_complex(np.asarray(kern.coeffs) +
                                               weight * padded)
                lhs = inner(poly_mul(q, f), poly_mul(kern, f), alpha)
                rhs = complex(poly_eval(q, w)) * fw
                scale_ = 1 + abs(rhs) + math.sqrt(abs(norm_sq(poly_mul(q, f), alpha)))
                assert abs(lhs - rhs) <= 1e-9 * scale_


class TestKernelAtZero:
    def test_constant(self):
        out = kernel_at_zero(Series.exact([1]), 2, 0)
        assert tuple(out.coeffs) == tuple(Series.exact([1, 0, 0]).coeffs)

    def test_one_minus_z(self):
        out = kernel_at_zero(ONE_MINUS_Z, 1, 0)
        assert tuple(out.coeffs) == tuple(Series.exact(
            [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]).coeffs)

    def test_binomial_cube(self):
        f = Series.exact([1, 3, 3, 1])
        out = kernel_at_zero(f, 1, -2)
        expected = poly_mul(optimal(f, 1, -2).p, f)
        assert tuple(out.coeffs) == tuple(expected.coeffs)
        # root set: -1 triple plus the extraneous zero 741/775
        from optapprox import poly_roots

        zs = sorted(poly_roots(out).roots, key=lambda z: z.real)
        assert len(zs) == 4
        assert all(z == pytest.approx(-1, abs=1e-4) for z in zs[:3])
        assert zs[3] == pytest.approx(741 / 775, abs=1e-10)


class TestExtremalValue:
    def test_constant(self):
        assert extremal_value(Series.exact([1]), 3, 0) == pytest.approx(1.0)

    def test_one_minus_z(self):
        assert extremal_value(ONE_MINUS_Z, 1, 0) == pytest.approx(math.sqrt(2 / 3))

    def test_blaschke(self):
        lam = 0.6
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 4000},
                                 "float"))
        for n in (0, 3):
            assert extremal_value(f, n, 0) == pytest.approx(lam, abs=1e-10)

    def test_certifies_supremum(self, rng):
        f = random_poly(rng, 4)
        n, alpha = 3, 0
        ext = extremal_value(f, n, alpha)
        # the extremal g itself: K_n(., 0)/sqrt(K_n(0,0))
        g = kernel_at_zero(f, n, alpha)
        g = scale(g, 1.0 / math.sqrt(float(norm_sq(g, alpha))))
        assert abs(complex(g.at0())) == pytest.approx(ext, rel=1e-10)
        assert norm_sq(g, alpha) == pytest.approx(1.0, rel=1e-12)
        # no competitor g = q f with unit norm beats it
        for _ in range(100):
            q = random_poly(rng, n, min_f0=0.0)
            qf = poly_mul(q, f)
            nrm = math.sqrt(float(norm_sq(qf, alpha)))
            if nrm == 0:
                continue
            assert abs(complex(qf.at0())) / nrm <= ext + 1e-12


class TestMcCarthyReference:
    def test_bergman_kernel(self):
        f = Series.from_complex([1.0])
        z, w = 0.3 + 0.2j, -0.1 + 0.5j
        val = mccarthy_reference(f, -1, z, w)
        assert val == pytest.approx(1.0 / (1.0 - np.conj(w) * z) ** 2, rel=1e-12)

    def test_origin_normalization(self):
        assert mccarthy_reference(Series.from_complex([1.0]), -2, 0, 0) == \
            pytest.approx(1.0)
        assert mccarthy_reference(Series.from_complex([1.0, 1.0]), -1, 0, 0) == \
            pytest.approx(1.0)

    def test_rejects_nonnegative_alpha(self):
        with pytest.raises(UnsupportedAlphaError):
            mccarthy_reference(Series.from_complex([1.0]), 0, 0, 0)

    def test_rejects_zero_of_f(self):
        with pytest.raises(DegenerateError):
            mccarthy_reference(Series.from_complex([0.5, -1.0]), -1, 0.5, 0)

    def test_finite_kernels_approach_reference(self):
        # f = 1 in the Bergman space: K_n(z,0)... full diagonal convergence
        f = Series.from_complex([1.0])
        z = 0.4 + 0.1j
        ref = mccarthy_reference(f, -1, z, z)
        vals = [kernel_eval(f, n, -1, z, z).value for n in (5, 10, 20)]
        errs = [abs(v - ref) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3 * abs(ref)


class TestCyclicityReport:
    def test_cesaro(self):
        rep = cyclicity_report(ONE_MINUS_Z, 0, 20)
        for n in range(21):
            assert rep.pn_at_zero[n] == ExactComplex(Fraction(n + 1, n + 2))
            assert rep.distances[n] == Fraction(1, n + 2)
        assert rep.target == Fraction(1)
        assert rep.verdict_trend == "approaching-target"

    def test_blaschke_plateau(self):
        lam = 0.5
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 4000},
                                 "float"))
        rep = cyclicity_report(f, 0, 10)
        assert np.asarray(rep.pn_at_zero) == pytest.approx(
            np.full(11, lam), abs=1e-10)
        assert np.asarray(rep.distances) == pytest.approx(
            np.full(11, 1 - lam ** 2), abs=1e-10)
        assert rep.verdict_trend == "plateaued"

    def test_constant_attained(self):
        rep = cyclicity_report(Series.exact([1]), -1, 6)
        assert all(d == Fraction(0) for d in rep.distances)
        assert rep.verdict_trend == "approaching-target"

    def test_chain_invariant(self, rng):
        for _ in range(3):
            f = random_poly(rng, 5)
            for alpha in (-1, 0.5):
                rep = cyclicity_report(f, alpha, 8)
                f0sq = abs(complex(f.at0())) ** 2
                for n in range(9):
                    assert rep.distances[n] + f0sq * rep.partial_sums[n] == \
                        pytest.approx(1.0, abs=1e-10)
                # monotonicity of the tabulated sequences
                assert all(a <= b + 1e-14 for a, b in
                           zip(rep.partial_sums, rep.partial_sums[1:]))
                assert all(b <= a + 1e-14 for a, b in
                           zip(rep.distances, rep.distances[1:]))


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
gaussian_rationals = st.builds(ExactComplex, rationals, rationals)


@settings(max_examples=40, deadline=None)
@given(st.lists(gaussian_rationals, min_size=1, max_size=4), st.integers(-2, 2),
       st.integers(0, 6))
def test_exact_cyclicity_sums_are_the_basis_sums(coeffs, alpha, N):
    # read off the forward pass with B = e_0 against the basis from B = I
    assume(not coeffs[0].is_zero)
    f = Series(tuple(coeffs), True)
    rep = cyclicity_report(f, alpha, N)
    bas = basis(f, N, alpha)
    acc = Fraction(0)
    for n in range(N + 1):
        acc += bas.phi_zero_sq(n)
        assert type(rep.partial_sums[n]) is Fraction and rep.partial_sums[n] == acc
