"""Inner products, norms, shifted inner products and Gram assembly."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optapprox import (ExactComplex, FunctionSpec, Series, first_zero, gram,
                       gram_matrix, inner, norm_sq, realize, shift,
                       shifted_inner, weighted_inner)
from optapprox.errors import BackendMismatchError, ZeroAtOriginError
from optapprox.spaces import _GRAM_BLOCK, _product, gram_matrices, gram_numerators

from conftest import random_poly


class TestInner:
    def test_one_minus_z_norm(self):
        assert inner(Series.exact([1, -1]), Series.exact([1, -1]), 0) == \
            ExactComplex(2)

    def test_overlap_only(self):
        assert inner(Series.exact([1, -1]), Series.exact([0, 1, -1]), 0) == \
            ExactComplex(-1)

    def test_zero_function(self):
        assert inner(Series.exact([1, 2]), Series.exact([0, 0]), 3) == \
            ExactComplex(0)

    def test_exact_non_integer_alpha_rejected(self):
        with pytest.raises(BackendMismatchError):
            inner(Series.exact([1]), Series.exact([1]), 0.5)


class TestNormSq:
    def test_dirichlet_weight(self):
        assert norm_sq(Series.exact([1, -1]), 1) == Fraction(3)

    def test_negative_alpha_exact(self):
        f = Series.exact([0, 1, 3, 3, 1])
        assert norm_sq(f, -2) == \
            Fraction(1, 4) + Fraction(9, 9) + Fraction(9, 16) + Fraction(1, 25)
        assert norm_sq(f, -2) == Fraction(741, 400)

    def test_constant(self):
        for alpha in (-2, 0, 3):
            assert norm_sq(Series.exact([1]), alpha) == Fraction(1)

    def test_float_matches_exact(self):
        f_exact = Series.exact([1, 3, 3, 1])
        f_float = f_exact.to_float()
        for alpha in (-2, -0.5, 0, 0.5, 2):
            if float(alpha) == int(alpha):
                ref = float(norm_sq(f_exact, int(alpha)))
            else:
                ref = sum((k + 1) ** alpha * abs(c) ** 2
                          for k, c in enumerate([1, 3, 3, 1]))
            assert norm_sq(f_float, alpha) == pytest.approx(ref, rel=1e-14)


class TestShiftedInner:
    def test_diagonal_is_norm(self):
        f = Series.exact([1, 2, 3])
        for alpha in (-1, 0, 2):
            assert shifted_inner(f, 0, 0, alpha) == \
                ExactComplex(norm_sq(f, alpha))

    def test_one_minus_z_offdiagonal(self):
        assert shifted_inner(Series.exact([1, -1]), 0, 1, 0) == ExactComplex(-1)

    def test_binomial_cube_bergman2(self):
        assert shifted_inner(Series.exact([1, 3, 3, 1]), 0, 1, -2) == \
            ExactComplex(Fraction(31, 16))

    def test_agrees_with_materialized_shifts(self, rng):
        for _ in range(10):
            f = random_poly(rng, 6)
            for (j, l) in ((0, 0), (1, 0), (2, 3), (4, 1)):
                for alpha in (-2, -0.5, 0, 1):
                    direct = shifted_inner(f, j, l, alpha)
                    ref = inner(shift(f, j), shift(f, l), alpha)
                    assert direct == pytest.approx(ref, rel=1e-13, abs=1e-13)


class TestGram:
    def test_one_minus_z(self):
        sys = gram(Series.exact([1, -1]), 1, 0)
        assert sys.matrix == ((ExactComplex(2), ExactComplex(-1)),
                              (ExactComplex(-1), ExactComplex(2)))
        assert sys.tail_error_bound == 0.0

    def test_monomial_weights_diagonal(self):
        for alpha in (-1, 0, 2):
            sys = gram(Series.exact([1]), 2, alpha)
            expected = tuple(
                tuple(ExactComplex(Fraction(k + 1) ** alpha) if k == l
                      else ExactComplex(0) for l in range(3))
                for k in range(3))
            assert sys.matrix == expected

    def test_binomial_cube_bergman2(self):
        sys = gram(Series.exact([1, 3, 3, 1]), 1, -2)
        assert sys.matrix == (
            (ExactComplex(Fraction(69, 16)), ExactComplex(Fraction(31, 16))),
            (ExactComplex(Fraction(31, 16)), ExactComplex(Fraction(741, 400))))

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ZeroAtOriginError):
            gram(Series.exact([0, 1]), 1, 0)

    def test_tail_bound_positive_for_truncated_series(self):
        coeffs = 0.9 ** np.arange(200)
        f = Series.from_complex(coeffs, is_exact_polynomial=False)
        sys = gram(f, 2, 0)
        assert sys.tail_error_bound > 0.0
        # the bound dominates the actual truncation error of each entry
        full = Series.from_complex(0.9 ** np.arange(2000),
                                   is_exact_polynomial=False)
        err = max(abs(shifted_inner(f, k, l, 0) - shifted_inner(full, k, l, 0))
                  for k in range(3) for l in range(3))
        assert err <= 10 * sys.tail_error_bound


class TestWeightedInner:
    def test_reduces_to_norm(self):
        assert weighted_inner(Series.exact([1]), Series.exact([1]),
                              Series.exact([1, -1]), 0) == ExactComplex(2)

    def test_monomial_pair(self):
        assert weighted_inner(Series.exact([1]), Series.exact([0, 1]),
                              Series.exact([1, -1]), 0) == ExactComplex(-1)

    def test_consistency_with_shifted_inner(self, rng):
        z = Series.from_complex([0.0, 1.0])
        for _ in range(5):
            f = random_poly(rng, 5)
            for alpha in (-1, 0, 0.5):
                assert weighted_inner(z, z, f, alpha) == \
                    pytest.approx(shifted_inner(f, 1, 1, alpha), rel=1e-13)


# -- properties ----------------------------------------------------------

def test_hermitian_symmetry_and_cauchy_schwarz(rng):
    for _ in range(30):
        f = random_poly(rng, 8)
        g = random_poly(rng, 8)
        for alpha in (-2, -0.5, 0, 1.5):
            fg = inner(f, g, alpha)
            gf = inner(g, f, alpha)
            assert fg == pytest.approx(np.conj(gf), abs=1e-14 * (1 + abs(fg)))
            assert abs(fg) ** 2 <= norm_sq(f, alpha) * norm_sq(g, alpha) * (1 + 1e-12)


coeff_pairs = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@settings(max_examples=40)
@given(st.lists(coeff_pairs, min_size=1, max_size=6),
       st.lists(coeff_pairs, min_size=1, max_size=6),
       st.sampled_from([-2, -1, 0, 1, 2]))
def test_hermitian_symmetry_exact(fc, gc, alpha):
    f, g = Series.exact(fc), Series.exact(gc)
    assert inner(f, g, alpha) == inner(g, f, alpha).conjugate()


def test_gram_positive_definite(rng):
    from optapprox.linsolve import det_exact

    for _ in range(10):
        coeffs = [(int(a), int(b)) for a, b in
                  zip(rng.integers(-4, 5, 5), rng.integers(-4, 5, 5))]
        coeffs[0] = (int(rng.integers(1, 5)), 0)
        f = Series.exact(coeffs)
        for alpha in (-2, 0, 1):
            M = gram(f, 3, alpha).matrix
            # all leading principal minors positive
            for m in range(1, 5):
                sub = tuple(row[:m] for row in M[:m])
                d = det_exact(sub)
                assert d.im == 0 and d.re > 0
        fl = f.to_float()
        for alpha in (-0.5, 0.5):
            Mf = np.asarray(gram(fl, 3, alpha).matrix)
            assert np.linalg.eigvalsh(Mf).min() > 0


def test_norm_shift_bounds(rng):
    for _ in range(20):
        F = random_poly(rng, 8, min_f0=0.0)
        for alpha in (0, 0.5, 1, 2):
            assert norm_sq(shift(F, 1), alpha) >= norm_sq(F, alpha) * (1 - 1e-12)
        for alpha in (-2, -1, -0.5):
            assert norm_sq(shift(F, 1), alpha) >= \
                2.0 ** alpha * norm_sq(F, alpha) * (1 - 1e-12)


# -- the float Gram kernel F^H W F against single shifted inner products ----

GRAM_ALPHAS = (-2, -1.5, -0.5, 0, 0.5, 1, 2)


def assert_gram_matches_shifted_inner(f, n, alpha):
    G = gram_matrix(f, n, alpha)
    R = np.array([[shifted_inner(f, k, l, alpha) for l in range(n + 1)]
                  for k in range(n + 1)])
    # relative to the Cauchy-Schwarz size sqrt(M_kk M_ll) of each entry, so
    # that entries with cancellation are held to the accuracy of their terms
    d = R.diagonal().real
    assert np.all(np.abs(G - R) <= 1e-13 * np.sqrt(np.outer(d, d)))
    assert G.dtype == np.complex128 and not G.flags.writeable
    assert np.array_equal(G, G.conj().T)
    assert np.all(G.diagonal().imag == 0)


def eta_series(eta, M):
    return realize(FunctionSpec("eta_family", {"eta": eta, "truncation": M},
                                "float"))


def blaschke_series(lam, M):
    return realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": M},
                                "float"))


@pytest.mark.parametrize("rows, inner, cols", [
    (41, 5000, 41),     # column pieces of 38
    (5, 7, 3),          # one piece
    (300, 300, 300),    # rows beyond one piece: row pieces of one row
    (300, 120, 200),    # row pieces of two rows
])
def test_product_in_pieces(rng, rows, inner, cols):
    A = rng.normal(size=(rows, inner)) + 1j * rng.normal(size=(rows, inner))
    B = rng.normal(size=(inner, cols)) - 1j * rng.normal(size=(inner, cols))
    acc = rng.normal(size=(rows, cols)) + 0j
    want = A @ B
    np.testing.assert_allclose(_product(A, B), want, rtol=0, atol=1e-12 * inner)
    np.testing.assert_allclose(_product(A.real, B), A.real @ B, rtol=0, atol=1e-12 * inner)
    got = _product(A, B, acc.copy())
    np.testing.assert_allclose(got, acc + want, rtol=0, atol=1e-12 * inner)


class TestFloatGramKernel:
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_random_polynomials(self, rng, complex_coeffs):
        for _ in range(4):
            f = random_poly(rng, 8, complex_coeffs=complex_coeffs)
            for n in (0, 2, len(f) - 1, len(f) + 4):   # below and above len(f)
                for alpha in GRAM_ALPHAS:
                    assert_gram_matches_shifted_inner(f, n, alpha)

    @pytest.mark.parametrize("f", [
        eta_series(0.8, 3000), eta_series(0.3, 500),
        blaschke_series(0.5 + 0.3j, 3000), blaschke_series(-0.9, 200),
    ], ids=["eta-0.8", "eta-0.3", "blaschke-complex", "blaschke-real"])
    def test_truncated_series(self, f):
        for n in (1, 6):
            for alpha in GRAM_ALPHAS:
                assert_gram_matches_shifted_inner(f, n, alpha)

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_block_edges(self, complex_coeffs):
        # F has len(f) + n rows; cover row counts and series lengths next
        # to one and two blocks
        n = 3
        rng = np.random.default_rng(7)
        lengths = (_GRAM_BLOCK - n - 1, _GRAM_BLOCK - n, _GRAM_BLOCK - n + 1,
                   _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                   2 * _GRAM_BLOCK + n)
        for length in lengths:
            c = rng.standard_normal(length)
            if complex_coeffs:
                c = c + 1j * rng.standard_normal(length)
            f = Series.from_complex(c, is_exact_polynomial=False)
            for alpha in (-1.5, 0, 2):
                assert_gram_matches_shifted_inner(f, n, alpha)

    def test_products_split_into_pieces(self, rng):
        # n = 130 sums each block's product from pieces of a few rows
        for complex_coeffs in (False, True):
            f = random_poly(rng, 6, complex_coeffs=complex_coeffs)
            for alpha in (-1.5, 0.5):
                assert_gram_matches_shifted_inner(f, 130, alpha)

    def test_real_coefficients_give_real_matrix(self):
        G = gram_matrix(eta_series(0.5, 1000), 4, 0.5)
        assert G.dtype == np.complex128 and not G.flags.writeable
        assert np.all(G.imag == 0)

    def test_first_zero_is_the_shifted_inner_ratio(self, rng):
        fs = [random_poly(rng, 6, complex_coeffs=c) for c in (False, True)]
        fs += [eta_series(0.8, 20000), blaschke_series(0.4 - 0.2j, 2000)]
        for f in fs:
            for alpha in GRAM_ALPHAS:
                if alpha == 0 and f is fs[-1]:
                    continue  # <B, zB>_0 = 0 for a Blaschke factor: noise / noise
                ref = shifted_inner(f, 1, 1, alpha) / shifted_inner(f, 0, 1, alpha)
                assert complex(first_zero(f, alpha)) == pytest.approx(ref, rel=1e-13)

    def test_first_zero_of_large_function(self):
        # Gram entries near 1e200 are finite, but their product is not
        f = Series.from_complex([1e100, 5e99])
        for alpha in GRAM_ALPHAS:
            ref = shifted_inner(f, 1, 1, alpha) / shifted_inner(f, 0, 1, alpha)
            assert complex(first_zero(f, alpha)) == pytest.approx(ref, rel=1e-13)


# -- the exact Gram band as integer numerators, against shifted_inner -------

# mixed denominators, so that the common denominator is a real lcm
exact_parts = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def exact_polynomials(draw):
    """Exact polynomials of degree <= 3 with real or Gaussian-rational
    coefficients (zero ones included)."""
    im = exact_parts if draw(st.booleans()) else st.just(Fraction(0))
    coeffs = draw(st.lists(st.builds(ExactComplex, exact_parts, im), min_size=1, max_size=4))
    return Series(tuple(coeffs), True)


@settings(max_examples=80, deadline=None)
@given(exact_polynomials(), st.integers(-3, 3), st.data())
def test_gram_numerators_match_shifted_inner(f, alpha, data):
    d = max(len(f) - 1, 0)
    n = data.draw(st.integers(0, 3 * d + 2))
    N = gram_numerators(f, n, alpha)
    assert len(N.rows) == n + 1
    for k in range(n + 1):
        for l in range(n + 1):
            x = N.rows[k].get(l, (0, 0) if N.gaussian else 0)
            re, im = x if N.gaussian else (x, 0)
            assert ExactComplex(Fraction(re, N.denominator), Fraction(im, N.denominator)) \
                == shifted_inner(f, k, l, alpha)
            if abs(k - l) > d:
                assert l not in N.rows[k]   # outside the band: an exact zero, not stored
    assert gram_matrix(f, n, alpha) == tuple(
        tuple(shifted_inner(f, k, l, alpha) for l in range(n + 1)) for k in range(n + 1))


def test_gram_numerators_denominator():
    # f = (1/2 + z/3): c = 6; alpha = -2 over m = 0..3: W = lcm(1, 4, 9, 16) = 144
    N = gram_numerators(Series.exact(["1/2", "1/3"]), 2, -2)
    assert N.denominator == 36 * 144 and not N.gaussian
    # G_00 = 1/4 + 1/36, G_01 = (1/3)(1/2)/4 = 1/24
    assert Fraction(N.rows[0][0], N.denominator) == Fraction(1, 4) + Fraction(1, 36)
    assert Fraction(N.rows[0][1], N.denominator) == Fraction(1, 24)
    assert 2 not in N.rows[0]


def test_gram_numerators_need_the_exact_backend():
    with pytest.raises(BackendMismatchError):
        gram_numerators(Series.from_complex([1.0, 0.5]), 2, 0)
    with pytest.raises(BackendMismatchError):
        gram_numerators(Series.exact([1, 1]), 2, 0.5)


# -- one pass over a block-generated series, with its half truncation -------

def _stored(f, degree=None):
    """The coefficients 0..degree of f as a stored float series."""
    c = np.asarray(f.coeffs)
    return Series.from_complex(c if degree is None else c[: degree + 1],
                               is_exact_polynomial=False)


@pytest.mark.parametrize("kind", ["eta", "blaschke"])
@pytest.mark.parametrize("length", [_GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                                    2 * _GRAM_BLOCK + 3])
def test_block_series_gram_matches_stored(kind, length):
    # the eta family is real, the Blaschke factor complex; H is placed
    # next to the block edges too
    f = (eta_series(0.7, length - 1) if kind == "eta"
         else blaschke_series(0.9995 * np.exp(0.4j), length - 1))
    stored = _stored(f)
    for n in (0, 1, 6, 30):
        for alpha in (-1.5, 0, 1):
            G = gram_matrix(f, n, alpha)
            assert np.array_equal(G, gram_matrix(stored, n, alpha))
            if n in (1, 30) and length > _GRAM_BLOCK:
                assert_gram_matches_shifted_inner(f, n, alpha)
            for H in (n + 1, _GRAM_BLOCK - n - 1, _GRAM_BLOCK - 1, _GRAM_BLOCK,
                      length - 2):
                if H >= length - 1:
                    continue
                G_full, G_H = gram_matrices(f, n, alpha, H)
                assert np.array_equal(G_full, G)
                ref = gram_matrix(_stored(f, H), n, alpha)
                d = np.sqrt(np.outer(ref.diagonal().real, ref.diagonal().real))
                assert np.all(np.abs(G_H - ref) <= 1e-13 * d)


@pytest.mark.parametrize("f, n, alpha", [
    (eta_series(0.8, 10 ** 4), 1, -1),
    (eta_series(0.3, 3 * 10 ** 4), 6, 0),
    (eta_series(0.2, 2 * 10 ** 4), 8, 0.5),
    (blaschke_series(0.4 - 0.6j, 5 * 10 ** 4), 25, 0),
    (blaschke_series(-0.9, 40), 30, -2),   # the half truncation is at n + 1
])
def test_tail_is_the_two_truncation_difference(f, n, alpha):
    H = max(n + 1, (len(f) - 1) // 2)
    want = np.max(np.abs(gram_matrix(_stored(f), n, alpha)
                         - gram_matrix(_stored(f, H), n, alpha)))
    assert gram(f, n, alpha).tail_error_bound == pytest.approx(want, rel=1e-12, abs=1e-12)
