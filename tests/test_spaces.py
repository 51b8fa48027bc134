"""Inner products, norms, shifted inner products and Gram assembly."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optapprox import (ExactComplex, FunctionSpec, Series, first_zero,
                       gram_matrix, inner, norm_sq, realize, shift,
                       shifted_inner, truncation_error, weighted_inner)
from optapprox.errors import (BackendMismatchError, ConditioningError,
                              SpecValidationError, ZeroAtOriginError)
from optapprox import families
from optapprox.families import _eta_head
from optapprox.linsolve import _product
from optapprox.spaces import _f0_nonzero
from optapprox.zeros import _first_zero_of

from conftest import (FIXED_BITS, blaschke_fixed_point, cofactor_det, eta_fixed_point,
                      random_poly)


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
        f = Series.exact([1, -1])
        assert gram_matrix(f, 1, 0).to_exact() == ((ExactComplex(2), ExactComplex(-1)),
                                                   (ExactComplex(-1), ExactComplex(2)))
        assert truncation_error(f, 1, 0) == 0.0

    def test_monomial_weights_diagonal(self):
        for alpha in (-1, 0, 2):
            G = gram_matrix(Series.exact([1]), 2, alpha)
            expected = tuple(
                tuple(ExactComplex(Fraction(k + 1) ** alpha) if k == l
                      else ExactComplex(0) for l in range(3))
                for k in range(3))
            assert G.to_exact() == expected

    def test_binomial_cube_bergman2(self):
        assert gram_matrix(Series.exact([1, 3, 3, 1]), 1, -2).to_exact() == (
            (ExactComplex(Fraction(69, 16)), ExactComplex(Fraction(31, 16))),
            (ExactComplex(Fraction(31, 16)), ExactComplex(Fraction(741, 400))))

    def test_zero_at_origin_rejected(self):
        # f(0) == 0 exactly, in either backend; a tiny nonzero float f(0)
        # is accepted (see test_cli_contract's scaling test)
        for f in (Series.exact([0, 1]), Series.from_complex([0.0, 1.0]),
                  Series.from_complex([-0.0, 1e-12])):
            with pytest.raises(ZeroAtOriginError):
                _f0_nonzero(f)

    def test_float_squares_below_the_normal_range_rejected(self):
        # |f(0)|^2 = 1e-310, and a Gram matrix of entries near 1e-320
        with pytest.raises(ConditioningError, match=r"\|f\(0\)\|\^2 is below"):
            _f0_nonzero(Series.from_complex([1e-155, 1.0]))
        with pytest.raises(ConditioningError, match="Gram matrix lies below"):
            gram_matrix(Series.from_complex([1e-160, 5e-161]), 1, -1)

    def test_tail_bound_positive_for_truncated_series(self):
        f = blaschke_series(0.99, 199)
        bound = truncation_error(f, 2, 0)
        assert bound > 0.0
        # the bound dominates the actual truncation error of each entry
        full = blaschke_series(0.99, 1999)
        err = max(abs(shifted_inner(f, k, l, 0) - shifted_inner(full, k, l, 0))
                  for k in range(3) for l in range(3))
        assert err <= bound


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
    for _ in range(10):
        coeffs = [(int(a), int(b)) for a, b in
                  zip(rng.integers(-4, 5, 5), rng.integers(-4, 5, 5))]
        coeffs[0] = (int(rng.integers(1, 5)), 0)
        f = Series.exact(coeffs)
        for alpha in (-2, 0, 1):
            M = gram_matrix(f, 3, alpha).to_exact()
            # all leading principal minors positive
            for m in range(1, 5):
                sub = tuple(row[:m] for row in M[:m])
                d = cofactor_det(sub)
                assert d.im == 0 and d.re > 0
        fl = f.to_float()
        for alpha in (-0.5, 0.5):
            Mf = np.asarray(gram_matrix(fl, 3, alpha))
            assert np.linalg.eigvalsh(Mf).min() > 0


def test_norm_shift_bounds(rng):
    for _ in range(20):
        F = random_poly(rng, 8, min_f0=0.0)
        for alpha in (0, 0.5, 1, 2):
            assert norm_sq(shift(F, 1), alpha) >= norm_sq(F, alpha) * (1 - 1e-12)
        for alpha in (-2, -1, -0.5):
            assert norm_sq(shift(F, 1), alpha) >= \
                2.0 ** alpha * norm_sq(F, alpha) * (1 - 1e-12)


# -- the float Gram band against single shifted inner products ------------

_GRAM_BLOCK = 1 << 14   # the block edges of an earlier blocked Gram pass

GRAM_ALPHAS = (-2, -1.5, -0.5, 0, 0.5, 1, 2)


def assert_entries_close(G, R):
    # relative to the Cauchy-Schwarz size sqrt(M_kk M_ll) of each entry, so
    # that entries with cancellation are held to the accuracy of their terms
    d = R.diagonal().real
    assert np.all(np.abs(G - R) <= 1e-13 * np.sqrt(np.outer(d, d)))


def shifted_inner_gram(f, n, alpha):
    # every entry from one shifted_inner: a pairwise sum over every row
    R = np.empty((n + 1, n + 1), dtype=np.complex128)
    for k in range(n + 1):
        for l in range(k, n + 1):
            R[k, l] = shifted_inner(f, k, l, alpha)
            R[l, k] = np.conj(R[k, l])
    return R


def assert_gram_matches_shifted_inner(f, n, alpha, ref=None):
    # ref: the series of f's function to read the inner products from
    ref = f if ref is None else ref
    G = gram_matrix(f, n, alpha)
    assert_entries_close(G, shifted_inner_gram(ref, n, alpha))
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
    (41, 5000, 41),     # blocks of 38 of the inner dimension
    (5, 7, 3),          # one piece
    (300, 300, 300),    # output beyond one piece: tiles of 20 x 20, inner blocks of 160
    (257, 1000, 257),   # a Gram product past order 255: the same
    (300, 120, 200),    # tiles of 23 x 23
    (238, 63, 238),     # a short inner dimension: tiles of 32 x 32
    (61, 61, 240),      # tiles of 32 x 33
    (240, 61, 61),      # inner as long as B is wide: blocks of 4 of it
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


class _Pieces(np.ndarray):
    """An array that records the multiply-adds of every product it is the
    left factor of."""

    macs = []

    def __matmul__(self, other):
        self.macs.append(self.shape[0] * self.shape[1] * other.shape[1])
        return np.asarray(self) @ other


@pytest.mark.parametrize("rows, inner, cols", [
    (41, 5000, 41), (300, 300, 300), (300, 120, 200), (238, 63, 238), (61, 61, 240),
    (240, 61, 61), (61, 183, 118), (101, 107, 101), (64, 64, 64), (2, 16384, 2),
    (257, 1000, 257),
])
def test_product_pieces_stay_below_the_threading_size(rng, rows, inner, cols):
    # OpenBLAS threads a product of 2^16 multiply-adds (64 x 16 x 64) and more
    A = rng.normal(size=(rows, inner)).view(_Pieces)
    B = rng.normal(size=(inner, cols))
    _Pieces.macs = []
    np.testing.assert_allclose(_product(A, B), np.asarray(A) @ B, rtol=0, atol=1e-12 * inner)
    assert _Pieces.macs and max(_Pieces.macs) < 1 << 16
    assert sum(_Pieces.macs) == rows * inner * cols


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
        # series lengths next to the row counts that were one and two blocks
        n = 3
        rng = np.random.default_rng(7)
        lengths = (_GRAM_BLOCK - n - 1, _GRAM_BLOCK - n, _GRAM_BLOCK - n + 1,
                   _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                   2 * _GRAM_BLOCK + n)
        for length in lengths:
            c = rng.standard_normal(length)
            if complex_coeffs:
                c = c + 1j * rng.standard_normal(length)
            f = Series.from_complex(c)
            for alpha in (-1.5, 0, 2):
                assert_gram_matches_shifted_inner(f, n, alpha)

    def test_long_series_gram_in_memory_of_its_length(self, rng):
        # every temporary of the band holds O(len(f)) entries: the peak stays
        # below half of one (n+1) x len(f) complex array (72 MB here)
        M, n = 10 ** 6, 8
        f = Series.from_complex(rng.standard_normal(M) + 1j * rng.standard_normal(M))
        tracemalloc.start()
        try:
            gram_matrix(f, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) * M * 16 // 2

    def test_band_dot_products_stay_on_the_calling_thread(self, rng, monkeypatch):
        # OpenBLAS threads a ddot of more than 10,000 terms, and np.correlate
        # makes one ddot of len(v) terms per output
        terms, correlate = [], np.correlate

        def recorded(a, v, *args):
            terms.append(min(len(a), len(v)))
            return correlate(a, v, *args)

        monkeypatch.setattr(np, "correlate", recorded)
        M = 10 ** 5
        f = Series.from_complex(rng.standard_normal(M) + 1j * rng.standard_normal(M))
        for alpha in (0, 1):
            assert_gram_matches_shifted_inner(f, 4, alpha)
        assert 0 < max(terms) <= 10_000

    def test_products_split_into_pieces(self, rng):
        # n = 130, far past the degree: the band of 7 diagonals
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
                if f is fs[2] and alpha + 2 * 0.8 >= 1:
                    # eta 0.8 is not in D_alpha there: first_zero refuses the
                    # function, and the ratio is that of the truncation's Gram
                    with pytest.raises(SpecValidationError, match="not in D_alpha"):
                        first_zero(f, alpha)
                    z1 = _first_zero_of(gram_matrix(f, 1, alpha), f.backend)
                else:
                    z1 = first_zero(f, alpha)
                assert complex(z1) == pytest.approx(ref, rel=1e-13)

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
    return Series(tuple(coeffs))


@settings(max_examples=80, deadline=None)
@given(exact_polynomials(), st.integers(-3, 3), st.data())
def test_gram_numerators_match_shifted_inner(f, alpha, data):
    d = max(len(f) - 1, 0)
    n = data.draw(st.integers(0, 3 * d + 2))
    N = gram_matrix(f, n, alpha)
    assert len(N.rows) == n + 1
    for k in range(n + 1):
        for l in range(n + 1):
            x = N.rows[k].get(l, (0, 0) if N.gaussian else 0)
            re, im = x if N.gaussian else (x, 0)
            assert ExactComplex(Fraction(re, N.denominator), Fraction(im, N.denominator)) \
                == shifted_inner(f, k, l, alpha)
            if abs(k - l) > d:
                assert l not in N.rows[k]   # outside the band: an exact zero, not stored
    assert N.to_exact() == tuple(
        tuple(shifted_inner(f, k, l, alpha) for l in range(n + 1)) for k in range(n + 1))


def test_gram_numerators_denominator():
    # f = (1/2 + z/3): c = 6; alpha = -2 over m = 0..3: W = lcm(1, 4, 9, 16) = 144
    N = gram_matrix(Series.exact(["1/2", "1/3"]), 2, -2)
    assert N.denominator == 36 * 144 and not N.gaussian
    # G_00 = 1/4 + 1/36, G_01 = (1/3)(1/2)/4 = 1/24
    assert Fraction(N.rows[0][0], N.denominator) == Fraction(1, 4) + Fraction(1, 36)
    assert Fraction(N.rows[0][1], N.denominator) == Fraction(1, 24)
    assert 2 not in N.rows[0]


def test_gram_numerators_need_the_exact_backend():
    with pytest.raises(BackendMismatchError):
        gram_matrix(Series.exact([1, 1]), 2, 0.5)


# -- a truncated family: its head, its far part and the bound on its tail ----

@pytest.mark.parametrize("kind", ["eta", "blaschke"])
@pytest.mark.parametrize("length", [4000, _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                                    2 * _GRAM_BLOCK + 3])
def test_block_series_gram_matches_stored(kind, length):
    # the eta family is real, the Blaschke factor complex.  Past its head
    # an entry takes the rest of its sum in closed form: for eta within
    # 2e-15 of a 28-digit sum (TestEtaFarPart), so it is held to the
    # coefficients of the function correctly rounded: the stored ones, a
    # running float product, drift from those by up to 8e-13 relative at
    # 3.3e4, and an entry at alpha = 1 with them.  A Blaschke factor is held
    # to a sum over every row of its coefficients in fixed point; an eta
    # series within its head is the band of the stored series, byte for
    # byte
    if kind == "eta":
        f = eta_series(0.7, length - 1)
        stored = Series.from_complex(np.asarray(f.coeffs))
        exact = Series.from_complex([a / (1 << FIXED_BITS) for a in eta_fixed_point(0.7, length)])
    else:
        lam = 0.9995 * np.exp(0.4j)
        f = blaschke_series(lam, length - 1)
        exact = Series.from_complex(blaschke_fixed_point(lam, length))
    for alpha in (-1.5, 0, 1):
        R = shifted_inner_gram(exact, 30, alpha) if kind == "blaschke" else None
        for n in (0, 1, 6, 30):
            G = gram_matrix(f, n, alpha)
            if kind == "blaschke":
                assert_entries_close(G, R[:n + 1, :n + 1])
            elif length - 1 > _eta_head(0.7, n):
                assert_entries_close(G, gram_matrix(exact, n, alpha))
                if n in (1, 30) and length > _GRAM_BLOCK:
                    assert_gram_matches_shifted_inner(f, n, alpha, exact)
            else:
                assert np.array_equal(G, gram_matrix(stored, n, alpha))


@pytest.mark.parametrize("lam", [0.3, -0.95, 0.6 - 0.5j, 0.2j, 1e-40, 2e-20j,
                                 pytest.param(0.9995 * np.exp(0.4j), id="0.9995e^0.4j")])
def test_blaschke_far_part_matches_a_sum_over_every_row(lam):
    # the band sums the rows m <= n, the far part those past n in closed form;
    # held to a sum over every row of the coefficients in fixed point, at
    # truncations below and above n.  At alpha = 0 the factor is inner: the
    # Gram matrix of the function is the identity, from which that of the
    # truncation lies within truncation_error, and the band within rounding
    for M in (3, 40, 6000):
        f = blaschke_series(lam, M)
        exact = Series.from_complex(blaschke_fixed_point(lam, M + 1))
        for alpha in (-1, 0, 0.5, 1, 2):
            R = shifted_inner_gram(exact, 10, alpha)
            for n in (1, 6, 10):
                G = gram_matrix(f, n, alpha)
                assert_entries_close(G, R[:n + 1, :n + 1])
                if alpha == 0:
                    assert np.abs(G - np.eye(n + 1)).max() <= truncation_error(f, n, 0) + 1e-15


def test_blaschke_dirichlet_gram_near_the_circle():
    # at alpha = 1 the Gram matrix of a Blaschke factor is G_kk = k + 2 and
    # G_kl = conj(lambda)^(l-k) for l > k (sum_i i |b_i|^2 = 1, and the rows
    # past the first are geometric).  At |lambda| = 1 - 1e-4 the far part
    # sums 3.7e6 terms, in pieces, and what lies past truncation 1e8 is 0.0
    lam = (1 - 1e-4) * np.exp(0.3j)
    k = np.arange(4)
    d = k - k[:, None]
    want = np.where(d > 0, np.conj(lam) ** np.abs(d), lam ** np.abs(d))
    want[k, k] = k + 2
    assert_entries_close(gram_matrix(blaschke_series(lam, 10 ** 8), 3, 1), want)


@pytest.mark.parametrize("M", [10 ** 5, 10 ** 7, 10 ** 12])
def test_eta_gram_cost_does_not_grow_with_the_truncation(monkeypatch, M):
    # the band reads a head of K = _eta_head(eta, n) eta coefficients, or
    # of n + 1 Blaschke ones, and the far parts read none
    counted = []
    for name in ("_eta_coefficients", "_blaschke_coefficients"):
        def counting(*args, rule=getattr(families, name)):
            counted.append(args[-1])
            return rule(*args)
        monkeypatch.setattr(families, name, counting)
    for n, alpha in ((1, -1), (8, 0), (30, 0.5)):
        for f, most in ((eta_series(0.3, M), _eta_head(0.3, n) + n + 1),
                        (blaschke_series(0.99 * np.exp(2j), M), n + 1)):
            counted.clear()
            G = gram_matrix(f, n, alpha)
            assert np.isfinite(G).all() and sum(counted) <= most


def test_eta_head_past_its_limit_is_refused_in_bounded_memory():
    # eta = 1e4 needs a head of 8e8 rows, whose coefficients overflow past
    # index 260: refused before the head is built
    f = eta_series(1e4, 10 ** 9)
    tracemalloc.start()
    try:
        with pytest.raises(ConditioningError, match="past 2\\^24"):
            gram_matrix(f, 1, -2e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_non_finite_far_part_is_conditioning_error():
    # at alpha = 60 the head's entries, near 1e220, are finite, while the
    # far part to 1e7 overflows: refused as an overflowing head is
    assert np.isfinite(gram_matrix(eta_series(0.5, _eta_head(0.5, 1)), 1, 60)).all()
    with pytest.raises(ConditioningError, match="overflows"):
        gram_matrix(eta_series(0.5, 10 ** 7), 1, 60)


@pytest.mark.parametrize("f, n, alpha", [
    (lambda M: eta_series(0.8, M), 1, -1),
    (lambda M: eta_series(1.2, M), 4, -2),      # eta > 1: increasing g_k
    (lambda M: eta_series(0.3, M), 6, 0),
    (lambda M: eta_series(0.2, M), 8, 0.5),
    (lambda M: blaschke_series(0.99j, M), 3, -1),
    (lambda M: blaschke_series(-0.99, M), 5, 0),
    (lambda M: blaschke_series(0.99 * np.exp(1j), M), 10, 2),
], ids=["eta-0.8", "eta-1.2", "eta-0.3", "eta-0.2", "blaschke-bergman",
        "blaschke-hardy", "blaschke-alpha-2"])
def test_truncation_error_bounds_the_entry_change(f, n, alpha):
    # |lambda| = 0.99, so that the Blaschke tail at M = 300 does not underflow
    M = 300
    bound = truncation_error(f(M), n, alpha)
    change = np.max(np.abs(gram_matrix(f(64 * M), n, alpha) - gram_matrix(f(M), n, alpha)))
    assert change <= bound <= 200 * change


@pytest.mark.parametrize("kind, M", [("eta", 64), ("blaschke", 5)])
def test_truncation_error_where_n_reaches_the_truncation(kind, M):
    # K = M - n < 1: the bound is inf or still bounds the entry change
    f = eta_series(0.3, M) if kind == "eta" else blaschke_series(0.99, M)
    longer = eta_series(0.3, 64 * M) if kind == "eta" else blaschke_series(0.99, 64 * M)
    for n in (M - 1, M, M + 1, M + 7):
        for alpha in (-1, 0, 0.3):
            bound = truncation_error(f, n, alpha)
            change = np.max(np.abs(gram_matrix(longer, n, alpha) - gram_matrix(f, n, alpha)))
            assert bound == np.inf or change <= bound
            if n > M:
                assert bound == np.inf
