"""Coefficient-vector arithmetic: evaluation, convolution, shift, reflect."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optapprox import (ExactComplex, Series, poly_add, poly_eval, poly_mul,
                       poly_sub, reflect, scale, shift)
from optapprox.errors import BackendMismatchError, InvalidReflectionDegreeError
from optapprox.exact import abs_sq

from conftest import exact_gauss_solve


class TestPolyEval:
    def test_root_of_one_minus_z(self):
        p = Series.exact([1, -1])
        assert poly_eval(p, 1) == ExactComplex(0)

    def test_degree_one_approximant_root(self):
        # Independent oracle: solve the 2x2 Gram system for f = 1-z at
        # alpha = 0 with naive Gaussian elimination, then confirm the
        # resulting polynomial vanishes at -2.
        M = ((ExactComplex(2), ExactComplex(-1)),
             (ExactComplex(-1), ExactComplex(2)))
        rhs = (ExactComplex(1), ExactComplex(0))
        c = exact_gauss_solve(M, rhs)
        assert c == [ExactComplex(Fraction(2, 3)), ExactComplex(Fraction(1, 3))]
        p = Series.exact([Fraction(2, 3), Fraction(1, 3)])
        assert poly_eval(p, -2) == ExactComplex(0)

    def test_constant(self):
        p = Series.exact([1])
        for z in (0, 5, Fraction(-7, 3)):
            assert poly_eval(p, z) == ExactComplex(1)

    def test_float_backend(self):
        p = Series.from_complex([1.0, 2.0, 3.0])
        assert poly_eval(p, 2.0) == pytest.approx(1 + 4 + 12)


class TestPolyMul:
    def test_difference_of_squares(self):
        out = poly_mul(Series.exact([1, -1]), Series.exact([1, 1]))
        assert tuple(out.coeffs) == tuple(Series.exact([1, 0, -1]).coeffs)

    def test_binomial_cube(self):
        one_plus_z = Series.exact([1, 1])
        out = poly_mul(poly_mul(one_plus_z, one_plus_z), one_plus_z)
        assert tuple(out.coeffs) == tuple(Series.exact([1, 3, 3, 1]).coeffs)

    def test_approximant_times_function(self):
        p = Series.exact([Fraction(2, 3), Fraction(1, 3)])
        out = poly_mul(p, Series.exact([1, -1]))
        expected = Series.exact([Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)])
        assert tuple(out.coeffs) == tuple(expected.coeffs)

    def test_truncation_degree(self):
        out = poly_mul(Series.exact([1, 2, 3]), Series.exact([4, 5]))
        assert len(out) == 4

    def test_backend_mismatch_raises(self):
        with pytest.raises(BackendMismatchError):
            poly_mul(Series.exact([1]), Series.from_complex([1.0]))


class TestShift:
    def test_by_one(self):
        out = shift(Series.exact([1, -1]), 1)
        assert tuple(out.coeffs) == tuple(Series.exact([0, 1, -1]).coeffs)

    def test_identity(self):
        p = Series.exact([1, 2, 3])
        assert shift(p, 0) is p

    def test_monomial(self):
        out = shift(Series.exact([1]), 3)
        assert tuple(out.coeffs) == tuple(Series.exact([0, 0, 0, 1]).coeffs)


class TestReflect:
    def test_coefficient_reversal_with_conjugation(self):
        p = Series.exact([(1, 2), (3, -4), (5, 0)])
        out = reflect(p, 2)
        assert tuple(out.coeffs) == (ExactComplex(5), ExactComplex(3, 4),
                                     ExactComplex(1, -2))

    def test_constant_self_reflected(self):
        out = reflect(Series.exact([1]), 0)
        assert tuple(out.coeffs) == (ExactComplex(1),)

    def test_degree_one(self):
        out = reflect(Series.exact([Fraction(2, 3), Fraction(1, 3)]), 1)
        assert tuple(out.coeffs) == (ExactComplex(Fraction(1, 3)),
                                     ExactComplex(Fraction(2, 3)))

    def test_degree_too_small_raises(self):
        with pytest.raises(InvalidReflectionDegreeError):
            reflect(Series.exact([1, 2, 3]), 1)

    def test_padding_above_degree(self):
        out = reflect(Series.exact([1, 2]), 3)
        assert tuple(out.coeffs) == tuple(Series.exact([0, 0, 2, 1]).coeffs)


class TestDegree:
    def test_trailing_zeros_ignored(self):
        assert Series.exact([1, 2, 0, 0]).degree == 1

    def test_zero_series(self):
        assert Series.exact([0, 0]).degree == -1
        assert Series.exact([0]).is_zero

    def test_float_noise_below_epsilon(self):
        assert Series.from_complex([1.0, 1e-13]).degree == 0

    def test_float_threshold_shrinks_with_a_polynomial_below_unit_scale(self):
        assert Series.from_complex([1e-12, -5e-13, 2e-13]).degree == 2
        assert Series.from_complex([1e-12, -5e-13, 1e-19]).degree == 2
        assert Series.from_complex([1e-12, -5e-13, 5e-24]).degree == 1
        assert Series.from_complex([0.03, 1e-10, 5e-12]).degree == 1
        assert Series.from_complex([1.0, 1e200, np.inf]).degree == 2
        assert Series.from_complex([0.0, 0.0]).degree == -1


# -- properties ----------------------------------------------------------

coeff_ints = st.integers(min_value=-9, max_value=9)


@given(st.lists(coeff_ints, min_size=1, max_size=8),
       st.lists(coeff_ints, min_size=1, max_size=8),
       coeff_ints)
def test_eval_mul_homomorphism_exact(pc, qc, z):
    p, q = Series.exact(pc), Series.exact(qc)
    assert poly_eval(poly_mul(p, q), z) == poly_eval(p, z) * poly_eval(q, z)


@settings(max_examples=50)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=51),
       st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=51),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_eval_mul_homomorphism_float(pc, qc, z):
    p, q = Series.from_complex(pc), Series.from_complex(qc)
    lhs = poly_eval(poly_mul(p, q), z)
    rhs = poly_eval(p, z) * poly_eval(q, z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(st.lists(st.tuples(coeff_ints, coeff_ints), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=4))
def test_reflect_involution_and_isometry(pairs, extra):
    p = Series.exact(pairs)
    n = max(p.degree, 0) + extra
    once = reflect(p, n)
    twice = reflect(once, n)
    assert tuple(twice[k] for k in range(n + 1)) == \
        tuple(p[k] for k in range(n + 1))
    moduli = sorted(abs_sq(p[k]) for k in range(n + 1))
    assert moduli == sorted(map(abs_sq, once.coeffs))


def test_reflect_reciprocates_roots(rng):
    for _ in range(20):
        deg = int(rng.integers(1, 8))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = Series.from_complex(c)
        roots = np.roots(c[::-1])
        refl = reflect(p, deg)
        scale = float(np.max(np.abs(c)))
        for zeta in roots:
            if abs(zeta) < 1e-8:
                continue
            assert abs(poly_eval(refl, 1.0 / np.conj(zeta))) <= \
                1e-9 * scale * max(1.0, abs(1.0 / zeta)) ** deg


def test_exact_scalar_and_object_array_commute():
    # an operand ExactComplex cannot coerce gives NotImplemented, so numpy
    # applies the operation elementwise from either side
    g = ExactComplex(Fraction(2, 3), -1)
    arr = np.array([ExactComplex(1), ExactComplex(Fraction(-1, 2), 3), ExactComplex(0, 5)],
                   dtype=object)
    assert all(g * arr == arr * g)
    assert list(g * arr) == [g * x for x in arr]
    assert list(g + arr) == [g + x for x in arr] and list(g - arr) == [g - x for x in arr]
    assert list(g / arr) == [g / x for x in arr]
    with pytest.raises(TypeError, match="float complex"):
        g * 1j


# -- one body per operation, for both backends ---------------------------

gauss = st.tuples(*[st.fractions(-9, 9, max_denominator=9)] * 2)
gauss_lists = st.lists(gauss, min_size=1, max_size=6)

OPERATIONS = {
    "poly_mul": lambda p, q, c, k: poly_mul(p, q),
    "poly_add": lambda p, q, c, k: poly_add(p, q),
    "poly_sub": lambda p, q, c, k: poly_sub(p, q),
    "scale": lambda p, q, c, k: scale(p, c),
    "shift": lambda p, q, c, k: shift(p, k),
    "reflect": lambda p, q, c, k: reflect(p, len(p) - 1 + k),
}


@given(gauss_lists, gauss_lists, gauss, st.integers(min_value=0, max_value=3))
def test_exact_and_float_bodies_agree(pc, qc, c, k):
    p, q, c = Series.exact(pc), Series.exact(qc), ExactComplex(*c)
    for name, op in OPERATIONS.items():
        exact, fl = op(p, q, c, k), op(p.to_float(), q.to_float(), c, k)
        for out, backend in ((exact, "exact"), (fl, "float")):
            assert out.backend == backend, name
            assert not out.coeffs.flags.writeable, name
        expected = exact.to_float().coeffs
        assert len(fl) == len(expected), name
        assert np.abs(fl.coeffs - expected).max() <= 1e-12 * np.abs(expected).max(), name


@given(gauss_lists, st.integers(min_value=0, max_value=4))
def test_product_with_a_monomial_is_a_shift(pc, k):
    p = Series.exact(pc)
    monomial = Series.exact([0] * k + [1])
    for pp, zk in ((p, monomial), (p.to_float(), monomial.to_float())):
        assert list(poly_mul(pp, zk).coeffs) == list(shift(pp, k).coeffs)


@given(gauss_lists, st.integers(min_value=0, max_value=3))
def test_reflect_undoes_itself(pc, extra):
    p = Series.exact(pc)
    n = len(p) - 1 + extra
    for pp in (p, p.to_float()):
        twice = reflect(reflect(pp, n), n)
        assert list(twice.coeffs) == list(pp.coeffs) + [pp.scalar(0)] * extra


def test_series_from_a_tuple_is_read_only_and_keeps_its_backend():
    exact = Series((ExactComplex(1), ExactComplex(0, -2)))
    fl = Series((1 + 0j, -2j))
    assert (exact.backend, fl.backend) == ("exact", "float")
    assert fl.coeffs.dtype == np.complex128
    for p in (exact, fl):
        assert not p.coeffs.flags.writeable
        with pytest.raises(ValueError):
            p.coeffs[0] = p.scalar(5)


def test_from_complex_leaves_the_callers_array_writable():
    a = np.array([1 + 2j, -3.0, 0.5j])
    p = Series.from_complex(a)
    a[0] = 7
    assert a[0] == 7
    assert p.coeffs.tolist() == [1 + 2j, -3.0, 0.5j]
    assert not p.coeffs.flags.writeable
