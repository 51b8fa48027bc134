"""Toeplitz structure, Levinson recursion and the outer-function criterion
(Hardy case, alpha = 0)."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optapprox import (ExactComplex, FunctionSpec, Series, gram_matrix,
                       levinson_solve, optimal, optimal_sweep, outer_criterion,
                       poly_roots, realize, shifted_inner, toeplitz_column)
from optapprox.errors import ZeroAtOriginError

from conftest import dense_poly, levinson_oracle, random_poly

ONE_MINUS_Z = Series.exact([1, -1])


class TestToeplitzColumn:
    def test_one_minus_z(self):
        col = toeplitz_column(ONE_MINUS_Z, 4)
        assert col == (ExactComplex(2), ExactComplex(-1), ExactComplex(0),
                       ExactComplex(0), ExactComplex(0))

    def test_constant(self):
        col = toeplitz_column(Series.exact([1]), 3)
        assert col == (ExactComplex(1),) + (ExactComplex(0),) * 3

    def test_blaschke_delta(self):
        f = realize(FunctionSpec("blaschke", {"lambda": 0.5, "truncation": 4000},
                                 "float"))
        col = toeplitz_column(f, 5)
        assert abs(col[0] - 1.0) <= 1e-10
        assert all(abs(c) <= 1e-10 for c in col[1:])

    def test_consistent_with_gram(self, rng):
        for _ in range(5):
            coeffs = [(int(a), int(b)) for a, b in
                      zip(rng.integers(-3, 4, 5), rng.integers(-3, 4, 5))]
            coeffs[0] = (int(rng.integers(1, 4)), 0)
            f = Series.exact(coeffs)
            col = toeplitz_column(f, 4)
            M = gram_matrix(f, 4, 0).to_exact()
            for k in range(5):
                for l in range(5):
                    expected = col[k - l] if k >= l else col[l - k].conjugate()
                    assert M[k][l] == expected

    def test_matches_shifted_inner(self, rng):
        # the independent reference: equal in the exact backend, within
        # 1e-13 of ||f||^2 in the float one
        for _ in range(5):
            coeffs = [(int(a), int(b)) for a, b in
                      zip(rng.integers(-3, 4, 6), rng.integers(-3, 4, 6))]
            coeffs[0] = (int(rng.integers(1, 4)), 0)
            f = Series.exact(coeffs)
            assert toeplitz_column(f, 8) == tuple(shifted_inner(f, k, 0, 0) for k in range(9))
        fs = [random_poly(rng, 6, complex_coeffs=True) for _ in range(3)]
        fs += [realize(FunctionSpec("eta_family", {"eta": 0.3, "truncation": 3 * 10 ** 4},
                                    "float")),
               realize(FunctionSpec("blaschke", {"lambda": 0.6 - 0.3j, "truncation": 5000},
                                    "float"))]
        for f in fs:
            col = toeplitz_column(f, 8)
            ref = [shifted_inner(f, k, 0, 0) for k in range(9)]
            assert max(abs(a - b) for a, b in zip(col, ref)) <= 1e-13 * ref[0].real
            assert type(col[0]) is complex and col[0].imag == 0.0

    def test_truncated_family_is_not_held_whole(self):
        # the band reads a head of a few thousand of the 1e6 coefficients
        f = realize(FunctionSpec("eta_family", {"eta": 0.3, "truncation": 10 ** 6}, "float"))
        tracemalloc.start()
        try:
            outer_criterion(f, levinson_solve(f, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestLevinsonSolve:
    def test_cesaro_degree_three(self):
        state = levinson_solve(ONE_MINUS_Z, 3)
        expected = [Fraction(1) - Fraction(k + 1, 5) for k in range(4)]
        assert list(state.coeffs.coeffs) == [ExactComplex(e) for e in expected]

    def test_cesaro_gammas(self):
        state = levinson_solve(ONE_MINUS_Z, 6)
        for n, gamma in enumerate(state.gammas):
            assert gamma == ExactComplex(Fraction(-1, n + 2))

    def test_constant(self):
        state = levinson_solve(Series.exact([1]), 4)
        assert list(state.coeffs.coeffs) == \
            [ExactComplex(1)] + [ExactComplex(0)] * 4
        assert all(g == ExactComplex(0) for g in state.gammas)

    def test_zero_at_origin(self):
        with pytest.raises(ZeroAtOriginError):
            levinson_solve(Series.exact([0, 1]), 2)

    def test_matches_direct_solve_exact(self):
        f = Series.exact([2, (1, 1), -1])
        for n in (1, 3, 5):
            lev = levinson_solve(f, n).coeffs
            direct = optimal(f, n, 0).p
            assert tuple(lev.coeffs) == tuple(direct.coeffs)

    def test_matches_direct_solve_random(self, rng):
        for _ in range(10):
            f = random_poly(rng, 8)
            for n in (2, 6, 12):
                lev = np.asarray(levinson_solve(f, n).coeffs.coeffs)
                direct = np.asarray(optimal(f, n, 0).p.coeffs)
                assert np.max(np.abs(lev - direct)) <= 1e-9

    def test_gamma_strictly_inside_disk(self, rng):
        for _ in range(10):
            f = random_poly(rng, 8)
            state = levinson_solve(f, 10)
            for g in state.gammas:
                assert abs(g) < 1.0


_GAUSSIAN_INTEGERS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=30, deadline=None)
@given(st.lists(_GAUSSIAN_INTEGERS, min_size=1, max_size=4).filter(lambda a: a[0] != (0, 0)),
       st.integers(0, 30))
def test_exact_recursion_matches_the_scalar_oracle(coeffs, n):
    # ExactComplex equality compares the Fraction parts exactly
    f = Series.exact(coeffs)
    state = levinson_solve(f, n)
    p, gammas, history = levinson_oracle(f, n)
    assert tuple(state.coeffs.coeffs) == p
    assert state.gammas == gammas
    assert state.history == history


LADDER = (100, 150, 200, 250)   # the degrees of the float-dense levinson cells


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_float_recursion_at_large_degree(degree):
    # within 1e-13 of the scalar oracle, the sum order being all that
    # differs, and within 1e-9 of the Cholesky sweep, relative to max |c|
    f = dense_poly(np.random.default_rng(degree), degree)
    sweep = optimal_sweep(f, LADDER[-1], 0)
    for n in LADDER:
        state = levinson_solve(f, n)
        c = np.asarray(state.coeffs.coeffs)
        p, gammas, history = levinson_oracle(f, n)
        scale = np.abs(p).max()
        assert np.abs(c - p).max() <= 1e-13 * scale
        assert np.abs(np.array(state.gammas) - gammas).max() <= 1e-13
        assert np.abs(np.asarray(state.history[n // 2]) - history[n // 2]).max() <= 1e-13 * scale
        assert np.abs(c - sweep[n].p.coeffs).max() <= 1e-9 * scale
        assert type(state.gammas[0]) is complex


def reflection_coefficients(state):
    """Gamma_m = -c_{m,m} / c_{0,m}, read off the coefficients the
    recursion records at each degree m = 1..n."""
    return tuple(-(row[m] / row[0]) for m, row in enumerate(state.history) if m)


class TestReflectionCoefficients:
    def test_cesaro_ratio(self):
        state = levinson_solve(ONE_MINUS_Z, 5)
        recomputed = reflection_coefficients(state)
        assert recomputed == state.gammas
        assert recomputed[3] == ExactComplex(Fraction(-1, 5))

    def test_inner_function_all_zero(self):
        f = realize(FunctionSpec("blaschke",
                                 {"lambda": 0.3 + 0.4j, "truncation": 4000},
                                 "float"))
        state = levinson_solve(f, 6)
        for g in reflection_coefficients(state):
            assert abs(g) <= 1e-9

    def test_constant_all_zero(self):
        state = levinson_solve(Series.exact([1]), 4)
        assert all(g == ExactComplex(0)
                   for g in reflection_coefficients(state))

    def test_matches_recursion_random(self, rng):
        f = random_poly(rng, 6)
        state = levinson_solve(f, 8)
        recomputed = reflection_coefficients(state)
        for a, b in zip(recomputed, state.gammas):
            assert a == pytest.approx(b, abs=1e-11)


class TestOuterCriterion:
    def test_cesaro_telescoping(self):
        oc = outer_criterion(ONE_MINUS_Z, levinson_solve(ONE_MINUS_Z, 12))
        for n, prod in enumerate(oc.partial_products):
            assert prod == Fraction(n + 3, 2 * (n + 2))
        assert oc.target == ExactComplex(Fraction(1, 2))
        for n, p0 in enumerate(oc.p0_values):
            assert p0 == ExactComplex(Fraction(n + 2, n + 3))

    def test_constant_attains_target(self):
        one = Series.exact([1])
        oc = outer_criterion(one, levinson_solve(one, 5))
        assert all(p == Fraction(1) for p in oc.partial_products)
        assert oc.target == ExactComplex(1)

    def test_blaschke_misses_target(self):
        lam = 0.3 - 0.2j
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 4000},
                                 "float"))
        oc = outer_criterion(f, levinson_solve(f, 8))
        assert all(abs(p - 1.0) <= 1e-9 for p in oc.partial_products)
        assert oc.target == pytest.approx(np.conj(lam), abs=1e-10)
        assert abs(oc.partial_products[-1] - oc.target) > 0.5

    def test_p0_matches_direct(self, rng):
        f = random_poly(rng, 5)
        oc = outer_criterion(f, levinson_solve(f, 6))
        for n, p0 in enumerate(oc.p0_values):
            direct = optimal(f, n + 1, 0).p_at_zero
            assert p0 == pytest.approx(direct, rel=1e-10)


def test_zeros_product_remark(rng):
    # |c_{n,n}/c_{0,n}| equals the product of 1/|zeta| over the roots of p_n
    for _ in range(5):
        f = random_poly(rng, 5)
        for n in (3, 6):
            state = levinson_solve(f, n)
            c = np.asarray(state.coeffs.coeffs)
            p = state.coeffs
            if p.to_float().degree < n:
                continue
            roots = poly_roots(p).roots
            prod = np.prod([1.0 / abs(z) for z in roots])
            assert abs(c[n] / c[0]) == pytest.approx(prod, abs=1e-8, rel=1e-8)
