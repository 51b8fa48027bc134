"""Optimal approximants, distances, determinant route, six equal quantities."""

from fractions import Fraction

import numpy as np
import pytest

from optapprox import (ExactComplex, Series, distance, equal_quantities,
                       gram, norm_sq, optimal, optimal_sweep, poly_mul,
                       pn0_via_determinants, poly_add, scale, shifted_inner)
from optapprox.errors import ConditioningError, ZeroAtOriginError

from conftest import exact_gauss_solve, random_poly


def exact_series(values):
    return tuple(Series.exact(values).coeffs)


ONE_MINUS_Z = Series.exact([1, -1])
CUBE = Series.exact([1, 3, 3, 1])


class TestOptimal:
    def test_cesaro_degree_one(self):
        res = optimal(ONE_MINUS_Z, 1, 0)
        assert tuple(res.p.coeffs) == exact_series([Fraction(2, 3), Fraction(1, 3)])
        assert res.p_at_zero == ExactComplex(Fraction(2, 3))

    def test_binomial_cube_p1(self):
        res = optimal(CUBE, 1, -2)
        assert tuple(res.p.coeffs) == \
            exact_series([Fraction(741, 1694), Fraction(-775, 1694)])

    def test_binomial_cube_p2(self):
        res = optimal(CUBE, 2, -2)
        s = Fraction(961, 1638)
        assert tuple(res.p.coeffs) == \
            exact_series([s, s * Fraction(-1571, 961), s * Fraction(1032, 961)])

    def test_reciprocal_of_one(self):
        res = optimal(Series.exact([1]), 4, -1)
        assert tuple(res.p.coeffs) == exact_series([1, 0, 0, 0, 0])
        assert res.distance_sq == Fraction(0)

    def test_agrees_with_independent_solver(self, rng):
        for _ in range(5):
            coeffs = [(int(a), int(b)) for a, b in
                      zip(rng.integers(-3, 4, 4), rng.integers(-3, 4, 4))]
            coeffs[0] = (int(rng.integers(1, 4)), 1)
            f = Series.exact(coeffs)
            for alpha in (-1, 0, 2):
                sys = gram(f, 3, alpha)
                # normal equations use the transpose of the Gram matrix
                transposed = tuple(tuple(sys.matrix[l][k] for l in range(4))
                                   for k in range(4))
                oracle = exact_gauss_solve(transposed, sys.rhs)
                assert list(optimal(f, 3, alpha).p.coeffs) == oracle

    def test_zero_at_origin(self):
        with pytest.raises(ZeroAtOriginError):
            optimal(Series.exact([0, 1]), 1, 0)

    def test_sweep_matches_single_solves(self):
        sweep = optimal_sweep(CUBE, 3, -2)
        for n in range(4):
            assert tuple(sweep[n].p.coeffs) == tuple(optimal(CUBE, n, -2).p.coeffs)
        fl = CUBE.to_float()
        sweep_f = optimal_sweep(fl, 3, -0.5)
        for n in range(4):
            assert np.asarray(sweep_f[n].p.coeffs) == pytest.approx(
                np.asarray(optimal(fl, n, -0.5).p.coeffs), rel=1e-12)


class TestDistance:
    def test_one_minus_z(self):
        d = distance(ONE_MINUS_Z, 1, 0)
        assert d == Fraction(1, 3)
        # cross-check: ||p1 f - 1||^2 = 3 * (1/9)
        res = optimal(ONE_MINUS_Z, 1, 0)
        assert res.residual_norm_sq == Fraction(1, 3)

    def test_blaschke_plateau(self):
        from optapprox import FunctionSpec, realize

        lam = 0.37 + 0.21j
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 4000},
                                 "float"))
        for n in (0, 2, 7):
            assert distance(f, n, 0) == pytest.approx(1 - abs(lam) ** 2, abs=1e-10)

    def test_constant_function(self):
        assert distance(Series.exact([1]), 3, 1) == Fraction(0)

    def test_monotone_in_n(self, rng):
        for _ in range(5):
            f = random_poly(rng, 6)
            for alpha in (-1, 0, 0.5):
                ds = [optimal(f, n, alpha).distance_sq for n in range(7)]
                for a, b in zip(ds, ds[1:]):
                    assert b <= a + 1e-12
                assert all(-1e-12 <= d <= 1 + 1e-12 for d in ds)


class TestDeterminantRoute:
    def test_one_minus_z(self):
        assert pn0_via_determinants(ONE_MINUS_Z, 1, 0) == \
            ExactComplex(Fraction(2, 3))

    def test_constant(self):
        assert pn0_via_determinants(Series.exact([1]), 3, -1) == ExactComplex(1)

    def test_binomial_cube(self):
        assert pn0_via_determinants(CUBE, 1, -2) == \
            ExactComplex(Fraction(741, 1694))

    def test_agrees_with_solve(self, rng):
        for _ in range(5):
            f = random_poly(rng, 6)
            for alpha in (-1.5, 0, 1):
                det_route = pn0_via_determinants(f, 3, alpha)
                solve_route = optimal(f, 3, alpha).p_at_zero
                assert det_route == pytest.approx(solve_route, rel=1e-10)


class TestEqualQuantities:
    def test_one_minus_z_all_one_third(self):
        eq = equal_quantities(ONE_MINUS_Z, 1, 0)
        assert eq.as_tuple() == (Fraction(1, 3),) * 6

    def test_constant_all_zero(self):
        eq = equal_quantities(Series.exact([1]), 2, -1)
        assert eq.as_tuple() == (Fraction(0),) * 6

    def test_blaschke_half_three_quarters(self):
        from optapprox import FunctionSpec, realize

        f = realize(FunctionSpec("blaschke", {"lambda": 0.5, "truncation": 4000},
                                 "float"))
        eq = equal_quantities(f, 3, 0)
        for v in eq.as_tuple():
            assert float(v) == pytest.approx(0.75, abs=1e-10)

    def test_pairwise_gap_random(self, rng):
        for _ in range(5):
            f = random_poly(rng, 5)
            for alpha in (-1, 0, 0.5):
                eq = equal_quantities(f, 4, alpha)
                assert eq.max_pairwise_gap() <= 1e-9 * max(
                    1.0, *(abs(float(v)) for v in eq.as_tuple()))


class TestInvariants:
    def test_residual_orthogonality(self, rng):
        # exact: identically zero
        for alpha in (-2, 0, 1):
            res = optimal(CUBE, 2, alpha)
            pf = poly_mul(res.p, CUBE)
            r = poly_add(pf, scale(Series.exact([1]), -1))
            for l in range(3):
                assert shifted_inner_poly(r, CUBE, l, alpha) == ExactComplex(0)
        # float: small relative to 1 + ||f||^2
        for _ in range(5):
            f = random_poly(rng, 7)
            for alpha in (-1, 0.5):
                res = optimal(f, 4, alpha)
                pf = poly_mul(res.p, f)
                r = poly_add(pf, scale(Series.from_complex([1.0]), -1.0))
                bound = 1e-10 * (1 + norm_sq(f, alpha))
                for l in range(5):
                    assert abs(shifted_inner_poly(r, f, l, alpha)) <= bound

    def test_perturbation_optimality(self, rng):
        for _ in range(5):
            f = random_poly(rng, 5)
            alpha = 0
            res = optimal(f, 3, alpha)
            base = res.residual_norm_sq
            for _ in range(3):
                q = random_poly(rng, 3, min_f0=0.0)
                for eps in (1e-3, -1e-3):
                    pq = poly_add(res.p, scale(q, eps))
                    r = poly_add(poly_mul(pq, f),
                                 scale(Series.from_complex([1.0]), -1.0))
                    assert norm_sq(r, alpha) >= base - 1e-14


def shifted_inner_poly(r, f, l, alpha):
    """<r, z^l f>_alpha for a residual polynomial r."""
    from optapprox import inner, shift

    return inner(r, shift(f, l), alpha)


def test_conditioning_error_float():
    from optapprox.linsolve import solve_hpd_float

    M = np.diag([1.0, 1e-16]).astype(np.complex128)
    with pytest.raises(ConditioningError):
        solve_hpd_float(M, np.array([1.0, 0.0], dtype=np.complex128))


@pytest.mark.parametrize("cond, refused", [(0.99e14, False), (1.01e14, True)])
def test_condition_limit_boundary(cond, refused):
    # on a diagonal matrix the 1-norm estimate and the 2-norm condition
    # number are both exactly cond
    from optapprox.linsolve import solve_hpd_float

    M = np.diag([1.0, 0.5, 1.0 / cond]).astype(np.complex128)
    b = np.array([1.0, 1.0, 1.0], dtype=np.complex128)
    if refused:
        with pytest.raises(ConditioningError, match="1.010e\\+14"):
            solve_hpd_float(M, b)
    else:
        assert solve_hpd_float(M, b) == pytest.approx([1.0, 2.0, cond], rel=1e-15)
