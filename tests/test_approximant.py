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
                # normal equations: the transposed Gram matrix, and the
                # right-hand side conj(f(0)) e_0
                transposed = tuple(tuple(sys.matrix[l][k] for l in range(4))
                                   for k in range(4))
                rhs = (f.at0().conjugate(),) + (ExactComplex(0),) * 3
                oracle = exact_gauss_solve(transposed, rhs)
                assert list(optimal(f, 3, alpha).p.coeffs) == oracle

    def test_zero_at_origin(self):
        with pytest.raises(ZeroAtOriginError):
            optimal(Series.exact([0, 1]), 1, 0)

    def test_sweep_matches_single_solves(self, rng):
        complex_f = Series.exact([(2, 1), (-1, 3), "1/2", (0, -2)])
        for f in (CUBE, complex_f):
            for alpha in range(-2, 3):
                sweep = optimal_sweep(f, 5, alpha)
                G = gram(f, 5, alpha).matrix
                for n in range(6):
                    single = optimal(f, n, alpha)
                    assert (sweep[n].p.coeffs, sweep[n].distance_sq) == \
                        (single.p.coeffs, single.distance_sq)
                    # the leading block of the normal equations conj(G) c = conj(f(0)) e_0
                    block = tuple(tuple(x.conjugate() for x in row[: n + 1])
                                  for row in G[: n + 1])
                    rhs = (f.at0().conjugate(),) + (ExactComplex(0),) * n
                    assert list(sweep[n].p.coeffs) == exact_gauss_solve(block, rhs)
        for fl in (CUBE.to_float(), random_poly(rng, 6)):
            for alpha in (-1, -0.5, 0, 1.5):
                sweep_f = optimal_sweep(fl, 8, alpha)
                for n in range(9):
                    single = optimal(fl, n, alpha)
                    assert np.asarray(sweep_f[n].p.coeffs) == pytest.approx(
                        np.asarray(single.p.coeffs), rel=1e-12)
                    assert sweep_f[n].distance_sq == pytest.approx(
                        single.distance_sq, rel=1e-12, abs=1e-15)

    def test_sweep_factors_once(self, monkeypatch):
        from optapprox import linsolve

        calls = []
        eliminate, zpotrf = linsolve._eliminate, linsolve.zpotrf
        monkeypatch.setattr(linsolve, "_eliminate",
                            lambda *a: calls.append("exact") or eliminate(*a))
        monkeypatch.setattr(linsolve, "zpotrf",
                            lambda *a: calls.append("float") or zpotrf(*a))
        assert len(optimal_sweep(CUBE, 12, 1)) == 13
        assert calls == ["exact"]
        assert len(optimal_sweep(CUBE.to_float(), 12, 1)) == 13
        assert calls == ["exact", "float"]

    def test_float_sweep_refused_at_top_block(self):
        # (1 - z)^10 at alpha = 0: the 41 x 41 block is too ill-conditioned
        f = Series.exact([1, -10, 45, -120, 210, -252, 210, -120, 45, -10, 1]).to_float()
        assert len(optimal_sweep(f, 20, 0)) == 21
        with pytest.raises(ConditioningError, match="condition estimate 1.6"):
            optimal_sweep(f, 40, 0)


class TestDistance:
    def test_one_minus_z(self):
        d = distance(ONE_MINUS_Z, 1, 0)
        assert d == Fraction(1, 3)
        # cross-check: ||p1 f - 1||^2 = 3 * (1/9)
        assert equal_quantities(ONE_MINUS_Z, 1, 0).residual_norm_sq == Fraction(1, 3)

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
            base = norm_sq(poly_add(poly_mul(res.p, f),
                                    scale(Series.from_complex([1.0]), -1.0)), alpha)
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
    from optapprox.linsolve import factor, solve

    M = np.diag([1.0, 1e-16]).astype(np.complex128)
    with pytest.raises(ConditioningError):
        solve(factor(M, 1.0))


@pytest.mark.parametrize("cond, refused", [(0.99e14, False), (1.01e14, True)])
def test_condition_limit_boundary(cond, refused):
    # on a diagonal matrix the 1-norm estimate and the 2-norm condition
    # number are both exactly cond
    from optapprox.linsolve import factor, forward, solve

    M = np.diag([1.0, 0.5, 1.0 / cond]).astype(np.complex128)
    F = factor(M, 2.0)
    if refused:
        with pytest.raises(ConditioningError, match="1.010e\\+14"):
            solve(F)
        with pytest.raises(ConditioningError, match="1.010e\\+14"):
            forward(F, [3])
        # the leading blocks of the one factor are still accepted
        assert solve(F, [2, 1]) == pytest.approx([2.0, 0.0, 2.0], rel=1e-15)
    else:
        assert solve(F) == pytest.approx([2.0, 0.0, 0.0], rel=1e-15)
    assert forward(F, [1, 2])[1] == pytest.approx([1.0, 0.5, 1.0 / cond], rel=1e-15)


@pytest.mark.parametrize("last", [100.0, -1.0])
def test_leading_system_is_judged_on_its_own_block(last):
    # the leading 2-block has condition 4 2^43 = 3.5e13 and is accepted; the
    # whole matrix is refused, as ill-conditioned (1.8e15) or as not definite
    from optapprox.linsolve import factor, forward, solve

    eps = 2.0 ** -43
    M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + eps, 0.0], [0.0, 0.0, last]],
                 dtype=np.complex128)
    F = factor(M, 1.0)
    assert solve(F, [2]) == pytest.approx([1.0 + 1 / eps, -1 / eps], rel=1e-12)
    with pytest.raises(ConditioningError):
        solve(F)
    with pytest.raises(ConditioningError):
        forward(F, [1, 2, 3])


def test_float_leading_systems_match_separate_solves(rng):
    from optapprox.linsolve import factor, solve

    A = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    M = A @ A.conj().T + np.eye(7)
    b0 = complex(rng.normal(), rng.normal())
    sizes = [1, 4, 7, 3]
    b = np.zeros(7, dtype=np.complex128)
    b[0] = b0
    direct = np.concatenate([np.linalg.solve(M[:m, :m], b[:m]) for m in sizes])
    assert solve(factor(M, b0), sizes) == pytest.approx(direct, rel=1e-12)
    e0 = np.eye(7, dtype=np.complex128)[0]
    direct = np.concatenate([np.linalg.solve(M[:m, :m], e0[:m]) for m in sizes])
    assert solve(factor(M), sizes) == pytest.approx(direct, rel=1e-12)
