"""Root extraction, the first-zero formula, zero-location bounds and the
fixed-point certification of zero sets."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from optapprox import (ExactComplex, FunctionSpec, Series, first_zero,
                       first_zero_with_tail, fixed_point_residual, optimal,
                       poly_mul, poly_roots, realize, zero_bound_check)
from optapprox.errors import DegenerateError, SpecValidationError
from optapprox.zeros import (NO_FINITE_ZERO, _cluster, _float_view, _newton_polish,
                             poly_roots_batch)

from conftest import random_poly

ONE_MINUS_Z = Series.exact([1, -1])
CUBE = Series.exact([1, 3, 3, 1])


class TestPolyRoots:
    def test_linear(self):
        zs = poly_roots(Series.exact([Fraction(2, 3), Fraction(1, 3)]))
        assert zs.effective_degree == 1
        assert zs.roots[0] == pytest.approx(-2.0, abs=1e-12)

    def test_quadratic(self):
        zs = poly_roots(Series.exact([-1, 0, 1]))
        assert sorted(z.real for z in zs.roots) == pytest.approx([-1.0, 1.0])

    def test_binomial_cube_p1_root(self):
        zs = poly_roots(Series.exact([Fraction(741, 1694), Fraction(-775, 1694)]))
        assert zs.roots[0] == pytest.approx(741 / 775, abs=1e-12)

    def test_triple_root_multiplicity(self):
        p = poly_mul(poly_mul(Series.exact([1, 1]), Series.exact([1, 1])),
                     Series.exact([1, 1]))
        zs = poly_roots(p)
        assert len(zs.roots) == 3
        # a triple root is only computable to ~eps^(1/3) in doubles
        assert all(z == pytest.approx(-1.0, abs=1e-4) for z in zs.roots)

    def test_constant_has_no_roots(self):
        zs = poly_roots(Series.exact([7]))
        assert zs.roots == () and zs.effective_degree == 0

    def test_zero_polynomial_degenerate(self):
        with pytest.raises(DegenerateError):
            poly_roots(Series.exact([0, 0]))

    def test_residual_bound_random(self, rng):
        for _ in range(10):
            deg = int(rng.integers(1, 31))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            p = Series.from_complex(c)
            zs = poly_roots(p)
            scale = float(np.max(np.abs(c)))
            assert all(r <= 1e-8 * scale for r in zs.residuals)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [
        Series.exact([10 ** 100, -(10 ** 200 + Fraction(1, 10 ** 100)), 1]),
        Series.from_complex([1e100, -1e200, 1.0])])
    def test_root_whose_power_overflows(self, p):
        # (z - 1e-100)(z - 1e200): |z|^2 overflows at the far root, whose
        # residual is |z^-2 p(z)|
        zs = poly_roots(p)
        far, near = sorted(zs.roots, key=abs, reverse=True)
        assert far == pytest.approx(1e200, rel=1e-12)
        assert near == pytest.approx(1e-100, rel=1e-12)
        assert all(math.isfinite(r) for r in zs.residuals)
        assert zs.residuals[zs.roots.index(far)] <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_monic_normalization_overflow_is_overflow_error(self):
        # 1e300 / 1e-10 overflows: an OverflowError, not a RuntimeWarning
        with pytest.raises(OverflowError, match="span more than the float range"):
            poly_roots(Series.from_complex([1e300, 1e-10]))


def _newton_polish_scalar(coeffs, z, iterations=5):
    """Reference: the guarded Newton iteration one root at a time."""
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    best, best_val = z, abs(np.polyval(coeffs[::-1], z))
    for _ in range(iterations):
        pv = np.polyval(coeffs[::-1], z)
        dv = np.polyval(deriv[::-1], z)
        if dv == 0:
            break
        z = z - pv / dv
        v = abs(np.polyval(coeffs[::-1], z))
        if v < best_val:
            best, best_val = z, v
        else:
            break
    return best


def _roots_scalar(coeffs):
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    raw = np.roots(coeffs[::-1])
    return tuple(_cluster([_newton_polish_scalar(coeffs, complex(z)) for z in raw]))


def _bits(roots):
    # == takes -0.0 for 0.0, and the output prints them apart
    return [(repr(z.real), repr(z.imag)) for z in roots]


class TestVectorizedNewton:
    """poly_roots polishes all roots in one array pass; it must return the
    same bits as the scalar iteration."""

    @pytest.mark.filterwarnings("error")   # no division by p' = 0
    @pytest.mark.parametrize("coeffs", [
        [-1, 3, -3, 1],          # (z - 1)^3: p' vanishes at the cluster
        [-1, 0, 1],              # z^2 - 1
        [0, 0, 0, 2.5],          # constant times monomial: all roots 0
        [0, 3j],
        [1, 2, 1], [2, -3, 1], [1, 0, 0, 0, 0, 1], [1e-3, 1, 1e3]])
    def test_special_cases(self, coeffs):
        got = poly_roots(Series.from_complex(coeffs)).roots
        assert _bits(got) == _bits(_roots_scalar(coeffs))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_keeps_the_best_iterate(self):
        # z^2 - 1 at 1e-300: the Newton step lands near 5e299, where p
        # overflows; the root keeps its start, silently
        z = np.array([1e-300 + 0j])
        C = np.array([[1, 0, -1]], dtype=np.complex128)   # decreasing order
        assert _newton_polish(C, np.array([0]), z) == z

    def test_random_degrees(self, rng):
        for _ in range(300):
            deg = int(rng.integers(1, 61))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            if rng.random() < 0.3:
                c = c.real.astype(np.complex128)
            zs = poly_roots(Series.from_complex(c))
            assert _bits(zs.roots) == _bits(_roots_scalar(c))
            want = [abs(np.polyval(c[::-1], z)) / max(1.0, abs(z)) ** deg
                    for z in zs.roots]
            # |zeta|^deg carries up to deg rounding units
            np.testing.assert_allclose(zs.residuals, want, rtol=1e-13, atol=0)


class TestBatchedRoots:
    """poly_roots_batch runs one Newton pass over the roots of a list of
    polynomials; each root must keep the bits of the scalar iteration on
    its own polynomial."""

    def test_mixed_list_against_the_scalar_oracle(self, rng):
        ps = [Series.exact([7]),
              Series.exact([10 ** 100, -(10 ** 200 + Fraction(1, 10 ** 100)), 1]),
              Series.from_complex([1e100, -1e200, 1.0]),   # a far root
              Series.from_complex([0, 0, 0, 2.5])]
        for _ in range(40):
            deg = int(rng.integers(0, 61))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            kind = rng.integers(4)
            if kind == 0:     # double roots
                c = np.poly(np.repeat(rng.normal(size=deg // 2 + 1), 2))[::-1]
            elif kind == 1:
                c = c.real
            ps.append(Series.exact([Fraction(x).limit_denominator(10 ** 6) for x in c.real])
                      if kind == 2 else Series.from_complex(c))
        rng.shuffle(ps)
        with np.errstate(over="ignore", invalid="ignore"):   # the far roots
            want = [_bits(_roots_scalar(_float_view(p, p.degree))) for p in ps]
        got = poly_roots_batch(ps)
        assert [_bits(zs.roots) for zs in got] == want
        assert [zs.effective_degree for zs in got] == [p.degree for p in ps]
        assert [zs.residuals for zs in got] == [poly_roots(p).residuals for p in ps]

    def test_empty_and_constant_lists(self):
        assert poly_roots_batch([]) == []
        assert poly_roots_batch([Series.exact([3])]) == [poly_roots(Series.exact([3]))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("failing, error", [
        ([Series.exact([0, 0]), Series.from_complex([1e300, 1e-10])], DegenerateError),
        ([Series.from_complex([1e300, 1e-10]), Series.exact([0, 0])], OverflowError)])
    def test_the_first_failing_polynomial_raises(self, failing, error):
        ps = [Series.exact([1, 2, 1]), Series.exact([5])] + failing + [Series.exact([1, -1])]
        with pytest.raises(error) as raised:
            poly_roots_batch(ps)
        with pytest.raises(error) as alone:
            poly_roots(failing[0])
        assert str(raised.value) == str(alone.value)


class TestFirstZero:
    def test_one_minus_z(self):
        assert first_zero(ONE_MINUS_Z, 0) == ExactComplex(-2)

    def test_binomial_cube_exact(self):
        assert first_zero(CUBE, -2) == ExactComplex(Fraction(741, 775))

    def test_eta_one_euler_value(self):
        f = realize(FunctionSpec("eta_family", {"eta": 1, "truncation": 10 ** 5},
                                 "float"))
        target = (8 * math.pi ** 2 - 57) / (8 * math.pi ** 2 - 54)
        assert complex(first_zero(f, -2)).real == pytest.approx(target, abs=1e-4)

    def test_no_finite_zero(self):
        # <f, zf> = 0 for f = 1 + z^2
        f = Series.exact([1, 0, 1])
        assert first_zero(f, 0) == NO_FINITE_ZERO

    def test_agrees_with_p1_root(self, rng):
        for _ in range(10):
            f = random_poly(rng, 6)
            for alpha in (-1, 0, 0.5):
                p1 = optimal(f, 1, alpha).p
                if p1.to_float().degree < 1:
                    continue
                root = poly_roots(p1).roots[0]
                assert complex(first_zero(f, alpha)) == \
                    pytest.approx(root, rel=1e-10)

    def test_tail_estimate(self):
        f = realize(FunctionSpec("eta_family", {"eta": 0.8, "truncation": 10 ** 5},
                                 "float"))
        value, tail = first_zero_with_tail(f, -1)
        assert tail > 0
        # the tail estimate brackets the known limit 119/121
        assert abs(complex(value).real - 119 / 121) <= tail

    @pytest.mark.parametrize("M", [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 12])
    @pytest.mark.parametrize("eta, alpha, limit", [
        (1, -2, (8 * math.pi ** 2 - 57) / (8 * math.pi ** 2 - 54)),
        (0.8, -1, 119 / 121),
        (0.45, 0, (2 - 0.45) / (1 + 0.45)),
        (0.3, 0, (2 - 0.3) / (1 + 0.3)),
    ], ids=["euler", "bergman", "hardy-0.45", "hardy-0.3"])
    def test_tail_brackets_the_known_limit(self, eta, alpha, limit, M):
        f = realize(FunctionSpec("eta_family", {"eta": eta, "truncation": M}, "float"))
        value, tail = first_zero_with_tail(f, alpha)
        assert abs(complex(value) - limit) <= tail < math.inf

    def test_tail_refuses_eta_outside_the_space(self):
        # (1+z)/(1-z) is not in H^2: alpha + 2 eta = 1
        f = realize(FunctionSpec("eta_family", {"eta": 1, "truncation": 10 ** 4}, "float"))
        with pytest.raises(SpecValidationError, match="not in D_alpha"):
            first_zero_with_tail(f, 0)

    def test_tail_is_inf_when_it_swamps_the_denominator(self):
        # at truncation 64 the eta = 0.45 Hardy tail exceeds |<f, z f>|
        f = realize(FunctionSpec("eta_family", {"eta": 0.45, "truncation": 64}, "float"))
        value, tail = first_zero_with_tail(f, 0)
        assert tail == math.inf and value == first_zero(f, 0)

    def test_eta_first_zero_holds_no_series(self):
        # the band reads a head of a few thousand of the 1e7 coefficients
        f = realize(FunctionSpec("eta_family", {"eta": 0.8, "truncation": 10 ** 7},
                                 "float"))
        tracemalloc.start()
        try:
            first_zero_with_tail(f, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_tail_zero_for_exact_polynomials(self):
        value, tail = first_zero_with_tail(CUBE, -2)
        assert tail == 0.0
        assert value == ExactComplex(Fraction(741, 775))


class TestZeroBoundCheck:
    def test_one_minus_z_hardy(self):
        for n in (1, 3, 7):
            chk = zero_bound_check(ONE_MINUS_Z, n, 0)
            assert chk.passed and chk.bound == 1.0 and chk.min_modulus > 1.0

    def test_extraneous_zero_inside_disk(self):
        chk = zero_bound_check(CUBE, 1, -2)
        assert chk.bound == pytest.approx(2 ** -1.0)
        assert chk.min_modulus == pytest.approx(741 / 775, abs=1e-10)
        assert chk.min_modulus < 1.0  # inside the unit disk, yet...
        assert chk.passed              # ...outside radius 2^(alpha/2)

    def test_constant_vacuous(self):
        chk = zero_bound_check(Series.exact([1]), 5, 0)
        assert chk.passed and chk.roots.roots == ()


class TestFixedPointResidual:
    def test_single_zero_reduces_to_first_zero(self):
        res = fixed_point_residual(ONE_MINUS_Z, 0, [-2.0])
        assert res[0] <= 1e-12

    def test_binomial_cube_p2_zeros_certified(self):
        p2 = optimal(CUBE, 2, -2).p
        zs = poly_roots(p2).roots
        res = fixed_point_residual(CUBE, -2, zs)
        assert all(r <= 1e-9 for r in res)

    def test_perturbed_zero_detected(self):
        res = fixed_point_residual(ONE_MINUS_Z, 0, [-2.0 + 0.1])
        assert res[0] > 1e-3

    def test_empty_input_rejected(self):
        with pytest.raises(DegenerateError):
            fixed_point_residual(ONE_MINUS_Z, 0, [])


def test_cesaro_root_identity(rng):
    # every root zeta of the 1/(1-z) approximant satisfies
    # sum_{k=0}^{n+1} zeta^k / w(k) = sum_{k=0}^{n+1} 1 / w(k)
    from optapprox import cesaro_closed_form

    for alpha in (-2, -1, 0, 1, 2):
        for n in (3, 6):
            p = cesaro_closed_form(n, alpha)
            w = [(k + 1) ** alpha for k in range(n + 2)]
            s1 = sum(1.0 / wk for wk in w)
            scale = max(abs(s1), 1.0)
            for zeta in poly_roots(p).roots:
                sz = sum(zeta ** k / wk for k, wk in enumerate(w))
                assert abs(sz - s1) <= 1e-8 * scale * max(1.0, abs(zeta)) ** (n + 1)


def test_zero_bound_sweep_small(rng):
    for _ in range(10):
        f = random_poly(rng, 6)
        for alpha in (-2, -0.5, 0, 1):
            for n in range(4):
                assert zero_bound_check(f, n, alpha).passed
