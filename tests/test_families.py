"""Function-family constructors and the closed-form reference approximants."""

import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from optapprox import (FunctionSpec, Series, cesaro_closed_form, equal_quantities,
                       first_zero, hardy_power_closed_form, levinson_solve,
                       norm_sq, optimal, poly_eval, realize, spec_from_json,
                       toeplitz_column)
from optapprox.errors import SpecValidationError
from optapprox.families import _eta_far, _eta_head

from conftest import FIXED_BITS, eta_fixed_point


class TestRealize:
    def test_one_plus_z_cubed(self):
        f = realize(FunctionSpec("one_plus_z_pow", {"N": 3}))
        assert tuple(f.coeffs) == tuple(Series.exact([1, 3, 3, 1]).coeffs)

    def test_one_minus_z(self):
        f = realize(FunctionSpec("one_minus_z_pow", {"N": 1}))
        assert tuple(f.coeffs) == tuple(Series.exact([1, -1]).coeffs)

    def test_eta_one_coefficients(self):
        f = realize(FunctionSpec("eta_family", {"eta": 1, "truncation": 100},
                                 "float"))
        expected = np.full(101, 2.0)
        expected[0] = 1.0
        assert np.asarray(f.coeffs) == pytest.approx(expected)
        assert f.tail_sq(100, -2) > 0

    def test_blaschke_geometric(self):
        lam = 0.5
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 200},
                                 "float"))
        assert f[0] == pytest.approx(0.5)
        assert f[1] == pytest.approx(-0.75)
        assert f[2] == pytest.approx(-0.375)
        assert f[3] == pytest.approx(-0.1875)

    def test_blaschke_unit_norm(self):
        lam = 0.5 + 0.3j
        M = 300
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": M},
                                 "float"))
        tail = (1 - abs(lam) ** 2) * abs(lam) ** (2 * M)
        assert abs(norm_sq(f, 0) - 1.0) <= tail + 1e-12

    def test_eta_coefficient_ratio(self):
        eta = 0.7
        M = 5000
        f = realize(FunctionSpec("eta_family", {"eta": eta, "truncation": M},
                                 "float"))
        k = np.arange(1, M + 1, dtype=np.float64)
        g = np.concatenate([[1.0], np.cumprod((eta + k - 1.0) / k)])
        assert f[M].real / g[M] == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("eta", [0.3, 0.8, 1.0, 2.5])
    def test_eta_coefficients_bit_identical_to_direct_formula(self, eta):
        # the in-place realization keeps the operation order ((eta+k)-1)/k
        M = 10 ** 5
        f = realize(FunctionSpec("eta_family", {"eta": eta, "truncation": M},
                                 "float"))
        k = np.arange(1, M + 1, dtype=np.float64)
        g = np.concatenate([[1.0], np.cumprod((eta + k - 1.0) / k)])
        a = np.empty(M + 1, dtype=np.float64)
        a[0] = 1.0
        a[1:] = g[1:] + g[:-1]
        assert f.coeffs.dtype == np.complex128
        assert np.array_equal(f.coeffs, a.astype(np.complex128))


class TestBlockRules:
    @pytest.mark.parametrize("spec", [
        FunctionSpec("eta_family", {"eta": 0.45, "truncation": 5000}, "float"),
        FunctionSpec("blaschke", {"lambda": 0.3 - 0.8j, "truncation": 5000}, "float"),
        FunctionSpec("blaschke", {"lambda": -0.7, "truncation": 5000}, "float"),
    ], ids=["eta", "blaschke-complex", "blaschke-real"])
    def test_blocks_join_into_the_coefficients(self, spec):
        # a head of m coefficients is the first m of the series
        f = realize(spec)
        # len, backend, at0 and is_zero read no coefficient array
        assert (len(f), f.backend, f.is_zero) == (5001, "float", False)
        assert f.at0() == (1.0 if spec.family == "eta_family" else spec.params["lambda"])
        assert "coeffs" not in vars(f)
        real = spec.family == "eta_family" or not complex(spec.params["lambda"]).imag
        for m in (1, 7, 4096, 5001, 10 ** 4):
            head = f.head(m)
            assert head.dtype == (np.float64 if real else np.complex128)
            assert np.array_equal(head, f.coeffs[:m])

    def test_blaschke_coefficients(self):
        lam, M = 0.6 + 0.7j, 3000
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": M}, "float"))
        want = np.concatenate([[lam], (abs(lam) ** 2 - 1) * np.conj(lam) ** np.arange(M)])
        np.testing.assert_allclose(f.coeffs, want, rtol=0, atol=1e-13)
        assert f.coeffs.dtype == np.complex128 and not f.coeffs.flags.writeable


class TestTailRules:
    @pytest.mark.parametrize("eta, alpha, K", [
        (0.3, 0, 100), (0.45, 0, 1000), (0.8, -1, 1000), (0.2, 0.5, 300),
        (1, -2, 10), (1.5, -2.5, 50), (1.9, -4, 5000)])
    def test_eta_tail_rule_bounds_the_tail(self, eta, alpha, K):
        # sum_{j>K} (j+1)^alpha a_j^2: its terms to N = 2^20, and past N,
        # for eta <= 1, the sum by its integral of the lower bound
        # a_j >= 2 g_j >= 2 (j+1)^(eta-1) / Gamma(eta) (Gautschi); the
        # cases with eta > 1 decay fast enough to leave out what is past N
        N = 2 ** 20
        a = np.asarray(realize(FunctionSpec(
            "eta_family", {"eta": eta, "truncation": N}, "float")).coeffs).real
        j = np.arange(K + 1, N + 1, dtype=np.float64)
        p = alpha + 2 * eta - 2
        rest = 4 / math.gamma(eta) ** 2 * (N + 2) ** (p + 1) / (-p - 1) if eta <= 1 else 0.0
        below = np.sum((j + 1) ** alpha * a[K + 1:] ** 2) + rest
        f = realize(FunctionSpec("eta_family", {"eta": eta, "truncation": 64}, "float"))
        assert below <= f.tail_sq(K, alpha) <= 1.3 * below

    @pytest.mark.parametrize("lam, alpha, K", [
        (0.99, 0, 300), (0.99j, 2, 300), (-0.5, -1, 3), (0.9, 3, 30), (0.9, 40, 2),
        (0.9, 3, 0), (0.999, 5, 10), (0.4, 0.001, 0), (1e-40, 0.1, 3)])
    def test_blaschke_tail_rule_bounds_the_tail(self, lam, alpha, K):
        # the tail (1-r)^2 r^K sum_{i>=0} (K+2+i)^alpha r^i, r = |lambda|^2,
        # summed until its terms are below 1e-20 of it; at alpha > 0 the
        # ratio of consecutive terms starts above 1 (r (4/3)^40 at K = 2).
        # In the last two, -log(r) / alpha is past 709, where exp overflows
        r = abs(lam) ** 2
        i = np.arange(40000, dtype=np.float64)
        terms = (K + 2 + i) ** alpha * r ** i
        assert terms[-1] < 1e-20 * terms.sum()
        tail = (1 - r) ** 2 * r ** K * terms.sum()
        f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 10}, "float"))
        assert tail * (1 - 1e-12) <= f.tail_sq(K, alpha) <= 1.3 * tail
        assert f.tail_sq(-1, alpha) == math.inf

    def test_blaschke_tail_rule_past_its_summed_terms(self):
        # the ratio falls to sqrt(r) only after about 2 alpha / -log(r)
        # terms: above _BLASCHKE_TAIL_TERMS of them the rule reads inf
        f = realize(FunctionSpec("blaschke", {"lambda": 1 - 1e-9, "truncation": 10}, "float"))
        assert f.tail_sq(0, 2) == math.inf
        assert math.isfinite(f.tail_sq(0, 0))

    def test_blaschke_tail_rule_where_the_square_underflows(self):
        # |lambda|^2 = 1e-400 is 0 in floats; the tail, below 1e-1200, is too
        f = realize(FunctionSpec("blaschke", {"lambda": 1e-200, "truncation": 10}, "float"))
        assert f.tail_sq(3, -3) == 0.0 and f.tail_sq(3, 0.5) == 0.0

    def test_eta_outside_the_space_is_refused(self):
        f = realize(FunctionSpec("eta_family", {"eta": 0.5, "truncation": 64}, "float"))
        assert f.tail_sq(0, -0.01) == math.inf   # K < 1
        with pytest.raises(SpecValidationError, match="alpha \\+ 2 eta < 1"):
            f.tail_sq(10, 0)


class TestSpecValidation:
    @pytest.mark.parametrize("family,params,backend", [
        ("one_minus_z_pow", {"N": 0}, "exact"),
        ("one_plus_z_pow", {"N": -1}, "exact"),
        ("blaschke", {"lambda": 0}, "float"),
        ("blaschke", {"lambda": 1.2}, "float"),
        ("blaschke", {"lambda": 0.5}, "exact"),
        ("eta_family", {"eta": 0}, "float"),
        ("eta_family", {"eta": 1, "truncation": 10}, "float"),
        ("eta_family", {"eta": 1}, "exact"),
        ("explicit", {"coefficients": []}, "exact"),
        ("no_such_family", {}, "exact"),
    ])
    def test_invalid_specs_rejected(self, family, params, backend):
        with pytest.raises(SpecValidationError):
            FunctionSpec(family, params, backend)

    def test_explicit_zero_at_origin_rejected(self):
        spec = FunctionSpec("explicit", {"coefficients": [0, 1]}, "exact")
        with pytest.raises(SpecValidationError):
            realize(spec)


class TestSpecFromJson:
    def test_rational_strings_exact(self):
        spec = spec_from_json({"coefficients": ["2/3", "1/3", 1]}, "exact")
        f = realize(spec)
        assert tuple(f.coeffs) == tuple(
            Series.exact([Fraction(2, 3), Fraction(1, 3), 1]).coeffs)

    def test_complex_dict_float(self):
        spec = spec_from_json(
            {"coefficients": [{"re": 1, "im": -2}, 0.5]}, "float")
        f = realize(spec)
        assert np.asarray(f.coeffs) == pytest.approx(
            np.array([1 - 2j, 0.5]))

    def test_float_rejected_in_exact(self):
        with pytest.raises(SpecValidationError):
            spec_from_json({"coefficients": [0.5]}, "exact")

    def test_family_form_with_complex_lambda(self):
        spec = spec_from_json(
            {"family": "blaschke",
             "params": {"lambda": {"re": 0.3, "im": 0.4}, "truncation": 128}},
            "exact")
        assert spec.backend == "float"
        assert spec.params["lambda"] == 0.3 + 0.4j


class TestCesaroClosedForm:
    def test_degree_one_hardy(self):
        p = cesaro_closed_form(1, 0)
        assert tuple(p.coeffs) == tuple(
            Series.exact([Fraction(2, 3), Fraction(1, 3)]).coeffs)

    def test_degree_zero(self):
        p = cesaro_closed_form(0, 0)
        assert tuple(p.coeffs) == tuple(Series.exact([Fraction(1, 2)]).coeffs)

    def test_nonvanishing_at_one(self):
        for alpha in (-2, 0, 2):
            for n in (1, 4, 9):
                val = poly_eval(cesaro_closed_form(n, alpha).to_float(), 1.0)
                assert abs(val) > 1e-6

    def test_matches_gram_solve_exact(self):
        f = Series.exact([1, -1])
        for alpha in (-2, -1, 0, 1, 2):
            for n in range(0, 21):
                closed = cesaro_closed_form(n, alpha)
                direct = optimal(f, n, alpha).p
                assert tuple(closed.coeffs) == tuple(direct.coeffs)

    def test_matches_gram_solve_float_alpha(self):
        f = Series.from_complex([1.0, -1.0])
        for alpha in (-0.5, 0.5):
            for n in range(0, 11):
                closed = np.asarray(cesaro_closed_form(n, alpha).coeffs)
                direct = np.asarray(optimal(f, n, alpha).p.coeffs)
                assert np.max(np.abs(closed - direct)) <= 1e-10


def one_minus_z_reference(n, alpha, z):
    """The 1/(1-z) approximant p_n at z from its quotient forms, written
    apart from cesaro_closed_form: p_n(z) = (1 - S_z / S_1) / (1 - z) with
    S_z = sum_{k=0}^{n+1} z^k / w(k), w(k) = (k+1)^alpha; at alpha = 0,
    (z^{n+2} - (n+2) z + n + 1) / ((n+2)(1-z)^2); at the removable
    singularity z = 1, the limit S'_1 / S_1."""
    w = np.arange(1, n + 3, dtype=np.float64) ** float(alpha)
    k = np.arange(n + 2)
    if z == 1:
        return np.sum(k / w) / np.sum(1 / w)
    if alpha == 0:
        return (z ** (n + 2) - (n + 2) * z + n + 1) / ((n + 2) * (1.0 - z) ** 2)
    return (1.0 - np.sum(z ** k / w) / np.sum(1 / w)) / (1.0 - z)


class TestOneMinusZReference:
    def test_hardy_cubic_quotient_at_zero(self):
        assert poly_eval(cesaro_closed_form(1, 0).to_float(), 0) == pytest.approx(2 / 3)
        assert one_minus_z_reference(1, 0, 0) == pytest.approx(2 / 3)

    def test_root_at_minus_two(self):
        assert poly_eval(cesaro_closed_form(1, 0).to_float(), -2) == \
            pytest.approx(0.0, abs=1e-14)
        assert one_minus_z_reference(1, 0, -2) == pytest.approx(0.0, abs=1e-14)

    def test_leading_behavior(self):
        n = 5
        z = 1e4
        val = poly_eval(cesaro_closed_form(n, 0).to_float(), z)
        assert val == pytest.approx(z ** n / (n + 2), rel=1e-3)
        assert one_minus_z_reference(n, 0, z) == pytest.approx(val, rel=1e-11)

    def test_removable_singularity_at_one(self):
        for alpha in (0, -1):
            direct = poly_eval(cesaro_closed_form(4, alpha).to_float(), 1.0)
            assert one_minus_z_reference(4, alpha, 1.0) == \
                pytest.approx(direct, rel=1e-12)

    def test_quotient_matches_coefficients(self):
        for alpha in (-2, -1, 1, 2):
            for n in (1, 3, 6):
                for z in (0.3, -0.9 + 0.2j, 2.0):
                    via_quotient = one_minus_z_reference(n, alpha, z)
                    via_coeffs = poly_eval(cesaro_closed_form(n, alpha).to_float(), z)
                    assert via_quotient == pytest.approx(via_coeffs, rel=1e-11)


@pytest.mark.parametrize("call", [
    lambda f: equal_quantities(f, 2, 0),
    lambda f: first_zero(f, 0),
    lambda f: toeplitz_column(f, 2),
    lambda f: levinson_solve(f, 2),
], ids=["equal_quantities", "first_zero", "toeplitz_column", "levinson_solve"])
def test_entries_refuse_eta_outside_the_space(call):
    # alpha + 2 eta = 1.6: eta 0.8 is not in H^2, whatever its truncation;
    # refused as optimal, basis and cyclicity_report refuse it
    f = realize(FunctionSpec("eta_family", {"eta": 0.8, "truncation": 10 ** 4}, "float"))
    with pytest.raises(SpecValidationError, match="not in D_alpha"):
        call(f)


class TestHardyPowerClosedForm:
    def test_n_one(self):
        assert tuple(hardy_power_closed_form(1, 1).coeffs) == tuple(
            Series.exact([Fraction(2, 3), Fraction(1, 3)]).coeffs)

    def test_n_zero(self):
        assert tuple(hardy_power_closed_form(1, 0).coeffs) == tuple(
            Series.exact([Fraction(1, 2)]).coeffs)

    def test_matches_gram_solve(self):
        for N in range(1, 7):
            f = Series.exact([(-1) ** k * math.comb(N, k) for k in range(N + 1)])
            for n in range(0, 13):
                closed = hardy_power_closed_form(N, n)
                direct = optimal(f, n, 0).p
                assert tuple(closed.coeffs) == tuple(direct.coeffs)


def fixed_point_weights(alpha, stop: int) -> list:
    """x^alpha for x = 1..stop - 1, alpha a multiple of 1/2, as integers
    scaled by 2^FIXED_BITS and floored."""
    q, one = int(2 * alpha), 1 << FIXED_BITS
    assert q == 2 * alpha
    xs = range(1, stop)
    if q % 2 == 0:
        return [x ** (q // 2) * one if q >= 0 else one // x ** (-q // 2) for x in xs]
    return [math.isqrt(x ** q * one * one if q > 0 else one * one // x ** -q) for x in xs]


class TestEtaFarPart:
    @pytest.mark.parametrize("eta, alpha", [
        (1, -2), (0.8, -1), (0.45, 0), (0.2, 0.5), (1.4, 0.5), (1, -1)],
        ids=["euler", "bergman", "hardy", "dirichlet-half", "eta-above-1", "log-power"])
    def test_matches_a_fixed_point_sum(self, eta, alpha):
        # the reference sums sum_{m=K}^{M+min(k,l)} (m+1)^alpha a_{m-k}
        # a_{m-l} in integers at 2^-128, good to 28 digits or more.  In the
        # last case p = alpha + 2 eta - 2 = -1: the power summed is x^-1, a
        # logarithm.  The library's own float coefficients drift by up to
        # 5e-12 relative at M = 2e5; the far part stays within 2e-15.  At
        # n = 200 a head of 4096 rows, without its 64 n, would not do
        M = 2 * 10 ** 5
        A = eta_fixed_point(eta, M + 1)
        W = fixed_point_weights(alpha, M + 202)
        for n in (1, 8, 30, 200):
            K = _eta_head(eta, n)
            F = np.atleast_2d(_eta_far(eta, M + 1, K, n, alpha))
            # at alpha = 0 the far part is the lags F_0l alone
            for k, l in ((0, 0), (0, n)) if alpha == 0 else ((0, n), (n, n)):
                # W[m] = (m+1)^alpha; zip stops at m = M + min(k, l)
                S = sum(map(mul, map(mul, W[K: M + k + 1], A[K - k:]), A[K - l:]))
                ref = S / (1 << 3 * FIXED_BITS)
                assert abs(F[k, l] - ref) <= 1e-14 * ref

    def test_large_eta(self):
        # at eta = 45 the first exponent e_1 = (eta-1)(eta-3-2h)/2 is 924 or
        # more, and the head grows with eta to keep e_1 / K small (a head of
        # 4096 + 64 n rows was off by up to 3e-12).  The weights x^-90 make the
        # terms decay like x^-2; the reference divides each integer product
        # exactly, at 2^-768
        eta, alpha, M = 45, -90, 5 * 10 ** 4
        A = eta_fixed_point(eta, M + 1)
        scale = 768 - 2 * FIXED_BITS
        for n in (1, 8):
            K = _eta_head(eta, n)
            assert K > 4096 + 64 * n
            F = _eta_far(eta, M + 1, K, n, alpha)
            for k, l in ((0, 0), (0, n), (n, n)):
                S = sum((A[m - k] * A[m - l] << scale) // (m + 1) ** 90
                        for m in range(K, M + min(k, l) + 1))
                ref = S / (1 << 768)
                assert abs(F[k, l] - ref) <= 1e-14 * ref
