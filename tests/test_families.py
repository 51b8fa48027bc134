"""Function-family constructors and the closed-form reference approximants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from optapprox import (FunctionSpec, Series, cesaro_closed_form,
                       hardy_power_closed_form, norm_sq, one_minus_z_reference,
                       optimal, poly_eval, realize, spec_from_json)
from optapprox.errors import SpecValidationError, UnsupportedAlphaError


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
        assert not f.is_exact_polynomial

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


class TestOneMinusZReference:
    def test_hardy_cubic_quotient_at_zero(self):
        assert one_minus_z_reference(1, 0, 0) == pytest.approx(2 / 3)

    def test_root_at_minus_two(self):
        assert one_minus_z_reference(1, 0, -2) == pytest.approx(0.0, abs=1e-14)

    def test_leading_behavior(self):
        n = 5
        z = 1e4
        val = one_minus_z_reference(n, 0, z)
        assert val == pytest.approx(z ** n / (n + 2), rel=1e-3)

    def test_removable_singularity_at_one(self):
        for alpha in (0, -1):
            direct = poly_eval(cesaro_closed_form(4, alpha).to_float(), 1.0)
            assert one_minus_z_reference(4, alpha, 1.0) == \
                pytest.approx(direct, rel=1e-12)

    def test_quotient_matches_coefficients(self):
        for alpha in (-2, -1, 1, 2):
            for n in (1, 3, 6):
                for z in (0.3, -0.9 + 0.2j, 2.0):
                    via_quotient = one_minus_z_reference(n, alpha, z,
                                                         method="quotient")
                    via_coeffs = poly_eval(cesaro_closed_form(n, alpha).to_float(), z)
                    assert via_quotient == pytest.approx(via_coeffs, rel=1e-11)

    def test_hardy_method_rejects_other_alpha(self):
        with pytest.raises(UnsupportedAlphaError):
            one_minus_z_reference(2, -1, 0.5, method="hardy")


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
