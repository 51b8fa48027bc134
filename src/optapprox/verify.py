"""Golden-value verification harness backing the ``verify`` CLI command.

Each check recomputes a known closed-form result through the library and
compares at a stated tolerance (exact checks compare rational strings
byte for byte).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import approximant, families, levinson, orthopoly, zeros
from .exact import format_rational
from .series import Series


# -- the golden table: the paper's values, read by the checks below and
# by the acceptance tests

#: Coefficients of the optimal approximants p_1, p_2, p_3 to 1/(1+z)^3 in
#: D_{-2}.
BINOMIAL_CUBE = {
    1: ["741/1694", "-775/1694"],
    2: ["961/1638", "-1571/1638", "172/273"],
    3: ["571/826", "-3427/2478", "591/413", "-133/177"],
}

#: Limit of the first zero of the eta family at eta = 1, alpha = -2.
EULER_FIRST_ZERO = (8 * math.pi ** 2 - 57) / (8 * math.pi ** 2 - 54)

#: Limit of the (extraneous) first zero of the eta family at eta = 0.8,
#: alpha = -1.
BERGMAN_FIRST_ZERO = 119 / 121


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    observed: str


def _rational_strings(p: Series):
    return [format_rational(c.re) if c.im == 0 else
            f"{format_rational(c.re)}+{format_rational(c.im)}i"
            for c in p.coeffs]


def _check_binomial_cube() -> CheckResult:
    f = Series.exact([1, 3, 3, 1])
    observed = {n: _rational_strings(approximant.optimal(f, n, -2).p)
                for n in BINOMIAL_CUBE}
    return CheckResult("binomial_cube_fractions", observed == BINOMIAL_CUBE,
                       str(BINOMIAL_CUBE), str(observed))


def _check_cesaro() -> CheckResult:
    ok = True
    detail = ""
    for alpha in (-2, -1, 0, 1, 2):
        for n in range(0, 11):
            closed = families.cesaro_closed_form(n, alpha)
            direct = approximant.optimal(Series.exact([1, -1]), n, alpha).p
            if tuple(closed.coeffs) != tuple(direct.coeffs):
                ok = False
                detail = f"mismatch at alpha={alpha}, n={n}"
    return CheckResult("cesaro_closed_form", ok, "exact match n<=10", detail or "exact match")


def _check_hardy_power() -> CheckResult:
    ok = True
    detail = ""
    for N in range(1, 5):
        f = Series.exact([math.comb(N, k) * (-1) ** k for k in range(N + 1)])
        for n in range(0, 9):
            closed = families.hardy_power_closed_form(N, n)
            direct = approximant.optimal(f, n, 0).p
            if tuple(closed.coeffs) != tuple(direct.coeffs):
                ok = False
                detail = f"mismatch at N={N}, n={n}"
    return CheckResult("hardy_power_closed_form", ok, "exact match N<=4, n<=8",
                       detail or "exact match")


def _check_euler_value() -> CheckResult:
    spec = families.FunctionSpec("eta_family", {"eta": 1, "truncation": 10 ** 6}, "float")
    z1, _ = zeros.first_zero_with_tail(families.realize(spec), -2)
    err = abs(complex(z1) - EULER_FIRST_ZERO)
    return CheckResult("euler_first_zero", err <= 1e-5,
                       f"{EULER_FIRST_ZERO:.10f} +- 1e-5",
                       f"{complex(z1).real:.10f} (err {err:.2e})")


def _check_bergman_value() -> CheckResult:
    spec = families.FunctionSpec("eta_family", {"eta": 0.8, "truncation": 10 ** 6}, "float")
    z1, tail = zeros.first_zero_with_tail(families.realize(spec), -1)
    err = abs(complex(z1) - BERGMAN_FIRST_ZERO)
    return CheckResult("bergman_first_zero", err <= 1e-2,
                       f"{BERGMAN_FIRST_ZERO:.10f} +- 1e-2",
                       f"{complex(z1).real:.10f} (err {err:.2e}, tail {tail:.2e})")


def _check_blaschke() -> CheckResult:
    lam = 0.5
    f = families.realize(families.FunctionSpec(
        "blaschke", {"lambda": lam, "truncation": 10 ** 4}, "float"))
    ok = True
    worst = 0.0
    for n in (0, 3, 10):
        res = approximant.optimal(f, n, 0)
        expected = np.zeros(n + 1, dtype=np.complex128)
        expected[0] = np.conj(lam)
        worst = max(worst, float(np.max(np.abs(np.asarray(res.p.coeffs) - expected))),
                    abs(res.distance_sq - (1 - abs(lam) ** 2)))
    ok = worst <= 1e-10
    return CheckResult("blaschke_constant_approximants", ok,
                       "p_n = conj(lambda), d^2 = 1-|lambda|^2 (+-1e-10)",
                       f"max deviation {worst:.2e}")


def _check_zero_bounds() -> CheckResult:
    rng = np.random.default_rng(7)
    ok = True
    detail = ""
    for trial in range(30):
        deg = int(rng.integers(1, 8))
        coeffs = rng.uniform(0, 1, deg + 1) + 1j * rng.uniform(0, 1, deg + 1)
        coeffs[0] = rng.uniform(0.2, 1.0)
        f = Series.from_complex(coeffs)
        for alpha in (-2, -1, -0.5, 0, 0.5, 1, 2):
            for n in range(0, 5):
                chk = zeros.zero_bound_check(f, n, alpha)
                if not chk.passed:
                    ok = False
                    detail = (f"trial {trial}, alpha={alpha}, n={n}: "
                              f"min modulus {chk.min_modulus:.6f} <= bound {chk.bound:.6f}")
    return CheckResult("zero_location_bounds", ok, "all roots outside the bound",
                       detail or "all roots outside the bound")


def _check_equal_quantities() -> CheckResult:
    golden = [
        (Series.exact([1, -1]), 0),
        (Series.exact([1, 3, 3, 1]), -2),
        (Series.exact([1]), 1),
        (families.realize(families.FunctionSpec(
            "blaschke", {"lambda": 0.5, "truncation": 2000}, "float")), 0),
    ]
    worst = 0.0
    for f, alpha in golden:
        for n in range(0, 6):
            eq = approximant.equal_quantities(f, n, alpha)
            worst = max(worst, eq.max_pairwise_gap())
    return CheckResult("six_equal_quantities", worst <= 1e-9,
                       "pairwise gap <= 1e-9", f"max gap {worst:.2e}")


def _check_levinson() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[0] += 3.0  # keep f(0) well away from zero
        f = Series.from_complex(coeffs)
        for n in (1, 4, 8):
            lev = levinson.levinson_solve(f, n).coeffs
            direct = approximant.optimal(f, n, 0).p
            worst = max(worst, float(np.max(np.abs(
                np.asarray(lev.coeffs) - np.asarray(direct.coeffs)))))
    oc = levinson.outer_criterion_partial(Series.exact([1, -1]), 12)
    exact_ok = all(p == Fraction(n + 3, 2 * (n + 2))
                   for n, p in enumerate(oc.partial_products))
    exact_ok = exact_ok and complex(oc.target) == 0.5
    return CheckResult("levinson_vs_direct", worst <= 1e-9 and exact_ok,
                       "max dev <= 1e-9; Cesaro products exact",
                       f"max dev {worst:.2e}; exact products {'ok' if exact_ok else 'BAD'}")


def _check_szego() -> CheckResult:
    worst = 0.0
    for f in (Series.exact([1, -1]), Series.exact([1, 3, 3, 1])):
        for n in range(1, 9):
            worst = max(worst, orthopoly.szego_identity_residual(f, n))
    return CheckResult("szego_reflection_identity", worst <= 1e-10,
                       "residual <= 1e-10", f"max residual {worst:.2e}")


_CHECKS = (
    _check_binomial_cube,
    _check_cesaro,
    _check_hardy_power,
    _check_euler_value,
    _check_bergman_value,
    _check_blaschke,
    _check_zero_bounds,
    _check_equal_quantities,
    _check_levinson,
    _check_szego,
)


def run_verification(only: str | None = None, inject_error: bool = False):
    """Run the golden set; returns a list of CheckResult.

    ``inject_error`` flips the outcome of the first selected check -- a
    negative control proving the harness can fail.
    """
    results = []
    for check in _CHECKS:
        name = check.__name__.removeprefix("_check_")
        if only and only not in name:
            continue
        results.append(check())
    if inject_error and results:
        r = results[0]
        results[0] = CheckResult(r.name + " (injected)", not r.passed,
                                 r.expected, r.observed)
    return results
