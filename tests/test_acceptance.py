"""Acceptance suite: eight standalone criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <k>: PASS — <summary>`` on success; a failed
assertion prevents the line from printing and fails the test.
"""

import math
import time
from fractions import Fraction

import numpy as np

from optapprox import (ExactComplex, FunctionSpec, Series, equal_quantities,
                       first_zero_with_tail, gram_matrix, hardy_power_closed_form,
                       cesaro_closed_form, inner, norm_sq, optimal,
                       optimal_sweep, levinson_solve, outer_criterion,
                       poly_add, poly_mul, poly_roots, realize, reflect,
                       scale, shift, szego_identity_residual, weighted_inner)
from optapprox.cli import main
from optapprox.orthopoly import basis
from optapprox.verify import BERGMAN_FIRST_ZERO, BINOMIAL_CUBE, EULER_FIRST_ZERO

ONE_MINUS_Z = Series.exact([1, -1])
CUBE = Series.exact([1, 3, 3, 1])


def _random_poly(rng, max_deg, min_f0=0.2):
    deg = int(rng.integers(1, max_deg + 1))
    c = rng.uniform(0, 1, deg + 1) + 1j * rng.uniform(0, 1, deg + 1)
    c[0] = rng.uniform(min_f0, 1.0)
    return Series.from_complex(c)


def test_acceptance_1_exact_golden_values():
    timings = {}

    t0 = time.perf_counter()
    for n, coeffs in BINOMIAL_CUBE.items():
        observed = optimal(CUBE, n, -2).p.coeffs
        assert list(observed) == [ExactComplex(c) for c in coeffs]
    timings["binomial-cube fractions"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for n in range(0, 21):
        closed = cesaro_closed_form(n, 0)
        assert list(closed.coeffs) == \
            [ExactComplex(Fraction(1) - Fraction(k + 1, n + 2))
             for k in range(n + 1)]
        assert tuple(closed.coeffs) == tuple(optimal(ONE_MINUS_Z, n, 0).p.coeffs)
    timings["cesaro n<=20"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for N in range(1, 7):
        f = Series.exact([(-1) ** k * math.comb(N, k) for k in range(N + 1)])
        for n in range(0, 13):
            assert tuple(hardy_power_closed_form(N, n).coeffs) == \
                tuple(optimal(f, n, 0).p.coeffs)
    timings["hardy powers N<=6"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lam = 0.5
    f = realize(FunctionSpec("blaschke", {"lambda": lam, "truncation": 10 ** 4},
                             "float"))
    worst = 0.0
    for res in optimal_sweep(f, 30, 0):
        target = np.zeros(res.n + 1, dtype=np.complex128)
        target[0] = np.conj(lam)
        worst = max(worst,
                    float(np.max(np.abs(np.asarray(res.p.coeffs) - target))),
                    abs(res.distance_sq - (1 - abs(lam) ** 2)))
    assert worst <= 1e-10
    timings["blaschke n<=30"] = time.perf_counter() - t0

    assert all(t < 1.0 for t in timings.values()), timings
    print(f"ACCEPTANCE 1: PASS — exact golden values byte-exact; blaschke "
          f"max deviation {worst:.2e}; timings "
          + ", ".join(f"{k} {v * 1e3:.0f}ms" for k, v in timings.items()))


def test_acceptance_2_euler_constant_value():
    t0 = time.perf_counter()
    f = realize(FunctionSpec("eta_family", {"eta": 1, "truncation": 10 ** 7},
                             "float"))
    value, tail = first_zero_with_tail(f, -2)
    elapsed = time.perf_counter() - t0
    err = abs(complex(value).real - EULER_FIRST_ZERO)
    assert err <= 1e-5
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2: PASS — first zero {complex(value).real:.8f} vs "
          f"(8pi^2-57)/(8pi^2-54) = {EULER_FIRST_ZERO:.8f}, err {err:.2e} <= 1e-5, "
          f"tail {tail:.2e}, {elapsed:.1f}s")


def test_acceptance_3_bergman_extraneous_zero():
    t0 = time.perf_counter()
    target = BERGMAN_FIRST_ZERO
    errors = []
    M = 10 ** 5
    while M < 10 ** 7:
        f = realize(FunctionSpec("eta_family", {"eta": 0.8, "truncation": M},
                                 "float"))
        v, _ = first_zero_with_tail(f, -1)
        errors.append(abs(complex(v).real - target))
        M *= 2
    f = realize(FunctionSpec("eta_family", {"eta": 0.8, "truncation": 10 ** 7},
                             "float"))
    value, tail = first_zero_with_tail(f, -1)
    err = abs(complex(value).real - target)
    errors.append(err)
    elapsed = time.perf_counter() - t0
    assert err <= 1e-2
    assert err <= tail, "tail estimate must bracket the true value"
    assert all(b < a for a, b in zip(errors, errors[1:])), \
        f"errors not monotone under doubling: {errors}"
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3: PASS — first zero {complex(value).real:.6f} vs "
          f"119/121 = {target:.6f}, err {err:.2e} <= tail {tail:.2e}; errors "
          f"monotone over {len(errors)} truncations; {elapsed:.1f}s")


def test_acceptance_4_zero_location_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    alphas = (-2, -1, -0.5, 0, 0.5, 1, 2)
    checked = 0
    for _ in range(200):
        f = _random_poly(rng, 10)
        for alpha in alphas:
            bound = 1.0 if alpha >= 0 else 2.0 ** (alpha / 2.0)
            for res in optimal_sweep(f, 8, alpha):
                if res.p.degree < 1:
                    continue
                mm = poly_roots(res.p).min_modulus
                assert mm > bound - 1e-9, \
                    f"min modulus {mm} at alpha={alpha}, n={res.n}"
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4: PASS — {checked} approximants across 200 random f "
          f"and 7 alphas keep all zeros outside the bound; {elapsed:.1f}s")


def test_acceptance_5_levinson_vs_direct():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(1, 13))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[0] = rng.uniform(0.3, 1.0) + 0j
        f = Series.from_complex(c)
        state = levinson_solve(f, 20)
        # normal equations: M^T c = conj(f(0)) e_0 (M Hermitian, so M^T = conj(M))
        M = np.conj(gram_matrix(f, 20, 0))
        rhs_full = np.zeros(21, dtype=np.complex128)
        rhs_full[0] = np.conj(f.at0())
        for n in range(21):
            direct = np.linalg.solve(M[: n + 1, : n + 1], rhs_full[: n + 1])
            worst = max(worst, float(np.max(np.abs(
                np.asarray(state.history[n]) - direct))))
    assert worst <= 1e-9
    oc = outer_criterion(ONE_MINUS_Z, levinson_solve(ONE_MINUS_Z, 20))
    assert all(p == Fraction(n + 3, 2 * (n + 2))
               for n, p in enumerate(oc.partial_products))
    assert oc.target == ExactComplex(Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 5: PASS — Levinson matches the direct solve for 100 "
          f"random f up to n=20 (max deviation {worst:.2e} <= 1e-9); Cesaro "
          f"outer products exactly (n+3)/(2(n+2)) with target 1/2; {elapsed:.1f}s")


GOLDEN_SET = (
    (ONE_MINUS_Z, 0),
    (CUBE, -2),
    (Series.exact([1]), 1),
    (realize(FunctionSpec("blaschke", {"lambda": 0.5, "truncation": 2000},
                          "float")), 0),
)


def test_acceptance_6_six_equal_quantities():
    worst_float = 0.0
    for f, alpha in GOLDEN_SET:
        for n in range(0, 11):
            eq = equal_quantities(f, n, alpha)
            if f.backend == "exact":
                vals = eq.as_tuple()
                assert all(v == vals[0] for v in vals[1:]), (alpha, n, vals)
            else:
                worst_float = max(worst_float, eq.max_pairwise_gap())
    assert worst_float <= 1e-9
    print(f"ACCEPTANCE 6: PASS — six distance quantities identical in exact "
          f"arithmetic and within {worst_float:.2e} <= 1e-9 in floats, "
          f"golden set, n <= 10")


def test_acceptance_7_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    one = Series.from_complex([1.0])

    ortho_defect = 0.0
    repro_err = 0.0
    szego_worst = 0.0
    resid_worst = 0.0
    for _ in range(10):
        f = _random_poly(rng, 8)
        for alpha in (-1, 0, 0.5):
            n = 6
            bas = basis(f, n, alpha)
            phis = bas.phis
            # orthonormality
            for j in range(n + 1):
                for k in range(j + 1):
                    v = weighted_inner(phis[j], phis[k], f, alpha)
                    ortho_defect = max(ortho_defect,
                                       abs(v - (1.0 if j == k else 0.0)))
            # reproducing property at a random interior point
            w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            q = _random_poly(rng, n, min_f0=0.0)
            from optapprox import poly_eval

            fw = complex(poly_eval(f, w))
            kern = np.zeros(n + 1, dtype=np.complex128)
            for phi in phis:
                kern[: len(phi)] += np.conj(complex(poly_eval(phi, w)) * fw) * \
                    np.asarray(phi.coeffs)
            lhs = inner(poly_mul(q, f), poly_mul(Series.from_complex(kern), f),
                        alpha)
            rhs = complex(poly_eval(q, w)) * fw
            scale_ = 1 + abs(rhs) + math.sqrt(abs(norm_sq(poly_mul(q, f), alpha)))
            repro_err = max(repro_err, abs(lhs - rhs) / scale_)
            # residual orthogonality and distance monotonicity
            prev = None
            for res in optimal_sweep(f, n, alpha):
                r = poly_add(poly_mul(res.p, f), scale(one, -1.0))
                bound = 1e-10 * (1 + norm_sq(f, alpha))
                for l in range(res.n + 1):
                    resid_worst = max(resid_worst,
                                      abs(inner(r, shift(f, l), alpha)) / bound)
                if prev is not None:
                    assert res.distance_sq <= prev + 1e-12
                prev = res.distance_sq
        # reflected-polynomial identity at alpha = 0
        for n in range(1, 7):
            szego_worst = max(szego_worst, szego_identity_residual(f, n))
    assert ortho_defect <= 1e-10
    assert repro_err <= 1e-9
    assert szego_worst <= 1e-10
    assert resid_worst <= 1.0  # already normalized by the 1e-10 bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7: PASS — orthonormality defect {ortho_defect:.1e}, "
          f"reproducing-property error {repro_err:.1e}, reflected-identity "
          f"residual {szego_worst:.1e}, residual orthogonality within bound, "
          f"distances monotone; {elapsed:.1f}s")


def test_acceptance_8_zero_sweep_figure(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main(["zeros", "--f", '{"family":"one_minus_z_pow","params":{"N":1}}',
                 "--alpha", "0", "--n-range", "0..50", "--format", "csv",
                 "--output", str(out_path)])
    assert code == 0
    import csv as csvmod

    rows = list(csvmod.DictReader(out_path.open()))
    assert len(rows) == sum(range(51))  # 1 + 2 + ... + 50 = 1275
    assert all(float(r["modulus"]) > 1.0 for r in rows)
    for n in range(51):
        negatives = [r for r in rows if int(r["n"]) == n
                     and abs(float(r["im"])) < 1e-9 and float(r["re"]) < 0]
        assert len(negatives) == (1 if n % 2 == 1 else 0), f"n={n}"
    print(f"ACCEPTANCE 8: PASS — zeros sweep for 1/(1-z), n=0..50: "
          f"{len(rows)} root rows, all moduli > 1, odd n has exactly one "
          f"real negative root, even n none")
