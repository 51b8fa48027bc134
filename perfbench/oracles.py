"""Per-job output checks, run outside the timed region.

The checks rebuild what they need from the job's inputs with their own
code -- Gram matrices, eta coefficients, kernels -- and use the library
only where a closed form or an independent route is the point of the
check: ``cesaro_closed_form``, ``hardy_power_closed_form`` and, for
float alpha = 0 solves, ``levinson_solve``.

* 1/(1-z) results are byte-equal to ``cesaro_closed_form``;
* (1-z)^N at alpha = 0 is byte-equal to ``hardy_power_closed_form``;
* every other exact approximant satisfies its normal equations exactly;
* every root lies outside radius 1 (alpha >= 0) or 2^(alpha/2) (alpha < 0),
  and a sweep's roots at the top degree and at half of it are those of an
  independent solve;
* Blaschke factors give p_n = conj(lambda) and d^2 = 1 - |lambda|^2;
* the paper's eta first zeros match their limits at the tolerances of
  ``optapprox verify``;
* cyclicity p_n(0) equal an independent solve at every n (exactly, by
  Cramer's rule, on the exact backend), and the distances are nonincreasing;
* float alpha = 0 solves agree with ``levinson_solve``.

Run as a script, it answers check requests on stdin (see ``serve``), so
that the checks run in a process of their own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from optapprox import families, levinson

from workloads import PAPER_FIRST_ZEROS, Job

#: Tolerances of the eta first-zero checks in ``optapprox verify``.
PAPER_TOLERANCE = {(1.0, -2.0): 1e-5, (0.8, -1.0): 1e-2}
#: Slack on the zero-location bound, as in ``zeros.zero_bound_check``.
ROOT_SLACK = 1e-9
#: Relative distance within which a reported root matches an expected one.
ROOT_RTOL = 1e-6
#: Float coefficients up to this size count as zero in a polynomial's
#: degree, as ``series.DEGREE_EPSILON`` documents.
DEGREE_EPSILON = 1e-11


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- parsing ------------------------------------------------------------

def parse(command: str, text: str):
    if command == "zeros":
        rows = list(csv.reader(io.StringIO(text)))
        _require(rows and rows[0] == ["n", "root_index", "re", "im", "modulus"],
                 "zeros: bad CSV header")
        return [[int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4])]
                for r in rows[1:]]
    return json.loads(text)


def _rational(s) -> Fraction:
    _require(isinstance(s, str), f"expected a real rational string, got {s!r}")
    return Fraction(s)


def _rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cfloat(x) -> complex:
    if isinstance(x, dict):
        return complex(float(x["re"]), float(x["im"]))
    return complex(float(x))


# -- negative control ---------------------------------------------------

def _bump(x):
    """x + 1 in the serialized scalar form x came in."""
    if isinstance(x, str):
        return _rational_str(Fraction(x) + 1)
    if isinstance(x, dict):
        return {**x, "re": _bump(x["re"])}
    return x + 1.0


def corrupt(command: str, out):
    """Damage one value of a parsed output so that its check must fail."""
    if command == "zeros":
        out[0][2:5] = [0.0, 0.0, 0.0]
    elif command == "cyclicity":
        out["rows"][-1]["distance_sq"] = _bump(out["rows"][-1]["distance_sq"])
    elif command == "orthopoly":
        out["phis"][-1][0] = _bump(out["phis"][-1][0])
    elif command == "kernel":
        out["value"] = _bump(out["value"])
    elif command == "first-zero":
        out["value"] = _bump(out["value"])
    else:
        out["coefficients"][0] = _bump(out["coefficients"][0])
    return out


# -- the function under study, rebuilt from the job's spec --------------

def _exact_coeffs(f: dict) -> list:
    if "coefficients" in f:
        return [Fraction(c) for c in f["coefficients"]]
    N = f["params"]["N"]
    sign = -1 if f["family"] == "one_minus_z_pow" else 1
    return [Fraction(sign ** k * math.comb(N, k)) for k in range(N + 1)]


def _eta_coeffs(eta: float, M: int) -> np.ndarray:
    """a_k of (1+z)/(1-z)^eta from g_k = Gamma(k+eta)/(Gamma(eta) k!)."""
    k = np.arange(M + 1, dtype=np.float64)
    g = np.exp(gammaln(k + eta) - gammaln(eta) - gammaln(k + 1))
    a = g.copy()
    a[1:] += g[:-1]
    return a


def _float_coeffs(f: dict) -> np.ndarray:
    if "coefficients" in f:
        return np.array([_cfloat(c) for c in f["coefficients"]], dtype=np.complex128)
    p = f["params"]
    if f["family"] == "eta_family":
        return _eta_coeffs(float(p["eta"]), int(p["truncation"])).astype(np.complex128)
    lam = _blaschke_lambda(f)
    M = int(p["truncation"])
    b = np.empty(M + 1, dtype=np.complex128)
    b[0] = lam
    b[1:] = -(1 - abs(lam) ** 2) * np.conj(lam) ** np.arange(M)
    return b


def _blaschke_lambda(f: dict) -> complex:
    return _cfloat(f["params"]["lambda"])


def _library_series(job: Job):
    return families.realize(families.spec_from_json(job.f, backend=job.backend))


# -- Gram matrices and normal equations ---------------------------------

def _exact_gram(a: list, n: int, alpha: int) -> list:
    """G[k][l] = <z^k f, z^l f>_alpha = sum_m (m+1)^alpha a_{m-k} a_{m-l}
    for real rational coefficients a."""
    d = len(a) - 1
    G = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for l in range(k, n + 1):
            acc = Fraction(0)
            for m in range(l, k + d + 1):
                acc += Fraction(m + 1) ** alpha * a[m - k] * a[m - l]
            G[k][l] = G[l][k] = acc
    return G


def _check_exact_normal_equations(a: list, alpha: int, c: list) -> None:
    """sum_k <z^k f, z^l f> c_k = conj(f(0)) delta_{l0}, exactly."""
    n = len(c) - 1
    G = _exact_gram(a, n, alpha)
    for l in range(n + 1):
        lhs = sum((G[k][l] * c[k] for k in range(n + 1)), Fraction(0))
        _require(lhs == (a[0] if l == 0 else 0), f"normal equation {l} fails exactly")


def _eliminate(G: list, rhs: list) -> tuple:
    """Gaussian elimination without pivoting on the positive definite G,
    exactly, with rhs eliminated alongside in place.  Returns the pivots
    and the unit upper triangular factor.  The product of the first k + 1
    pivots is det G[:k+1, :k+1]."""
    A = [row[:] for row in G]
    pivots = []
    for k in range(len(A)):
        p = A[k][k]
        _require(p > 0, f"Gram matrix not positive definite at {k}")
        pivots.append(p)
        for i in range(k + 1, len(A)):
            r = A[i][k] / p
            if r:
                for j in range(k + 1, len(A)):
                    A[i][j] -= r * A[k][j]
                rhs[i] -= r * rhs[k]
        A[k] = [x / p for x in A[k]]
        rhs[k] /= p
    return pivots, A


def _solve_exact(a: list, n: int, alpha: int) -> list:
    """The coefficients of p_n, from the normal equations, exactly."""
    rhs = [a[0]] + [Fraction(0)] * n
    _, U = _eliminate(_exact_gram(a, n, alpha), rhs)
    for k in range(n, -1, -1):
        rhs[k] -= sum((U[k][j] * rhs[j] for j in range(k + 1, n + 1)), Fraction(0))
    return rhs


def _exact_p0s(a: list, N: int, alpha: int) -> list:
    """p_n(0) for n = 0..N by Cramer's rule: p_n(0) = conj(f(0)) times
    det G[1:n+1, 1:n+1] / det G[:n+1, :n+1], from the pivots of the two
    nested families of leading minors."""
    G = _exact_gram(a, N, alpha)
    full, _ = _eliminate(G, [Fraction(0)] * (N + 1))
    inner, _ = _eliminate([row[1:] for row in G[1:]], [Fraction(0)] * N)
    inner = [Fraction(1)] + inner
    out, num, den = [], Fraction(1), Fraction(1)
    for n in range(N + 1):
        num *= inner[n]
        den *= full[n]
        out.append(a[0] * num / den)
    return out


def _float_gram(a: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """G[k, l] = <z^k f, z^l f>_alpha for complex coefficients a."""
    d = len(a) - 1
    w = np.arange(1, n + d + 2, dtype=np.float64) ** float(alpha)
    if d <= 4 * n:
        F = np.zeros((n + d + 1, n + 1), dtype=np.complex128)
        for k in range(n + 1):
            F[k:k + d + 1, k] = a
        return F.T @ (w[:, None] * np.conj(F))
    G = np.empty((n + 1, n + 1), dtype=np.complex128)
    for k in range(n + 1):
        for l in range(k, n + 1):
            G[k, l] = np.sum(w[l:k + d + 1] * a[l - k:] * np.conj(a[:d + 1 - (l - k)]))
            G[l, k] = np.conj(G[k, l])
    return G


def _check_float_normal_equations(a: np.ndarray, alpha: float, c: np.ndarray,
                                  rtol: float = 1e-9) -> None:
    G = _float_gram(a, len(c) - 1, alpha)
    rhs = np.zeros(len(c), dtype=np.complex128)
    rhs[0] = np.conj(a[0])
    resid = np.linalg.norm(G.T @ c - rhs)
    scale = np.linalg.norm(G, 2) * np.linalg.norm(c)
    _require(resid <= rtol * scale, f"normal-equation residual {resid:.3e} "
             f"exceeds {rtol:g} x {scale:.3e}")


def _solve_float(a: np.ndarray, n: int, alpha: float) -> np.ndarray:
    G = _float_gram(a, n, alpha)
    rhs = np.zeros(n + 1, dtype=np.complex128)
    rhs[0] = np.conj(a[0])
    return np.linalg.solve(G.T, rhs)


def _close(x, y, rtol: float, what: str) -> None:
    x, y = np.asarray(x), np.asarray(y)
    err = float(np.max(np.abs(x - y))) if x.size else 0.0
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 0.0)
    _require(x.shape == y.shape and err <= rtol * scale,
             f"{what}: deviation {err:.3e} exceeds {rtol:g} x {scale:.3e}")


def _check_levinson_agreement(job: Job, p0s=None, coeffs=None) -> None:
    """A float alpha = 0 solve agrees with levinson_solve on the same f."""
    state = levinson.levinson_solve(_library_series(job), job.n)
    if coeffs is not None:
        _close(coeffs, np.asarray(state.history[-1], dtype=np.complex128), 1e-8,
               "alpha = 0 solve vs levinson_solve")
    if p0s is not None:
        _close(p0s, np.array([row[0] for row in state.history], dtype=np.complex128),
               1e-8, "alpha = 0 p_n(0) vs levinson_solve")


# -- roots --------------------------------------------------------------

def _root_bound(alpha: float) -> float:
    return 1.0 if alpha >= 0 else 2.0 ** (alpha / 2.0)


def _check_roots(roots, alpha: float) -> None:
    bound = _root_bound(alpha)
    for z in roots:
        _require(abs(z) > bound - ROOT_SLACK,
                 f"root {z} has modulus {abs(z):.12f} <= bound {bound:.12f}")


def _match_roots(got, coeffs, what: str) -> None:
    """The reported roots ``got`` are, as a multiset, the roots of the
    polynomial with coefficients ``coeffs`` (constant term first), whose
    coefficients above the reported degree must be float zeros."""
    c = np.asarray(coeffs, dtype=np.complex128)
    d = len(got)
    _require(d < len(c) and abs(c[d]) > DEGREE_EPSILON / 2
             and bool(np.all(np.abs(c[d + 1:]) <= 2 * DEGREE_EPSILON)),
             f"{what}: {d} roots reported for coefficients {np.abs(c[d:d + 3])}...")
    left = list(got)
    for z in np.roots(c[:d + 1][::-1]):
        i = min(range(len(left)), key=lambda i: abs(left[i] - z))
        err = abs(left.pop(i) - z)
        _require(err <= ROOT_RTOL * max(1.0, abs(z)),
                 f"{what}: root {z} missed by {err:.3e}")


def _approximant_roots(out) -> list:
    roots = []
    for r in out["zeros"]:
        z = complex(r["re"], r["im"])
        _require(math.isclose(abs(z), r["modulus"], rel_tol=1e-12), "modulus mismatch")
        roots.append(z)
    return roots


# -- per-command checks -------------------------------------------------

def _check_approximant_exact(job: Job, out) -> None:
    c = [_rational(x) for x in out["coefficients"]]
    _require(len(c) == job.n + 1, "wrong number of coefficients")
    a = _exact_coeffs(job.f)
    alpha = int(job.alpha)
    fam, N = job.f.get("family"), job.f.get("params", {}).get("N")
    if fam == "one_minus_z_pow" and N == 1:
        closed = families.cesaro_closed_form(job.n, alpha)
        _require(out["coefficients"] == [_rational_str(x.re) for x in closed.coeffs],
                 "differs from cesaro_closed_form")
    elif fam == "one_minus_z_pow" and alpha == 0:
        closed = families.hardy_power_closed_form(N, job.n)
        _require(out["coefficients"] == [_rational_str(x.re) for x in closed.coeffs],
                 "differs from hardy_power_closed_form")
    else:
        _check_exact_normal_equations(a, alpha, c)
    _require(out["p0"] == out["coefficients"][0], "p0 differs from coefficient 0")
    _require(_rational(out["distance_sq"]) == 1 - c[0] * a[0], "Gram's lemma fails")
    _check_roots(_approximant_roots(out), job.alpha)


def _check_approximant_float(job: Job, out) -> None:
    c = np.array([_cfloat(x) for x in out["coefficients"]], dtype=np.complex128)
    _require(len(c) == job.n + 1, "wrong number of coefficients")
    p0 = _cfloat(out["p0"])
    dist = float(out["distance_sq"])
    if job.f.get("family") == "blaschke":
        lam = _blaschke_lambda(job.f)
        expected = np.zeros(job.n + 1, dtype=np.complex128)
        expected[0] = np.conj(lam)
        _close(c, expected, 1e-9, "Blaschke p_n vs conj(lambda)")
        _require(abs(dist - (1 - abs(lam) ** 2)) <= 1e-9, "Blaschke d^2 vs 1 - |lambda|^2")
    else:
        a = _float_coeffs(job.f)
        _check_float_normal_equations(a, job.alpha, c)
        _require(abs(dist - (1 - (p0 * a[0]).real)) <= 1e-12, "Gram's lemma fails")
    _require(p0 == c[0], "p0 differs from coefficient 0")
    _require(-1e-9 <= dist <= 1 + 1e-9, f"distance {dist} outside [0, 1]")
    _check_roots(_approximant_roots(out), job.alpha)
    if job.alpha == 0:
        _check_levinson_agreement(job, coeffs=c)


def _check_zeros(job: Job, rows) -> None:
    counts, roots = {}, {}
    for n, idx, re, im, modulus in rows:
        _require(0 <= n <= job.n and idx == counts.get(n, 0), f"bad row n={n} index={idx}")
        counts[n] = idx + 1
        _require(math.isclose(abs(complex(re, im)), modulus, rel_tol=1e-12),
                 "modulus mismatch")
        roots.setdefault(n, []).append(complex(re, im))
    _require(all(k <= n for n, k in counts.items()), "more roots than the degree")
    _require(counts.get(job.n, 0) >= 1, "no roots at the top degree")
    _check_roots([complex(r[2], r[3]) for r in rows], job.alpha)
    for n in sorted({job.n, job.n // 2} - {0}):
        if job.backend == "exact":
            c = [float(x) for x in _solve_exact(_exact_coeffs(job.f), n, int(job.alpha))]
        else:
            c = _solve_float(_float_coeffs(job.f), n, job.alpha)
        _match_roots(roots.get(n, []), c, f"roots of p_{n} vs an independent solve")


def _check_cyclicity(job: Job, out) -> None:
    rows = out["rows"]
    _require([r["n"] for r in rows] == list(range(job.n + 1)), "rows do not cover 0..N")
    if job.backend == "exact":
        a0 = _exact_coeffs(job.f)[0]
        p0 = [_rational(r["p0"]) for r in rows]
        sums = [_rational(r["partial_sum"]) for r in rows]
        dist = [_rational(r["distance_sq"]) for r in rows]
        _require(all(p == a0 * s for p, s in zip(p0, sums)), "p_n(0) != conj(f(0)) sum")
        _require(all(d == 1 - p * a0 for d, p in zip(dist, p0)), "Gram's lemma fails")
        fam, N = job.f.get("family"), job.f.get("params", {}).get("N")
        if fam == "one_minus_z_pow" and N == 1:
            closed = [families.cesaro_closed_form(n, int(job.alpha)).coeffs[0].re
                      for n in range(job.n + 1)]
            _require(p0 == closed, "p_n(0) differs from cesaro_closed_form")
        else:
            expected = _exact_p0s(_exact_coeffs(job.f), job.n, int(job.alpha))
            bad = [n for n, (x, y) in enumerate(zip(p0, expected)) if x != y]
            _require(not bad, f"p_n(0) differs from Cramer's rule at n = {bad[:5]}")
    else:
        p0 = np.array([_cfloat(r["p0"]) for r in rows])
        sums = [float(r["partial_sum"]) for r in rows]
        dist = [float(r["distance_sq"]) for r in rows]
        if job.f.get("family") == "blaschke":
            lam = _blaschke_lambda(job.f)
            _close(p0, np.full(len(rows), np.conj(lam)), 1e-9, "Blaschke p_n(0)")
            _close(dist, np.full(len(rows), 1 - abs(lam) ** 2), 1e-9, "Blaschke d_n^2")
        else:
            a = _float_coeffs(job.f)
            G = _float_gram(a, job.n, job.alpha)
            expected = [np.conj(a[0]) * np.linalg.inv(G[:n + 1, :n + 1].T)[0, 0]
                        for n in range(job.n + 1)]
            _close(p0, np.array(expected), 1e-7, "p_n(0) vs an independent solve")
        if job.alpha == 0:
            _check_levinson_agreement(job, p0s=p0)
    _require(all(x >= y for x, y in zip(dist, dist[1:])), "distances increase")
    _require(all(x <= y for x, y in zip(sums, sums[1:])), "partial sums decrease")


def _check_orthopoly(job: Job, out) -> None:
    n = job.n
    P = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for k, phi in enumerate(out["phis"]):
        _require(len(phi) == k + 1, f"phi_{k} has the wrong degree")
        P[k, :k + 1] = [_cfloat(x) for x in phi]
    G = _float_gram(_float_coeffs(job.f), n, job.alpha)
    _close(P @ G @ P.conj().T, np.eye(n + 1), 1e-7, "orthonormality")
    lead = np.asarray(out["leading_coefficients"])
    _close(lead, 1 / np.sqrt(np.asarray(out["norms_sq"], dtype=np.float64)), 1e-12,
           "leading coefficients vs norms")
    _require(bool(np.all(lead > 0)), "nonpositive leading coefficient")
    _close(np.diag(P), lead, 1e-12, "phi leading coefficients")


def _kernel(a: np.ndarray, n: int, alpha: float, z: complex, w: complex) -> complex:
    """K_n(z, w) = u(z)^T conj(G^-1 u(w)) with u_j(z) = z^j f(z)."""
    G = _float_gram(a, n, alpha)
    fz = np.polyval(a[::-1], z)
    fw = np.polyval(a[::-1], w)
    uz = fz * z ** np.arange(n + 1)
    uw = fw * w ** np.arange(n + 1)
    return complex(uz @ np.conj(np.linalg.solve(G, uw)))


def _check_kernel(job: Job, out) -> None:
    a = _float_coeffs(job.f)
    _close(_cfloat(out["value"]), _kernel(a, job.n, job.alpha, job.z, job.w), 1e-7,
           "K_n(z, w)")
    k00 = _kernel(a, job.n, job.alpha, 0j, 0j)
    _close(float(out["extremal_value_at_zero"]), math.sqrt(k00.real), 1e-7,
           "sqrt(K_n(0, 0))")


def _check_levinson(job: Job, out) -> None:
    gammas = out["gammas"]
    products = out["outer_partial_products"]
    if job.backend == "exact":
        a = _exact_coeffs(job.f)
        c = [_rational(x) for x in out["coefficients"]]
        _check_exact_normal_equations(a, 0, c)
        auto = [sum((a[m - k] * a[m] for m in range(k, len(a))), Fraction(0))
                for k in range(job.n + 1)]
        _require([_rational(x) for x in out["autocorrelation"]] == auto,
                 "autocorrelation differs")
        _require(all(_rational(g) ** 2 < 1 for g in gammas), "|Gamma| >= 1")
        prods = [_rational(p) for p in products]
    else:
        a = _float_coeffs(job.f)
        c = np.array([_cfloat(x) for x in out["coefficients"]], dtype=np.complex128)
        _check_float_normal_equations(a, 0.0, c, rtol=1e-8)
        auto = [np.sum(a[:len(a) - k] * np.conj(a[k:])) if k < len(a) else 0j
                for k in range(job.n + 1)]
        _close(np.array([_cfloat(x) for x in out["autocorrelation"]]), np.array(auto),
               1e-12, "autocorrelation")
        _require(all(abs(_cfloat(g)) < 1 for g in gammas), "|Gamma| >= 1")
        prods = [float(p) for p in products]
    _require(len(c) == job.n + 1 and len(gammas) == job.n, "wrong output length")
    _require(all(0 < p <= 1 for p in prods) and
             all(x >= y for x, y in zip(prods, prods[1:])),
             "outer partial products not in (0, 1] and nonincreasing")


def _check_first_zero(job: Job, out) -> None:
    _require(out["finite"] is True, "first zero reported infinite")
    z1 = _cfloat(out["value"])
    tail = float(out["tail_error_bound"])
    _require(math.isfinite(tail) and tail >= 0, "bad tail_error_bound")
    eta = float(job.f["params"]["eta"])
    key = (eta, float(job.alpha))
    if key in PAPER_FIRST_ZEROS:
        err = abs(z1 - PAPER_FIRST_ZEROS[key])
        _require(err <= PAPER_TOLERANCE[key], f"first zero off its limit by {err:.3e}")
    else:
        a = _eta_coeffs(eta, int(job.f["params"]["truncation"]))
        m = np.arange(len(a), dtype=np.float64)
        num = np.sum((m + 2) ** float(job.alpha) * a * a)          # ||z f||^2
        den = np.sum((m[1:] + 1) ** float(job.alpha) * a[1:] * a[:-1])  # <f, z f>
        _close(z1, num / den, 1e-8, "first zero vs an independent sum")


def verify(job: Job, rc: int, text: str, err: str, damage: bool = False):
    """Check one job's result; returns None if it is right, else why not.
    ``damage`` corrupts the output first (the negative control)."""
    try:
        if rc != 0:
            raise Mismatch(f"exit code {rc}: {err.strip()[:300]}")
        out = parse(job.command, text)
        if damage:
            out = corrupt(job.command, out)
        check(job, out)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def serve(requests, replies) -> None:
    """Answer check requests until ``requests`` ends.  A request is one
    JSON line with the keys job (``Job.to_json``), rc, stdout, stderr and
    damage; the reply is one JSON line {"why": null or the reason}."""
    for line in requests:
        req = json.loads(line)
        why = verify(Job.from_json(req["job"]), req["rc"], req["stdout"], req["stderr"],
                     req["damage"])
        replies.write(json.dumps({"why": why}) + "\n")
        replies.flush()


def check(job: Job, out) -> None:
    """Raise Mismatch unless the parsed output ``out`` is right for ``job``."""
    cmd = job.command
    if cmd == "approximant":
        if job.backend == "exact":
            _check_approximant_exact(job, out)
        else:
            _check_approximant_float(job, out)
    elif cmd == "zeros":
        _check_zeros(job, out)
    elif cmd == "cyclicity":
        _check_cyclicity(job, out)
    elif cmd == "orthopoly":
        _check_orthopoly(job, out)
    elif cmd == "kernel":
        _check_kernel(job, out)
    elif cmd == "levinson":
        _check_levinson(job, out)
    elif cmd == "first-zero":
        _check_first_zero(job, out)
    else:
        raise Mismatch(f"no oracle for command {cmd!r}")


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
