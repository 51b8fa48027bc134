"""Shared helpers for the test suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

from optapprox import ExactComplex, Series, toeplitz_column
from optapprox.exact import abs_sq


def exact_gauss_solve(matrix, rhs):
    """Independent oracle: naive Gaussian elimination over ExactComplex.

    Deliberately distinct from the library's fraction-free (Bareiss)
    solver so the two can cross-check each other.
    """
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not a[r][col].is_zero)
        a[col], a[piv] = a[piv], a[col]
        inv = ExactComplex(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def cofactor_det(M):
    """Independent oracle: the determinant of a square matrix of
    ExactComplex by cofactor expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    total = ExactComplex(0)
    for j, a in enumerate(M[0]):
        term = a * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def levinson_oracle(f, n):
    """Independent oracle: the Levinson recursion of
    ``levinson.levinson_solve`` one scalar at a time, on the same
    autocorrelation column.  Returns (coefficients at degree n, gammas,
    coefficients at every degree 0..n), all for f."""
    f0_sq = abs_sq(f.at0())
    r = [x.conjugate() / f0_sq for x in toeplitz_column(f, n)]
    c = [1 / r[0]]
    history, gammas = [c], []
    for m in range(n):
        gamma = sum((c[m - k] * r[k + 1] for k in range(m + 1)), start=f.scalar(0))
        prev, denom = c + [f.scalar(0)], f.scalar(1 - abs_sq(gamma))
        c = [(prev[k] - gamma * prev[m + 1 - k].conjugate()) / denom for k in range(m + 2)]
        gammas.append(gamma)
        history.append(c)
    inv_f0 = 1 / f.scalar(f.at0())
    history = tuple(tuple(ck * inv_f0 for ck in row) for row in history)
    return history[-1], tuple(gammas), history


def dense_poly(rng, degree):
    """A float polynomial drawn as the float-dense benchmark draws f:
    c prod (1 - z/r_j), with |c| in [0.5, 2] and every root off an annulus
    around the unit circle (|r_j| in [0.25, 0.75] or [1.3, 3])."""
    coeffs = np.array([rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))])
    for _ in range(degree):
        radius = rng.uniform(0.25, 0.75) if rng.random() < 0.25 else rng.uniform(1.3, 3.0)
        root = radius * np.exp(1j * rng.uniform(-np.pi, np.pi))
        coeffs = np.append(coeffs, 0) - np.append(0, coeffs) / root
    return Series.from_complex(coeffs)


def random_poly(rng, max_deg, min_f0=0.2, complex_coeffs=True):
    """Random float-backend polynomial with f(0) bounded away from zero."""
    deg = int(rng.integers(1, max_deg + 1))
    c = rng.uniform(0.0, 1.0, deg + 1).astype(np.complex128)
    if complex_coeffs:
        c += 1j * rng.uniform(0.0, 1.0, deg + 1)
    c[0] = rng.uniform(min_f0, 1.0)
    return Series.from_complex(c)


#: Bits of the fixed-point eta coefficients of :func:`eta_fixed_point`.
FIXED_BITS = 128


def eta_fixed_point(eta: float, length: int) -> list:
    """a_0..a_{length-1} of (1+z)/(1-z)^eta as integers scaled by
    2^FIXED_BITS, from g_k = g_{k-1} ((k-1) + eta) / k in integer steps
    (the float eta is a ratio of integers), each floored: off by fewer
    than ``length`` units, where the library's float product drifts by up
    to 1e-12 relative over 3e4 coefficients."""
    num, den = float(eta).as_integer_ratio()
    g = [1 << FIXED_BITS]
    for k in range(1, length):
        g.append(g[-1] * ((k - 1) * den + num) // (k * den))
    return g[:1] + [x + y for x, y in zip(g[1:], g)]


def blaschke_fixed_point(lam: complex, length: int) -> np.ndarray:
    """b_0..b_{length-1} of (lambda - z)/(1 - conj(lambda) z) for the float
    lambda: b_0 = lambda and b_j = s c^(j-1) for the exact s = |lambda|^2 - 1
    and c = conj(lambda), with the parts of c^j in integer steps scaled by
    2^FIXED_BITS, each floored, then rounded to complex128.  Each b_j is
    off by fewer than 2 j units of 2^-FIXED_BITS before that rounding."""
    a, b = Fraction(lam.real), Fraction(lam.imag)
    D = math.lcm(a.denominator, b.denominator)
    cr, ci = int(a * D), int(-b * D)            # c = (cr + i ci) / D
    s = a * a + b * b - 1
    one = 1 << FIXED_BITS
    out, (pr, pi) = [complex(lam)], (one, 0)    # c^0
    for _ in range(length - 1):
        out.append(complex(s.numerator * pr // s.denominator / one,
                           s.numerator * pi // s.denominator / one))
        pr, pi = (pr * cr - pi * ci) // D, (pr * ci + pi * cr) // D
    return np.array(out)


def frac(s):
    return Fraction(s)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


#: The factor routine of each backend, for the factor-once spies: the float
#: one is one zpotrf call, or one per panel above order 63.
FACTORIZERS = [("exact", "_eliminate"), pytest.param("float", "_cholesky", id="float-zpotrf")]


@pytest.fixture
def lapack_orders(monkeypatch):
    """The order of every zpotrf and ztrtri call linsolve makes."""
    from optapprox import linsolve

    orders = []
    for name in ("zpotrf", "ztrtri"):
        fn = getattr(linsolve, name)
        monkeypatch.setattr(linsolve, name,
                            lambda A, *a, _fn=fn, **k: orders.append(len(A)) or _fn(A, *a, **k))
    return orders
