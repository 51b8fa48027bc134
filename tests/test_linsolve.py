"""The one factorization of linsolve: solves, determinants and the monic
orthogonal basis of exact fraction-free elimination, against oracles that
share no code with it, the float reads against numpy, and one
factorization per call of every public entry that needs one."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optapprox import ExactComplex, Series, basis, gram_matrix, weighted_inner
from optapprox.errors import ConditioningError, DegenerateError, InstabilityError
from optapprox.linsolve import factor, forward, solve

from conftest import FACTORIZERS, cofactor_det, exact_gauss_solve

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
gaussian_rationals = st.builds(ExactComplex, rationals, rationals)


@st.composite
def functions(draw):
    """Exact polynomials of degree <= 3 with f(0) != 0, with real or
    Gaussian-rational coefficients."""
    part = gaussian_rationals if draw(st.booleans()) else st.builds(ExactComplex, rationals)
    coeffs = draw(st.lists(part, min_size=1, max_size=4))
    assume(not coeffs[0].is_zero)
    return Series(tuple(coeffs))


@st.composite
def square_matrices(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    return tuple(tuple(draw(gaussian_rationals) for _ in range(n)) for _ in range(n))


def elimination_det(M):
    """det M as the elimination of factor(M) leaves it: the last leading
    minor over the n-th power of the common denominator."""
    F = factor(M)
    n = len(F.minors) - 1
    last = F.minors[n]
    re, im = last if isinstance(last, tuple) else (last, 0)
    den = (F.den[0] if isinstance(F.den, tuple) else F.den) ** n
    return ExactComplex(Fraction(re, den), Fraction(im, den))


def leading_minors_nonzero(M):
    return all(not cofactor_det([row[:m] for row in M[:m]]).is_zero
               for m in range(1, len(M) + 1))


alphas = st.integers(-2, 2)


def inverse_from_ldl(G):
    """G^-1 = L^-H D^-1 L^-1 from the forward read with B = I."""
    inv, norms = forward(factor(G))
    n = len(G)
    L = [list(row) + [ExactComplex(0)] * (n - len(row)) for row in inv]
    return [[sum((L[k][i].conjugate() * L[k][j] / norms[k] for k in range(n)),
                 ExactComplex(0)) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(functions(), st.integers(0, 4), alphas, gaussian_rationals)
def test_solve_matches_gauss_oracle_on_gram(f, n, alpha, b0):
    G = gram_matrix(f, n, alpha).to_exact()
    e0 = (f.at0(),) + (ExactComplex(0),) * n
    assert list(solve(factor(G, f.at0()))) == exact_gauss_solve(G, e0)
    rhs = (b0,) + (ExactComplex(0),) * n
    assert list(solve(factor(G, b0))) == exact_gauss_solve(G, rhs)
    # every leading system from the one elimination, in the order asked for
    sizes = list(range(n + 1, 0, -1))
    leading = [x for m in sizes
               for x in exact_gauss_solve([row[:m] for row in G[:m]], rhs[:m])]
    assert list(solve(factor(G, b0), sizes)) == leading
    # B = I: its first column, and every column of G^-1 from L^-1 and D
    unit = [[ExactComplex(int(i == j)) for i in range(n + 1)] for j in range(n + 1)]
    assert list(solve(factor(G))) == exact_gauss_solve(G, unit[0])
    inverse = inverse_from_ldl(G)
    for j in range(n + 1):
        assert [row[j] for row in inverse] == exact_gauss_solve(G, unit[j])


@settings(max_examples=60, deadline=None)
@given(square_matrices(), gaussian_rationals)
def test_solve_matches_gauss_oracle_on_general_matrices(M, b0):
    # non-Hermitian complex matrices have Gaussian-integer pivots
    assume(leading_minors_nonzero(M))
    rhs = (b0,) + (ExactComplex(0),) * (len(M) - 1)
    assert list(solve(factor(M, b0))) == exact_gauss_solve(M, rhs)


@settings(max_examples=60, deadline=None)
@given(functions(), st.integers(0, 4), alphas)
def test_det_matches_cofactor_expansion_on_gram(f, n, alpha):
    M = gram_matrix(f, n, alpha).to_exact()
    assert elimination_det(M) == cofactor_det(M)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_expansion_on_general_matrices(M):
    assume(len(M) == 1 or leading_minors_nonzero([row[:-1] for row in M[:-1]]))
    assert elimination_det(M) == cofactor_det(M)


@settings(max_examples=60, deadline=None)
@given(functions(), st.integers(0, 5), alphas)
def test_exact_basis_is_orthogonal_with_norms(f, n, alpha):
    bas = basis(f, n, alpha)
    for k, psi in enumerate(bas.monic):
        assert len(psi) == k + 1 and psi[k] == ExactComplex(1)
        for j in range(k):
            assert weighted_inner(psi, bas.monic[j], f, alpha) == ExactComplex(0)
        assert weighted_inner(psi, psi, f, alpha) == ExactComplex(bas.norms_sq[k])


ZERO_FIRST_PIVOT = ((ExactComplex(0), ExactComplex(1)), (ExactComplex(1), ExactComplex(0)))
ZERO_FIRST_PIVOT_COMPLEX = ((ExactComplex(0), ExactComplex(1, 1)),
                            (ExactComplex(1, -1), ExactComplex(2)))
ZERO_MIDDLE_PIVOT = tuple(tuple(ExactComplex(x) for x in row)
                          for row in ((1, 1, 0), (1, 1, 0), (0, 0, 1)))
SINGULAR = ((ExactComplex(1), ExactComplex(1)), (ExactComplex(1), ExactComplex(1)))


@pytest.mark.parametrize("M", [ZERO_FIRST_PIVOT, ZERO_FIRST_PIVOT_COMPLEX,
                               ZERO_MIDDLE_PIVOT, SINGULAR])
def test_zero_pivot_raises(M):
    with pytest.raises(DegenerateError):
        solve(factor(M, ExactComplex(1)))
    with pytest.raises(DegenerateError):
        forward(factor(M))


@pytest.mark.parametrize("M", [ZERO_FIRST_PIVOT, ZERO_FIRST_PIVOT_COMPLEX, ZERO_MIDDLE_PIVOT])
def test_det_zero_pivot_before_the_last_raises(M):
    with pytest.raises(DegenerateError):
        elimination_det(M)


def test_det_of_singular_matrix_is_zero():
    assert elimination_det(SINGULAR) == ExactComplex(0)


# -- band matrices and zero skipping -------------------------------------

@st.composite
def band_cases(draw):
    """An exact polynomial f of degree 1 or 2 and a degree n > 2 deg f, so
    that the Gram matrix has entries outside its band."""
    part = gaussian_rationals if draw(st.booleans()) else st.builds(ExactComplex, rationals)
    coeffs = draw(st.lists(part, min_size=2, max_size=3))
    assume(not coeffs[0].is_zero and not coeffs[-1].is_zero)
    f = Series(tuple(coeffs))
    n = draw(st.integers(2 * f.degree + 1, 2 * f.degree + 3))
    return f, n


def monic_orthogonal_oracle(G):
    """Row k of L^-1 and D_k for G = L D L^H from k x k Gauss solves: the
    monic psi_k is orthogonal to columns 0..k-1 of G, and D_k = psi_k G e_k."""
    inv, norms = [], []
    for k in range(len(G)):
        lower = [[G[i][j] for i in range(k)] for j in range(k)]
        row = exact_gauss_solve(lower, [-G[k][j] for j in range(k)]) + [ExactComplex(1)]
        inv.append(tuple(row))
        norms.append(sum((row[i] * G[i][k] for i in range(k + 1)), ExactComplex(0)).re)
    return inv, norms


@settings(max_examples=40, deadline=None)
@given(band_cases(), alphas)
def test_band_gram_solve_with_sizes(case, alpha):
    f, n = case
    G = gram_matrix(f, n, alpha).to_exact()
    assert G[0][n] == ExactComplex(0)   # outside the band
    rhs = (f.at0(),) + (ExactComplex(0),) * n
    sizes = list(range(1, n + 2))
    leading = [x for m in sizes
               for x in exact_gauss_solve([row[:m] for row in G[:m]], rhs[:m])]
    assert list(solve(factor(G, f.at0()), sizes)) == leading
    assert list(solve(factor(gram_matrix(f, n, alpha), f.at0()), sizes)) == leading


@settings(max_examples=40, deadline=None)
@given(band_cases(), alphas)
def test_band_gram_inverse_ldl(case, alpha):
    f, n = case
    G = gram_matrix(f, n, alpha).to_exact()
    oracle = monic_orthogonal_oracle(G)
    assert forward(factor(G)) == oracle
    assert forward(factor(gram_matrix(f, n, alpha))) == oracle


@settings(max_examples=25, deadline=None)
@given(band_cases(), alphas)
def test_band_gram_det(case, alpha):
    f, n = case
    n = min(n, 5)   # the cofactor oracle grows like n!
    G = gram_matrix(f, n, alpha)
    det = cofactor_det(G.to_exact())
    assert elimination_det(G.to_exact()) == det
    assert elimination_det(G) == det


sparse_entries = st.one_of(st.just(ExactComplex(0)), st.just(ExactComplex(0)),
                           gaussian_rationals, st.builds(ExactComplex, rationals))


@st.composite
def sparse_matrices(draw, max_size=6):
    n = draw(st.integers(1, max_size))
    return tuple(tuple(draw(sparse_entries) for _ in range(n)) for _ in range(n))


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), gaussian_rationals)
def test_sparse_general_matrices(M, b0):
    # solved exactly when every leading minor is nonzero, refused otherwise
    rhs = (b0,) + (ExactComplex(0),) * (len(M) - 1)
    if leading_minors_nonzero(M):
        assert list(solve(factor(M, b0))) == exact_gauss_solve(M, rhs)
    else:
        with pytest.raises(DegenerateError):
            solve(factor(M, b0))
    if len(M) <= 5:
        if len(M) == 1 or leading_minors_nonzero([row[:-1] for row in M[:-1]]):
            assert elimination_det(M) == cofactor_det(M)
        else:
            with pytest.raises(DegenerateError):
                elimination_det(M)


def _exact(rows):
    return tuple(tuple(ExactComplex(*x) if isinstance(x, tuple) else ExactComplex(x)
                       for x in row) for row in rows)


# Row 2 is zero in columns 0 and 1, so the elimination skips it at steps 0
# and 1 and then takes it as the pivot row at step 2, where it must first be
# scaled by Delta_2 / Delta_0.  In the second matrix row 3 is skipped at
# step 1 only, after an update at step 0, and row 2 at step 0 only.
STALE_PIVOT_ROWS = [
    _exact(((2, 1, 0, 0), (1, 3, 0, 1), (0, 0, 5, 1), (0, 1, 1, 4))),
    _exact(((3, 0, 1, 2), (0, 2, 0, 0), (1, 1, 4, 0), (2, 0, (1, 1), 7))),
    _exact(((2, (0, 1), 0, 0, 0), ((0, -1), 3, 0, 0, 1), (0, 0, 5, 2, 0),
            (0, 0, 2, 7, 0), (0, 1, 0, 0, 9))),
]


@pytest.mark.parametrize("M", STALE_PIVOT_ROWS)
def test_stale_pivot_row(M):
    n = len(M)
    b0 = ExactComplex(2, 1)
    rhs = (b0,) + (ExactComplex(0),) * (n - 1)
    assert list(solve(factor(M, b0))) == exact_gauss_solve(M, rhs)
    sizes = list(range(1, n + 1))
    assert list(solve(factor(M, b0), sizes)) == [
        x for m in sizes for x in exact_gauss_solve([row[:m] for row in M[:m]], rhs[:m])]
    assert elimination_det(M) == cofactor_det(M)
    if all(M[i][j] == M[j][i].conjugate() for i in range(n) for j in range(n)):
        assert forward(factor(M)) == monic_orthogonal_oracle(M)
        inverse_rows = monic_orthogonal_oracle(M)[0]
        assert forward(factor(M, b0))[0] == [(b0 * row[0],) for row in inverse_rows]


# -- the float reads, and one factorization per call ----------------------

def test_float_forward_matches_cholesky(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M = A @ A.conj().T + np.eye(6)
    C = np.linalg.cholesky(M)           # M = C C^H
    d = C.diagonal().real
    Linv = d[:, None] * np.linalg.inv(C)
    inv, norms = forward(factor(M))
    assert np.allclose(inv, Linv, rtol=1e-12, atol=1e-12)
    assert norms == pytest.approx(d * d, rel=1e-12)
    col, norms_col = forward(factor(M, 2 - 1j), range(1, 7))
    assert col.shape == (6, 1) and norms_col == norms
    assert np.allclose(col[:, 0], (2 - 1j) * Linv[:, 0], rtol=1e-12, atol=1e-12)


def _public_calls():
    import optapprox as oa

    return {
        "optimal": lambda f: oa.optimal(f, 6, 1),
        "optimal_sweep": lambda f: oa.optimal_sweep(f, 6, 1),
        "basis": lambda f: oa.basis(f, 6, 1),
        "kernel_eval": lambda f: oa.kernel_eval_from_basis(oa.basis(f, 6, 1), Fraction(1, 2),
                                                           Fraction(1, 4)),
        "extremal_value": lambda f: oa.extremal_value(oa.basis(f, 6, 1)),
        "cyclicity_report": lambda f: oa.cyclicity_report(f, 1, 6),
        "approximant_via_ops": lambda f: oa.approximant_via_ops(f, 6, 1),
        "szego_identity_residual": lambda f: oa.szego_identity_residual(f, 6),
        "zero_bound_check": lambda f: oa.zero_bound_check(f, 6, 1),
        "equal_quantities": lambda f: oa.equal_quantities(f, 6, 1),
    }


@pytest.mark.parametrize("backend, factorizer", FACTORIZERS)
@pytest.mark.parametrize("name", list(_public_calls()))
def test_each_call_factors_once(monkeypatch, name, backend, factorizer):
    from optapprox import linsolve

    calls = []
    fn = getattr(linsolve, factorizer)
    monkeypatch.setattr(linsolve, factorizer, lambda *a: calls.append(a) or fn(*a))
    f = Series.exact([2, 3, 1])
    _public_calls()[name](f if backend == "exact" else f.to_float())
    assert len(calls) == 1


# -- the float factor in panels below OpenBLAS's threading order ----------

def spd(rng, n):
    """A random Hermitian positive-definite matrix of Frobenius norm 1."""
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    G = A @ A.conj().T + n * np.eye(n)
    return G / np.linalg.norm(G)


def test_panel_factor_and_inverse_at_every_order(rng, lapack_orders):
    # OpenBLAS threads zpotrf from order 64 and ztrtri from order 65:
    # factor and forward call them on blocks of at most 63 at every order,
    # among them 63, 64, 65, 126, 127 and 300
    from scipy.linalg.lapack import zpotrf

    for n in range(1, 301):
        G = spd(rng, n)
        F = factor(G)
        assert F.info == 0
        if n <= 63:     # the one zpotrf call, bit for bit
            assert lapack_orders == [n]
            assert np.array_equal(F.U, zpotrf(G)[0])
        U = np.linalg.cholesky(G).conj().T
        assert np.abs(F.U - U).max() <= 1e-12
        inv, norms = forward(F)
        d = U.diagonal().real
        assert np.allclose(inv, d[:, None] * np.linalg.inv(U).conj().T, rtol=0, atol=1e-12)
        assert norms == pytest.approx(d * d, rel=1e-12)
        assert max(lapack_orders) <= 63
        lapack_orders.clear()


@pytest.mark.parametrize("k", [10, 64, 100, 130])
def test_panel_factor_reports_the_first_nonpositive_minor(rng, lapack_orders, k):
    # at n = 150 the panels are 0..49, 50..99 and 100..149: k = 100 is the
    # last row of a panel.  G[k-1, k-1] is set so that its Schur complement
    # in the leading k-block is -1/n, far from rounding
    n = 150
    G = spd(rng, n)
    v = G[:k - 1, k - 1]
    G[k - 1, k - 1] = (v.conj() @ np.linalg.solve(G[:k - 1, :k - 1], v)).real - 1.0 / n
    F = factor(G, 1.0)
    assert F.info == k and max(lapack_orders) <= 63
    # the leading k-1 block is factored, and its systems are still solved
    assert np.abs(F.U[:k - 1, :k - 1] - np.linalg.cholesky(G[:k - 1, :k - 1]).conj().T).max() \
        <= 1e-12
    x = solve(F, [k - 1])
    assert np.allclose(G[:k - 1, :k - 1] @ x, np.eye(k - 1)[0], rtol=0, atol=1e-9)
    with pytest.raises(ConditioningError):
        solve(F, [k])
    with pytest.raises(ConditioningError):
        forward(F, [k])
    with pytest.raises(InstabilityError, match=f"degree {k - 1}"):
        forward(F)


@pytest.mark.parametrize("n", [64, 100, 130])
@pytest.mark.parametrize("cond, refused", [(0.99e14, False), (1.01e14, True)])
def test_condition_limit_boundary_in_panels(lapack_orders, n, cond, refused):
    # as at order 3 (test_approximant): on a diagonal matrix the 1-norm
    # estimate and the condition number are both exactly cond
    M = np.diag([1.0, 0.5] + [1.0] * (n - 3) + [1.0 / cond]).astype(np.complex128)
    F = factor(M, 2.0)
    want = np.zeros(n)
    want[0] = 2.0
    if refused:
        with pytest.raises(ConditioningError, match="1.010e\\+14"):
            solve(F)
        with pytest.raises(ConditioningError, match="1.010e\\+14"):
            forward(F, [n])
        assert solve(F, [n - 1]) == pytest.approx(want[:n - 1], rel=1e-15)
    else:
        assert solve(F) == pytest.approx(want, rel=1e-15)
    assert forward(F, [1, 2])[1] == pytest.approx(np.diag(M).real, rel=1e-15)
    assert max(lapack_orders) <= 63


def first_refused(F, sizes):
    """The first leading block in ``sizes`` that solve refuses, or None."""
    for m in sizes:
        try:
            solve(F, [m])
        except ConditioningError:
            return m
    return None


@pytest.mark.parametrize("p", range(4, 9))
@pytest.mark.parametrize("alpha", [-2, -1, 0, 1, 2])
def test_panel_factor_decides_as_one_zpotrf_near_the_condition_limit(monkeypatch, p, alpha):
    # Gram matrices of (1 - z)^p at orders 65, 101 and 131, with condition
    # numbers from 1e10 to past 1/eps: the panel factor refuses the same
    # leading blocks as the one zpotrf call, and solves the others to
    # within cond * eps.  Its info differs only where the matrix is
    # numerically singular (condition estimate past 1e16), and then both
    # are past the first refused block, so no decision reads them
    from scipy.linalg.lapack import zpocon, zpotrf

    from optapprox import linsolve

    f = Series.from_complex([(-1) ** k * math.comb(p, k) for k in range(p + 1)])
    for n in (64, 100, 130):
        G = gram_matrix(f, n, alpha)
        F = factor(G, 1.0)
        with monkeypatch.context() as m:
            m.setattr(linsolve, "_cholesky", lambda G: (*zpotrf(G), []))
            R = factor(G, 1.0)
        refused = first_refused(R, range(1, n + 2))
        assert first_refused(F, range(1, n + 2)) == refused
        if F.info != R.info:
            assert refused is not None and refused < min(k for k in (F.info, R.info) if k)
        for m in range(1, refused or n + 2):
            x, y = solve(F, [m]), solve(R, [m])
            rcond = zpocon(R.U[:m, :m], np.linalg.norm(G[:m, :m], 1))[0]
            assert np.abs(x - y).max() <= np.abs(y).max() * np.finfo(float).eps / rcond
        with monkeypatch.context() as m:
            m.setattr(linsolve, "_cholesky", lambda G: (*zpotrf(G), []))
            try:
                basis(f, n, alpha)
                want = None
            except (ConditioningError, InstabilityError) as e:
                want = type(e)
        if want is None:
            basis(f, n, alpha)
        else:
            with pytest.raises(want):
                basis(f, n, alpha)
