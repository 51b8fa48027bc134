"""The one factorization of linsolve: solves, determinants and the monic
orthogonal basis of exact fraction-free elimination, against oracles that
share no code with it, the float reads against numpy, and one
factorization per call of every public entry that needs one."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optapprox import ExactComplex, Series, basis, gram, weighted_inner
from optapprox.errors import DegenerateError
from optapprox.linsolve import det_exact, factor, forward, solve
from optapprox.spaces import gram_numerators

from conftest import exact_gauss_solve

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
gaussian_rationals = st.builds(ExactComplex, rationals, rationals)


@st.composite
def functions(draw):
    """Exact polynomials of degree <= 3 with f(0) != 0, with real or
    Gaussian-rational coefficients."""
    part = gaussian_rationals if draw(st.booleans()) else st.builds(ExactComplex, rationals)
    coeffs = draw(st.lists(part, min_size=1, max_size=4))
    assume(not coeffs[0].is_zero)
    return Series(tuple(coeffs), True)


@st.composite
def square_matrices(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    return tuple(tuple(draw(gaussian_rationals) for _ in range(n)) for _ in range(n))


def cofactor_det(M):
    if len(M) == 1:
        return M[0][0]
    total = ExactComplex(0)
    for j, a in enumerate(M[0]):
        term = a * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


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
    system = gram(f, n, alpha)
    e0 = (f.at0(),) + (ExactComplex(0),) * n
    assert list(solve(factor(system.matrix, f.at0()))) == exact_gauss_solve(system.matrix, e0)
    rhs = (b0,) + (ExactComplex(0),) * n
    assert list(solve(factor(system.matrix, b0))) == exact_gauss_solve(system.matrix, rhs)
    # every leading system from the one elimination, in the order asked for
    sizes = list(range(n + 1, 0, -1))
    leading = [x for m in sizes
               for x in exact_gauss_solve([row[:m] for row in system.matrix[:m]], rhs[:m])]
    assert list(solve(factor(system.matrix, b0), sizes)) == leading
    # B = I: its first column, and every column of G^-1 from L^-1 and D
    G = system.matrix
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
    M = gram(f, n, alpha).matrix
    assert det_exact(M) == cofactor_det(M)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_expansion_on_general_matrices(M):
    assume(len(M) == 1 or leading_minors_nonzero([row[:-1] for row in M[:-1]]))
    assert det_exact(M) == cofactor_det(M)


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
        det_exact(M)


def test_det_of_singular_matrix_is_zero():
    assert det_exact(SINGULAR) == ExactComplex(0)


# -- band matrices and zero skipping -------------------------------------

@st.composite
def band_cases(draw):
    """An exact polynomial f of degree 1 or 2 and a degree n > 2 deg f, so
    that the Gram matrix has entries outside its band."""
    part = gaussian_rationals if draw(st.booleans()) else st.builds(ExactComplex, rationals)
    coeffs = draw(st.lists(part, min_size=2, max_size=3))
    assume(not coeffs[0].is_zero and not coeffs[-1].is_zero)
    f = Series(tuple(coeffs), True)
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
    G = gram(f, n, alpha).matrix
    assert G[0][n] == ExactComplex(0)   # outside the band
    rhs = (f.at0(),) + (ExactComplex(0),) * n
    sizes = list(range(1, n + 2))
    leading = [x for m in sizes
               for x in exact_gauss_solve([row[:m] for row in G[:m]], rhs[:m])]
    assert list(solve(factor(G, f.at0()), sizes)) == leading
    assert list(solve(factor(gram_numerators(f, n, alpha), f.at0()), sizes)) == leading


@settings(max_examples=40, deadline=None)
@given(band_cases(), alphas)
def test_band_gram_inverse_ldl(case, alpha):
    f, n = case
    G = gram(f, n, alpha).matrix
    oracle = monic_orthogonal_oracle(G)
    assert forward(factor(G)) == oracle
    assert forward(factor(gram_numerators(f, n, alpha))) == oracle


@settings(max_examples=25, deadline=None)
@given(band_cases(), alphas)
def test_band_gram_det(case, alpha):
    f, n = case
    n = min(n, 5)   # the cofactor oracle grows like n!
    det = cofactor_det(gram(f, n, alpha).matrix)
    assert det_exact(gram(f, n, alpha).matrix) == det
    assert det_exact(gram_numerators(f, n, alpha)) == det


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
            assert det_exact(M) == cofactor_det(M)
        else:
            with pytest.raises(DegenerateError):
                det_exact(M)


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
    assert det_exact(M) == cofactor_det(M)
    if all(M[i][j] == M[j][i].conjugate() for i in range(n) for j in range(n)):
        assert forward(factor(M)) == monic_orthogonal_oracle(M)
        inverse_rows = monic_orthogonal_oracle(M)[0]
        assert forward(factor(M, b0))[0] == [(b0 * row[0],) for row in inverse_rows]


# -- the float reads, and one factorization per call ----------------------

def test_float_forward_matches_cholesky(rng):
    import numpy as np

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
        "kernel_eval": lambda f: oa.kernel_eval(f, 6, 1, Fraction(1, 2), Fraction(1, 4)),
        "extremal_value": lambda f: oa.extremal_value(f, 6, 1),
        "cyclicity_report": lambda f: oa.cyclicity_report(f, 1, 6),
        "approximant_via_ops": lambda f: oa.approximant_via_ops(f, 6, 1),
        "szego_identity_residual": lambda f: oa.szego_identity_residual(f, 6),
        "zero_bound_check": lambda f: oa.zero_bound_check(f, 6, 1),
        "equal_quantities": lambda f: oa.equal_quantities(f, 6, 1),
    }


@pytest.mark.parametrize("backend, factorizer", [("exact", "_eliminate"), ("float", "zpotrf")])
@pytest.mark.parametrize("name", list(_public_calls()))
def test_each_call_factors_once(monkeypatch, name, backend, factorizer):
    from optapprox import linsolve

    calls = []
    fn = getattr(linsolve, factorizer)
    monkeypatch.setattr(linsolve, factorizer, lambda *a: calls.append(a) or fn(*a))
    f = Series.exact([2, 3, 1])
    _public_calls()[name](f if backend == "exact" else f.to_float())
    assert len(calls) == 1
