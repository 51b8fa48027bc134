"""Exact fraction-free elimination: solves, determinants and the monic
orthogonal basis, against oracles that share no code with it."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optapprox import ExactComplex, Series, basis, gram, weighted_inner
from optapprox.errors import DegenerateError
from optapprox.linsolve import det_exact, inverse_ldl_exact, solve_exact

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


@settings(max_examples=60, deadline=None)
@given(functions(), st.integers(0, 4), alphas, st.lists(gaussian_rationals, min_size=5, max_size=5))
def test_solve_matches_gauss_oracle_on_gram(f, n, alpha, b):
    system = gram(f, n, alpha)
    e0 = (f.at0(),) + (ExactComplex(0),) * n
    assert list(solve_exact(system.matrix, e0)) == exact_gauss_solve(system.matrix, e0)
    rhs = tuple(b[: n + 1])
    assert list(solve_exact(system.matrix, rhs)) == exact_gauss_solve(system.matrix, rhs)
    # every leading system from the one elimination, in the order asked for
    sizes = list(range(n + 1, 0, -1))
    leading = [x for m in sizes
               for x in exact_gauss_solve([row[:m] for row in system.matrix[:m]], rhs[:m])]
    assert list(solve_exact(system.matrix, rhs, sizes)) == leading


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.lists(gaussian_rationals, min_size=4, max_size=4))
def test_solve_matches_gauss_oracle_on_general_matrices(M, b):
    # non-Hermitian complex matrices have Gaussian-integer pivots
    assume(leading_minors_nonzero(M))
    rhs = tuple(b[: len(M)])
    assert list(solve_exact(M, rhs)) == exact_gauss_solve(M, rhs)


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
    rhs = (ExactComplex(1),) + (ExactComplex(0),) * (len(M) - 1)
    with pytest.raises(DegenerateError):
        solve_exact(M, rhs)
    with pytest.raises(DegenerateError):
        inverse_ldl_exact(M)


@pytest.mark.parametrize("M", [ZERO_FIRST_PIVOT, ZERO_FIRST_PIVOT_COMPLEX, ZERO_MIDDLE_PIVOT])
def test_det_zero_pivot_before_the_last_raises(M):
    with pytest.raises(DegenerateError):
        det_exact(M)


def test_det_of_singular_matrix_is_zero():
    assert det_exact(SINGULAR) == ExactComplex(0)
