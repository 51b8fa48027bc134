"""The formulas above the Gram/factorization layer are written once for
both scalar backends: run on an integer or Gaussian-integer polynomial,
the exact results, as floats, equal the float results of the same f."""

import numpy as np
import pytest

from optapprox import (ExactComplex, Series, approximant_via_ops, cyclicity_report,
                       equal_quantities, extremal_value, kernel_eval_from_basis,
                       levinson_solve, optimal, phi_from_diff,
                       szego_identity_residual)
from optapprox.levinson import outer_criterion
from optapprox.orthopoly import basis

POLYS = {
    "1-z": [1, -1],
    "(1+z)^3": [1, 3, 3, 1],
    "2+z-z^2": [2, 1, -1],
    "gaussian-quadratic": [(2, 1), (0, 2), (-1, 0)],
    "gaussian-linear": [(3, -1), (1, 1)],
}

N = 3
Z, W = ExactComplex("1/4", "-1/2"), ExactComplex("-1/3", "1/5")


def quantities(f, alpha):
    """Every backend-independent formula at (f, alpha), by name."""
    bas = basis(f, N, alpha)
    psi, s = bas.monic[N], bas.norms_sq[N]
    prev, p = optimal(f, N - 1, alpha).p, optimal(f, N, alpha).p
    rep = cyclicity_report(f, alpha, N)
    out = {
        "kernel": kernel_eval_from_basis(bas, Z, W).value,
        "extremal value": extremal_value(bas),
        "cyclicity report": (rep.pn_at_zero, rep.partial_sums, rep.target, rep.distances),
        "approximant_via_ops": approximant_via_ops(f, N, alpha),
        # with psi_n(0)/s_n for phi_n(0), the reconstruction is the monic psi_n
        "phi_from_diff": phi_from_diff(p, prev, f.at0(), psi.at0() / s),
        "equal quantities": equal_quantities(f, N, alpha).as_tuple(),
    }
    if alpha == 0:
        state = levinson_solve(f, N)
        crit = outer_criterion(f, state)
        out.update({
            "szego residual": szego_identity_residual(f, N),
            "levinson": (state.coeffs, state.gammas, state.history),
            "outer criterion": (crit.partial_products, crit.target, crit.p0_values),
        })
    return out


def _flat(x):
    if isinstance(x, Series):
        return [complex(c) for c in x.coeffs]
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _flat(item)]
    return [complex(x)]


@pytest.mark.parametrize("alpha", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("coeffs", POLYS.values(), ids=POLYS.keys())
def test_exact_and_float_backends_agree(coeffs, alpha):
    f = Series.exact(coeffs)
    exact, floats = quantities(f, alpha), quantities(f.to_float(), alpha)
    assert exact.keys() == floats.keys()
    for name in exact:
        want, got = _flat(exact[name]), _flat(floats[name])
        assert len(got) == len(want), name
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10, err_msg=name)
