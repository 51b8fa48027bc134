"""Optimal polynomial approximants to 1/f in Dirichlet-type spaces.

The space D_alpha carries the norm sum_k (k+1)^alpha |a_k|^2 on Taylor
coefficients (alpha = 0: Hardy, alpha = -1: Bergman, alpha = 1:
Dirichlet).  This package computes the polynomials p_n minimizing
||p f - 1||_alpha, the orthogonal polynomials of the weighted space
D_{alpha,f}, reproducing kernels of f * P_n, the Hardy-case Levinson
recursion, approximant zero sets, and cyclicity diagnostics -- in either
an exact complex-rational backend or a float backend.
"""

from .exact import ExactComplex, format_rational, parse_rational
from .series import (DEGREE_EPSILON, Series, poly_add, poly_eval, poly_mul,
                     poly_sub, reflect, scale, shift)
from .spaces import (GramSystem, gram, gram_matrices, gram_matrix, inner,
                     norm_sq, shifted_inner, weighted_inner)
from .approximant import (ApproximantResult, EqualQuantities, distance,
                          equal_quantities, optimal, optimal_sweep,
                          pn0_via_determinants)
from .orthopoly import (OrthonormalBasis, approximant_via_ops, basis,
                        phi_abs_at_zero, phi_from_diff,
                        szego_identity_residual)
from .kernels import (CyclicityReport, KernelEvaluation, cyclicity_report,
                      extremal_value, kernel_at_zero, kernel_eval,
                      mccarthy_reference)
from .levinson import (LevinsonState, OuterCriterion, levinson_solve,
                       outer_criterion_partial, reflection_coefficients,
                       toeplitz_column)
from .zeros import (NO_FINITE_ZERO, ZeroBoundCheck, ZeroSet,
                    first_zero, first_zero_with_tail, fixed_point_residual,
                    poly_roots, zero_bound_check)
from .families import (FunctionSpec, cesaro_closed_form,
                       hardy_power_closed_form, one_minus_z_reference,
                       realize, spec_from_json)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
