"""Symbolic calculus for scalar dispersionless Poisson pencils in the
theta formalism: the graded jet algebra, the pencil operators, the
filtration spectral sequence with its homotopy contraction, brackets in
the delta formalism, Miura transformations and central invariants."""

from .coeff import CoeffExpr, qq, sym
from .algebra import Monomial, ThetaPoly, lex_key, monomial_basis
from .operators import (EvolutionaryOp, d1_op, d2_op, dlambda_op,
                        is_total_derivative, pencil_operator,
                        variational_derivative_theta, variational_derivative_u)
from .spectral import (E1Element, UVWSplit, ZeroWeightError,
                       check_lambda_independence, d0, d1, homotopy_h, page_one_basis)
from .pencil import (DeltaBracket, DiffOperator, LatticeBracket,
                     MiuraTransform, central_invariant, deformation_order2,
                     delta_to_theta, dlz_generator, expand_lattice_bracket,
                     miura_transform, theta_to_delta, verify_deformation)
from .parsing import ParseError, parse_coeff, parse_density
from .report import CheckResult, Report

__all__ = [name for name in dir() if not name.startswith("_")]
