"""sympy as an independent oracle for `DiffOperator`.

Small operators sum_k A_k d^k, k <= 2, with coefficients in u, u1 and u2,
act on a test function phi(x), with u = U(x) and u_s = d^s U/dx^s.  The
composite P * Q must act as P after Q, and the adjoint of P as
phi -> sum_k (-d)^k (A_k phi).  Draws are small, so a failing example is
reported as drawn: shrinking it through sympy took minutes.
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import ThetaPoly  # noqa: E402
from thetapencil.coeff import CoeffExpr  # noqa: E402
from thetapencil.pencil import DiffOperator  # noqa: E402

X = sympy.Symbol("x")
U = sympy.Function("U")(X)
PHI = sympy.Function("phi")(X)

JETS = [ThetaPoly.one(), ThetaPoly.jet(1), ThetaPoly.jet(2), ThetaPoly.jet(1, 2),
        ThetaPoly.jet(1) * ThetaPoly.jet(2)]
TERMS = st.builds(lambda q, a, jet: jet * (CoeffExpr.var_u(a) * q),
                  st.integers(-3, 3).filter(bool), st.integers(0, 2), st.sampled_from(JETS))
COEFFS = st.lists(TERMS, min_size=1, max_size=2).map(
    lambda terms: sum(terms, ThetaPoly.zero()))
OPERATORS = st.dictionaries(st.integers(0, 2), COEFFS, min_size=1, max_size=3).map(
    DiffOperator)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.generate))


def coeff_to_sympy(poly: ThetaPoly):
    total = sympy.Integer(0)
    for mono, key, q in poly.flat_terms():
        term = sympy.Rational(q.numerator, q.denominator) * U ** key[1]
        for s, e in mono.evens:
            term *= sympy.diff(U, X, s) ** e
        total += term
    return total


def act(op: DiffOperator, f):
    return sum((coeff_to_sympy(A) * sympy.diff(f, X, k) for k, A in op.coeffs.items()),
               sympy.Integer(0))


@SETTINGS
@given(OPERATORS, OPERATORS)
def test_composition_acts_as_p_after_q(P, Q):
    assert sympy.expand(act(P * Q, PHI) - act(P, act(Q, PHI))) == 0


@SETTINGS
@given(OPERATORS)
def test_adjoint_moves_each_derivative_across(P):
    expected = sum((sympy.diff(coeff_to_sympy(A) * PHI, X, k) * (-1) ** k
                    for k, A in P.coeffs.items()), sympy.Integer(0))
    assert sympy.expand(act(P.adjoint(), PHI) - expected) == 0
