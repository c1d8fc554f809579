"""Properties of the operator and exactness layers on random elements.

`integrate_in_u` is checked on derivatives F' of random coefficients F
(rationals, powers of u, sqrt(2), derivatives of g and h, powers of eps
and lambda): it always finds an antiderivative, which differentiates back
to F' and differs from F by a constant.  `is_total_derivative` is checked
on total derivatives D a of random densities: the witness it returns
differentiates back to D a.  The operator of a random scalar A(u, lambda)
commutes with the total derivative.
"""

import operator

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import ThetaPoly, monomial_basis  # noqa: E402
from thetapencil.coeff import CoeffExpr, sym  # noqa: E402
from thetapencil.operators import (integrate_in_u,  # noqa: E402
                                   is_total_derivative, pencil_operator)

ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(CoeffExpr.var_u, st.integers(-2, 3)),
    st.just(CoeffExpr.sqrt(2)),
    st.builds(CoeffExpr.func, st.sampled_from(["g", "h"]), st.integers(0, 2)),
    st.builds(CoeffExpr.var_eps, st.integers(0, 2)),
    st.just(CoeffExpr.var_lambda()),
)
EXPRS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(st.builds(operator.add, inner, inner),
                            st.builds(operator.mul, inner, inner)),
    max_leaves=6)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(EXPRS)
def test_integrate_in_u_inverts_ddu(F):
    dF = F.ddu()
    antiderivative = integrate_in_u(dF)
    assert antiderivative.ddu() == dF
    assert (antiderivative - F).ddu().is_zero()


def test_integrate_in_u_needs_repeated_parts():
    u, g = CoeffExpr.var_u(), sym("g")
    assert integrate_in_u((u * g.ddu() - g).ddu()).ddu() == u * g.ddu().ddu()


COEFF_ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(CoeffExpr.var_u, st.integers(-1, 2)),
    st.builds(CoeffExpr.func, st.sampled_from(["g", "h"]), st.integers(0, 1)),
    st.just(CoeffExpr.var_lambda()),
)
COEFFS = st.builds(lambda x, y, z: x * y + z, COEFF_ATOMS, COEFF_ATOMS, COEFF_ATOMS)
MONOMIALS = st.sampled_from([m for d in range(4) for m in monomial_basis(d, max_jet=3)])
POLYS = st.lists(st.tuples(MONOMIALS, COEFFS), min_size=1, max_size=3).map(
    lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(POLYS)
def test_witness_round_trip(a):
    da = a.total_derivative()
    ok, witness = is_total_derivative(da)
    assert ok and witness is not None
    assert witness.total_derivative() == da


@SETTINGS
@given(COEFFS, POLYS)
def test_pencil_operator_commutes_with_total_derivative(A, a):
    op = pencil_operator(A)
    assert op(a.total_derivative()) == op(a).total_derivative()
