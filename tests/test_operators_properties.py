"""Properties of the operator and exactness layers on random elements.

`integrate_in_u` is checked on derivatives F' of random coefficients F
(rationals, powers of u, sqrt(2), derivatives of g and h, powers of eps
and lambda): it always finds an antiderivative, which differentiates back
to F' and differs from F by a constant.  `is_total_derivative` is checked
on total derivatives D a of random densities: the witness it returns
differentiates back to D a.  The operator of a random scalar A(u, lambda)
commutes with the total derivative.

`_peel` is a division modulo the total derivative, and its rest NF(a) the
normal form.  On any density, log(u1) and negative u1 powers included,
a = D(sum of the parts) + NF(a), NF is idempotent and NF(D w) = 0.  On the
polynomial slices (coefficients r u^k, p <= 3, d <= 6) NF is linear, and
NF(a) = 0 exactly when both Euler operators vanish on a.
"""

import operator

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import ThetaPoly, monomial_basis, sum_polys  # noqa: E402
from thetapencil.coeff import CoeffExpr, sym  # noqa: E402
from thetapencil.operators import (_peel, integrate_in_u,  # noqa: E402
                                   is_total_derivative, pencil_operator,
                                   variational_derivative_theta,
                                   variational_derivative_u)

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


def normal_form(a: ThetaPoly) -> ThetaPoly:
    return _peel(a)[1]


# u1 lowered by up to 2, and log(u1)^j with j <= 2, on the random densities.
EXT_POLYS = st.lists(st.tuples(MONOMIALS, st.integers(0, 2), COEFFS, st.integers(0, 2)),
                     min_size=1, max_size=3).map(
    lambda terms: sum((ThetaPoly.monomial(m.with_even(1, m.even_exp(1) - k),
                                          c * CoeffExpr.log_u1(j))
                       for m, k, c, j in terms), ThetaPoly.zero()))


@SETTINGS
@given(EXT_POLYS)
def test_peel_divides_modulo_the_total_derivative(a):
    parts, rest = _peel(a)
    assert a == sum_polys(parts).total_derivative() + rest


@SETTINGS
@given(EXT_POLYS)
def test_normal_form_is_idempotent(a):
    rest = normal_form(a)
    assert normal_form(rest) == rest


@SETTINGS
@given(EXT_POLYS)
def test_normal_form_of_a_total_derivative_is_zero(w):
    assert normal_form(w.total_derivative()).is_zero()


SLICES = [(d, p) for d in range(1, 7) for p in range(4)
          if any(True for _ in monomial_basis(d, p=p))]
U_POWERS = st.builds(lambda r, k: CoeffExpr.rational(r) * CoeffExpr.var_u(k),
                     st.integers(-3, 3).filter(bool), st.integers(0, 3))


def slice_polys(d, p):
    """Densities of one (d, p) slice with coefficients r u^k."""
    basis = list(monomial_basis(d, p=p))
    if not basis:
        return st.just(ThetaPoly.zero())
    return st.lists(st.tuples(st.sampled_from(basis), U_POWERS), max_size=4).map(
        lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(st.sampled_from(SLICES).flatmap(lambda dp: st.tuples(
    slice_polys(*dp), slice_polys(*dp), st.integers(-3, 3), st.integers(-3, 3))))
def test_normal_form_is_linear_on_polynomial_slices(case):
    a, b, x, y = case
    assert normal_form(a * x + b * y) == normal_form(a) * x + normal_form(b) * y


@SETTINGS
@given(st.sampled_from(SLICES).flatmap(lambda dp: st.tuples(
    slice_polys(dp[0] - 1, dp[1]), st.one_of(st.just(ThetaPoly.zero()), slice_polys(*dp)))))
def test_normal_form_vanishes_exactly_on_the_euler_kernel(case):
    w, r = case
    a = w.total_derivative() + r
    euler_zero = (variational_derivative_u(a).is_zero()
                  and variational_derivative_theta(a).is_zero())
    assert normal_form(a).is_zero() == euler_zero
