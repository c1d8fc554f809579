"""Properties of the bracket layer on random densities.

`theta_to_delta` reads a bracket off delta P / delta theta.  Its reference
here is the integration-by-parts algorithm it replaced: reduce P to the
normal form sum A_k theta0 theta^k, keep the skew part of sum A_k d^k, and
assert that the symmetric part carries an exact density.  On random
bivectors with lambda, eps^2, sqrt(2), u^-1 and function atoms both must
agree, and the result must be skew and give back the class of P.

`_strip_extension` is checked on D w + P, with w carrying log(u1)^j
(j <= 2) and u1^-k atoms and P plain: it either refuses, or returns a
plain R in the class of P.  Each term of w has degree >= 0 once its u1^-k
is counted, so D w has no degree-zero part, where exactness is ill-posed.
"""

import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import Monomial, ThetaPoly, monomial_basis  # noqa: E402
from thetapencil.coeff import CoeffExpr  # noqa: E402
from thetapencil.operators import is_total_derivative  # noqa: E402
from thetapencil.pencil import (DeltaBracket, DiffOperator,  # noqa: E402
                                ExtensionAtomsPersist, _strip_extension,
                                delta_to_theta, theta_to_delta)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def reference_theta_to_delta(p: ThetaPoly) -> DeltaBracket:
    """The bracket of p by integration by parts to the theta0 theta^k form."""
    work = p
    while True:
        lead = next(((m, c) for m, c in work.terms() if m.odds[0] >= 1), None)
        if lead is None:
            break
        mono, c = lead
        i, j = mono.odds
        work = work - ThetaPoly.monomial(Monomial(mono.evens, (i - 1, j)), c).total_derivative()
    coeffs: dict[int, ThetaPoly] = {}
    for mono, c in work.terms():
        piece = ThetaPoly.monomial(Monomial(mono.evens, ()), c)
        coeffs[mono.odds[1]] = coeffs.get(mono.odds[1], ThetaPoly.zero()) + piece
    visible = DiffOperator(coeffs)
    adjoint = visible.adjoint()
    residue = delta_to_theta(DeltaBracket("u", (visible + adjoint) * Fraction(1, 2)))
    assert residue.is_zero() or is_total_derivative(residue)[0]
    return DeltaBracket("u", (visible - adjoint) * Fraction(1, 2))


ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
    st.just(CoeffExpr.var_lambda()),
    st.just(CoeffExpr.var_eps(2)),
    st.just(CoeffExpr.sqrt(2)),
    st.builds(CoeffExpr.var_u, st.integers(-1, 2)),
    st.builds(CoeffExpr.func, st.sampled_from(["g", "f"]), st.integers(0, 2)),
)
COEFFS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(st.builds(operator.add, inner, inner),
                            st.builds(operator.mul, inner, inner)),
    max_leaves=4)
BIVECTORS = st.sampled_from(
    [m for d in range(1, 5) for m in monomial_basis(d, p=2, max_jet=4)])
DENSITIES = st.lists(st.tuples(BIVECTORS, COEFFS), min_size=1, max_size=3).map(
    lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(DENSITIES)
def test_theta_to_delta_matches_integration_by_parts(P):
    bracket = theta_to_delta(P)
    assert bracket.op == reference_theta_to_delta(P).op
    assert bracket.is_skew()
    assert is_total_derivative(delta_to_theta(bracket) - P)[0]


PLAIN_COEFFS = st.sampled_from([CoeffExpr.one(), CoeffExpr.func("g"), CoeffExpr.var_u(),
                                CoeffExpr.var_lambda(), CoeffExpr.rational(-3, 2)])
# (monomial, k): the monomial has degree >= k, so it carries u1^-k at degree >= 0.
W_SLOTS = st.sampled_from([(m, k) for d in range(3) for m in monomial_basis(d, max_jet=3)
                           for k in range(d + 1)])
W_TERMS = st.builds(
    lambda slot, j, c: ThetaPoly.monomial(
        slot[0].with_even(1, slot[0].even_exp(1) - slot[1]), c * CoeffExpr.log_u1(j)),
    W_SLOTS, st.integers(0, 2), PLAIN_COEFFS)
W_POLYS = st.lists(W_TERMS, min_size=1, max_size=3).map(
    lambda terms: sum(terms, ThetaPoly.zero())).filter(ThetaPoly.has_extension_atoms)
PLAIN_POLYS = st.lists(
    st.tuples(st.sampled_from([m for d in range(1, 4) for m in monomial_basis(d, max_jet=3)]),
              PLAIN_COEFFS), max_size=2).map(
    lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(W_POLYS, PLAIN_POLYS)
def test_strip_extension_keeps_the_class(w, P):
    try:
        R = _strip_extension(w.total_derivative() + P)
    except ExtensionAtomsPersist:
        return
    assert not R.has_extension_atoms()
    assert (R - P).is_zero() or is_total_derivative(R - P)[0]
