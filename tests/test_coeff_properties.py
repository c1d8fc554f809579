"""Properties of the coefficient ring on random expressions.

Expressions are random sums and products of rationals, powers of u,
sqrt(2), derivatives of g and powers of eps.  Every result must obey the
ring axioms and keep each coefficient exact: an ``int``, or a ``Fraction``
whose denominator exceeds 1.  sympy, when installed, is an independent
oracle for ``*``, ``+`` and ``ddu``, and parsing inverts rendering.
"""

import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.coeff import CoeffExpr  # noqa: E402
from thetapencil.parsing import parse_coeff  # noqa: E402

ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(CoeffExpr.var_u, st.integers(-2, 3)),
    st.just(CoeffExpr.sqrt(2)),
    st.builds(CoeffExpr.func, st.just("g"), st.integers(0, 2)),
    st.builds(CoeffExpr.var_eps, st.integers(0, 2)),
)
EXPRS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(st.builds(operator.add, inner, inner),
                            st.builds(operator.mul, inner, inner)),
    max_leaves=6)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def exact(e: CoeffExpr) -> bool:
    return all(type(q) is int or (type(q) is Fraction and q.denominator > 1)
               for _, q in e.terms())


@SETTINGS
@given(EXPRS, EXPRS, EXPRS)
def test_ring_axioms_with_exact_coefficients(a, b, c):
    zero, one = CoeffExpr.zero(), CoeffExpr.one()
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a - a).is_zero()
    assert a * 2 - a == a
    for e in (a, b, c, a * b, a + b, a * (b + c), a - a, a * Fraction(1, 2) * 2,
              a.ddu(), a * b * 3):
        assert exact(e), e.terms()


def to_sympy(e: CoeffExpr, sympy):
    """The sympy value of an expression without lambda or extension atoms."""
    u = sympy.Symbol("u")
    eps = sympy.Symbol("eps")
    g = sympy.Function("g")(u)
    total = sympy.Integer(0)
    for (rad, u_pow, lam, eps_pow, log, u1p, funcs), q in e.terms():
        if lam or log or u1p:
            raise ValueError("not drawn by these strategies")
        term = sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(rad)
        term *= u ** u_pow * eps ** eps_pow
        for (_, order), exp in funcs:
            term *= (sympy.diff(g, u, order) if order else g) ** exp
        total += term
    return total


def test_sympy_oracle_for_products_sums_and_ddu():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")

    @SETTINGS
    @given(EXPRS, EXPRS)
    def check(a, b):
        sa, sb = to_sympy(a, sympy), to_sympy(b, sympy)
        assert sympy.expand(to_sympy(a * b, sympy) - sa * sb) == 0
        assert sympy.expand(to_sympy(a + b, sympy) - sa - sb) == 0
        assert sympy.expand(to_sympy(a.ddu(), sympy) - sympy.diff(sa, u)) == 0

    check()


@SETTINGS
@given(st.one_of(EXPRS, st.builds(operator.mul, EXPRS, st.just(CoeffExpr.var_lambda())),
                 st.builds(operator.add, EXPRS, st.just(CoeffExpr.var_lambda()))))
def test_parse_coeff_inverts_render(e):
    assert parse_coeff(e.render(), symbols=("g",)) == e
