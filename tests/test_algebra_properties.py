"""Properties of the jet algebra on random elements.

Elements are random sums of monomials in u1..u3 and theta0..theta3 with
coefficients built from rationals, powers of u, a(u) and a'(u).  The
total derivative and each d/du^s are even derivations, each d/dtheta^s
is an odd one (the Koszul-signed Leibniz rule), and a density renders to
text that parses back to itself.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import ThetaPoly, monomial_basis  # noqa: E402
from thetapencil.coeff import CoeffExpr  # noqa: E402
from thetapencil.parsing import parse_density  # noqa: E402

MAX_JET = 3
COEFF_ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(CoeffExpr.var_u, st.integers(-1, 2)),
    st.builds(CoeffExpr.func, st.just("a"), st.integers(0, 1)),
)
COEFFS = st.builds(lambda x, y, z: x * y + z, COEFF_ATOMS, COEFF_ATOMS, COEFF_ATOMS)
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def monomials(p=None):
    return st.sampled_from([m for d in range(4)
                            for m in monomial_basis(d, p, max_jet=MAX_JET)])


def polys(p=None):
    """Random elements, of super degree p when p is given."""
    return st.lists(st.tuples(monomials(p), COEFFS), min_size=1, max_size=3).map(
        lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(polys(), polys())
def test_total_derivative_is_a_derivation(a, b):
    assert (a * b).total_derivative() == \
        a.total_derivative() * b + a * b.total_derivative()


@SETTINGS
@given(polys(), polys(), st.integers(0, MAX_JET))
def test_du_is_a_derivation(a, b, s):
    assert (a * b).du(s) == a.du(s) * b + a * b.du(s)


@SETTINGS
@given(st.integers(0, 3).flatmap(lambda p: st.tuples(st.just(p), polys(p))),
       polys(), st.integers(0, MAX_JET))
def test_dtheta_obeys_the_koszul_signed_leibniz_rule(pa, b, s):
    p, a = pa
    sign = -1 if p % 2 else 1
    assert (a * b).dtheta(s) == a.dtheta(s) * b + a * b.dtheta(s) * sign


@SETTINGS
@given(polys(), st.builds(CoeffExpr.var_eps, st.integers(0, 2)))
def test_parse_density_inverts_render(p, eps):
    density = p * eps * Fraction(3, 2)
    assert parse_density(density.render(), symbols=("a",)) == density
