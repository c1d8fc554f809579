"""Properties of the jet algebra on random elements.

Elements are random sums of monomials in u1..u3 and theta0..theta3 with
coefficients built from rationals, powers of u, a(u) and a'(u).  The
total derivative and each d/du^s are even derivations, each d/dtheta^s
is an odd one (the Koszul-signed Leibniz rule), and a density renders to
text that parses back to itself.  A u1 power, negative ones included,
stays a nonzero monomial exponent through the algebra, and sympy's d/dx
and d/du_s on u(x) agree with D and d/du^s on terms with log(u1) and
negative u1 powers.  The sympy draws are small and not shrunk.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import Monomial, ThetaPoly, monomial_basis  # noqa: E402
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
    assert parse_density(density.render()) == density


ATOM_COEFFS = st.builds(
    lambda base, j, q: base * CoeffExpr.log_u1(j) * q,
    st.sampled_from([CoeffExpr.one(), CoeffExpr.func("g"), CoeffExpr.var_u(),
                     CoeffExpr.var_lambda()]),
    st.integers(0, 2), st.integers(-3, 3).filter(bool))
U1_MONOMIALS = st.builds(lambda m, k: m.with_even(1, m.even_exp(1) + k),
                         monomials(), st.integers(-3, 2))
EXTENDED_POLYS = st.lists(st.tuples(U1_MONOMIALS, ATOM_COEFFS), min_size=1, max_size=3).map(
    lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(EXTENDED_POLYS, EXTENDED_POLYS)
def test_u1_powers_stay_in_the_monomial(a, b):
    """Sums, products, D and d/du1 of polynomials with log(u1) and negative
    u1 powers keep every u1 power a nonzero monomial exponent: no monomial
    holds a zero exponent, and slot 5 of every coefficient key stays 0."""
    for poly in (a + b, a * b, a.total_derivative(), a.du(1)):
        for mono, key, _ in poly.flat_terms():
            assert all(e for _, e in mono.evens), mono
            assert all(e > 0 for s, e in mono.evens if s != 1), mono
            assert key[5] == 0, key


# -- sympy as an oracle for D and d/du^s on extension atoms ---------------------

X = sympy.Symbol("x")
U_OF_X = sympy.Function("u")(X)
ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None, phases=(Phase.explicit, Phase.generate))
ORACLE_TERMS = st.builds(
    lambda q, f, a, j, k, m: ThetaPoly.monomial(
        Monomial.unit().with_even(1, k).with_even(2, m),
        CoeffExpr.rational(q) * f * CoeffExpr.var_u(a) * CoeffExpr.log_u1(j)),
    st.integers(-3, 3).filter(bool),
    st.sampled_from([CoeffExpr.one(), CoeffExpr.func("F"), CoeffExpr.func("F", 1)]),
    st.integers(-1, 2), st.integers(0, 2), st.integers(-3, 2), st.integers(0, 2))
ORACLE_POLYS = st.lists(ORACLE_TERMS, min_size=1, max_size=2).map(
    lambda terms: sum(terms, ThetaPoly.zero()))


def to_sympy(poly: ThetaPoly):
    """A p = 0 polynomial as an expression in u(x) and its x-derivatives."""
    total = sympy.Integer(0)
    for mono, key, q in poly.flat_terms():
        assert not mono.odds
        term = sympy.Rational(q.numerator, q.denominator) * U_OF_X ** key[1]
        term *= sympy.log(sympy.diff(U_OF_X, X)) ** key[4]
        for (name, order), e in key[6]:
            term *= sympy.diff(sympy.Function(name)(U_OF_X), U_OF_X, order) ** e
        for s, e in mono.evens:
            term *= sympy.diff(U_OF_X, X, s) ** e
        total += term
    return total


def jet_partial(expr, s: int):
    """d/du_s of an expression in u(x), holding the other jets fixed."""
    jets = [sympy.diff(U_OF_X, X, t) for t in range(4, 0, -1)]
    names = sympy.symbols("j4 j3 j2 j1", positive=True)
    flat = expr.subs(list(zip(jets, names)))
    return sympy.diff(flat, names[4 - s]).subs(list(zip(names, jets)))


@ORACLE_SETTINGS
@given(ORACLE_POLYS)
def test_derivatives_of_extension_atoms_match_sympy(a):
    expr = to_sympy(a)
    assert sympy.simplify(to_sympy(a.total_derivative()) - sympy.diff(expr, X)) == 0
    for s in (1, 2):
        assert sympy.simplify(to_sympy(a.du(s)) - jet_partial(expr, s)) == 0
