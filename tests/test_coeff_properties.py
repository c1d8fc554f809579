"""Properties of the coefficient ring on random expressions.

Expressions are random sums and products of rationals, powers of u,
sqrt(2), derivatives of g and powers of eps.  Every result must obey the
ring axioms and keep each coefficient exact: an ``int``, or a ``Fraction``
whose denominator exceeds 1.  Every result must also be stored in
canonical form (integer numerators over one positive denominator, in
lowest terms) and equal a reference summed from ``Fraction`` products over
``terms()``.  sympy, when installed, is an independent oracle for ``*``,
``+`` and ``ddu``, and parsing inverts rendering.
"""

import operator
from fractions import Fraction
from functools import reduce
from math import gcd

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
    assert parse_coeff(e.render()) == e


# -- canonical storage against a Fraction reference ----------------------------

LAM = CoeffExpr.var_lambda()
NONZERO = st.integers(-6, 6).filter(bool)
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# Single-term expressions without eps, which `inverse` accepts.
MONOMIALS = st.lists(st.one_of(st.builds(CoeffExpr.rational, NONZERO, st.integers(1, 4)),
                               st.builds(CoeffExpr.var_u, st.integers(-2, 3)),
                               st.sampled_from([CoeffExpr.sqrt(2), CoeffExpr.sqrt(3)]),
                               st.builds(CoeffExpr.func, st.just("g"), st.integers(0, 2),
                                         st.integers(-2, 2))),
                     min_size=1, max_size=4).map(lambda factors: reduce(operator.mul, factors))


def total(pairs) -> dict:
    """Sum (key, rational) pairs in Fraction arithmetic, without zeros."""
    out: dict = {}
    for key, q in pairs:
        out[key] = out.get(key, 0) + Fraction(q)
    return {k: q for k, q in out.items() if q}


def ref_mul_keys(k1: tuple, k2: tuple) -> tuple[tuple, int]:
    """The product of two term keys, written independently of coeff.py:
    slots 1-5 add, funcs exponents add in a plain dict, and the squarefree
    radicands r1, r2 give the key r1*r2/g^2 and the factor g = gcd(r1, r2)."""
    g = gcd(k1[0], k2[0])
    funcs = dict(k1[6])
    for atom, exp in k2[6]:
        funcs[atom] = funcs.get(atom, 0) + exp
    key = ((k1[0] * k2[0]) // (g * g),
           *(x + y for x, y in zip(k1[1:6], k2[1:6])),
           tuple(sorted((atom, x) for atom, x in funcs.items() if x)))
    return key, g


def ref_mul(a: dict, b: dict) -> dict:
    return total((key, Fraction(q1) * q2 * carry)
                 for k1, q1 in a.items() for k2, q2 in b.items()
                 for key, carry in [ref_mul_keys(k1, k2)])


def ref_ddu(a: dict) -> dict:
    pairs = []
    for (rad, u_pow, lam, eps, log, u1p, funcs), q in a.items():
        if u_pow:
            pairs.append(((rad, u_pow - 1, lam, eps, log, u1p, funcs), q * u_pow))
        for (name, order), exp in funcs:
            bumped = dict(funcs)
            bumped[(name, order)] -= 1
            bumped[(name, order + 1)] = bumped.get((name, order + 1), 0) + 1
            key = (rad, u_pow, lam, eps, log, u1p,
                   tuple(sorted((atom, x) for atom, x in bumped.items() if x)))
            pairs.append((key, q * exp))
    return total(pairs)


def ref(e: CoeffExpr) -> dict:
    return total(e.terms())


def assert_canonical(e: CoeffExpr, expected: dict) -> None:
    """Positive denominator, no zero numerator, gcd 1; equal to expected."""
    numerators = list(e._terms.values())
    assert type(e._den) is int and e._den > 0
    assert all(type(n) is int and n for n in numerators)
    assert gcd(e._den, *numerators) == 1
    assert exact(e) and dict(e.terms()) == expected, (e.terms(), expected)


@SETTINGS
@given(EXPRS, EXPRS, EXPRS, NONZERO, FRACTIONS)
def test_results_are_canonical_and_match_the_fraction_reference(a, b, c, n, f):
    ra, rb = ref(a), ref(b)
    assert_canonical(a + b, total([*ra.items(), *rb.items()]))
    assert_canonical(a - b, total([*ra.items(), *((k, -q) for k, q in rb.items())]))
    assert_canonical(a * b, ref_mul(ra, rb))
    assert_canonical(a * n, total((k, q * n) for k, q in ra.items()))
    assert_canonical(a * 0, {})
    assert_canonical(a * f, total((k, q * f) for k, q in ra.items()))
    assert_canonical(a.ddu(), ref_ddu(ra))
    assert hash((a * b) * c) == hash(a * (b * c))


@SETTINGS
@given(MONOMIALS, MONOMIALS)
def test_inverse_is_canonical_and_matches_the_fraction_reference(m, other):
    for e in (m, m * other):
        ((rad, u_pow, _, _, _, u1p, funcs), q), = e.terms()
        key = (rad, -u_pow, 0, 0, 0, -u1p, tuple(sorted((a, -x) for a, x in funcs)))
        assert_canonical(e.inverse(), {key: 1 / (Fraction(q) * rad)})
        assert_canonical(e * e.inverse(), {(1, 0, 0, 0, 0, 0, ()): 1})


@SETTINGS
@given(EXPRS, EXPRS, EXPRS, EXPRS)
def test_lambda_parts_are_canonical_and_match_the_fraction_reference(a, b, c, v):
    e = a + b * LAM + c * LAM * LAM
    for power in range(4):
        assert_canonical(e.lambda_coefficient(power),
                         total((k[:2] + (0,) + k[3:], q) for k, q in e.terms()
                               if k[2] == power))
    expected: dict = {}
    for key, q in e.terms():
        part = {key[:2] + (0,) + key[3:]: q}
        for _ in range(key[2]):
            part = ref_mul(part, ref(v))
        expected = total([*expected.items(), *part.items()])
    assert_canonical(e.subst_lambda(v), expected)


ONE_TERM_VALUES = [CoeffExpr.var_u(), CoeffExpr.var_u() * 2,
                   CoeffExpr.var_u(-1) * CoeffExpr.func("g"),
                   CoeffExpr.sqrt(2) * CoeffExpr.var_u(),
                   CoeffExpr.sqrt(Fraction(3, 2)) * CoeffExpr.var_u() * Fraction(1, 3)]


@SETTINGS
@given(st.lists(EXPRS, min_size=4, max_size=4),
       st.sampled_from([CoeffExpr.one(), CoeffExpr.sqrt(3), CoeffExpr.sqrt(Fraction(3, 2)),
                        CoeffExpr.rational(1, 6)]),
       st.sampled_from(ONE_TERM_VALUES))
def test_subst_lambda_by_key_rewrite_matches_split_power_and_sum(parts, factor, value):
    """A one-term value is substituted by rewriting keys; the generic route
    splits by lambda power, raises the value to each power and sums."""
    e = sum((part * factor * LAM ** b for b, part in enumerate(parts)), CoeffExpr.zero())
    expected = CoeffExpr.zero()
    for power, part in e.split(2).items():
        expected = expected + part * value ** power
    assert_canonical(e.subst_lambda(value), ref(expected))
    assert parts[0].subst_lambda(value) is parts[0]


def test_hash_covers_the_denominator():
    """u/k differ only in the denominator; their hashes differ too."""
    u = CoeffExpr.var_u()
    assert len({hash(u * Fraction(1, k)) for k in range(1, 21)}) == 20
