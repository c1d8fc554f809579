import random
import re
from fractions import Fraction

import pytest

from thetapencil.coeff import CoeffExpr, qq, sym
from thetapencil.parsing import (ParseError, parse_coeff, parse_density,
                                 parse_lattice_coeff, render_coeff)

U = CoeffExpr.var_u()
LAM = CoeffExpr.var_lambda()


def test_parse_pencil_scalar():
    e = parse_coeff("u*g(u) - lambda*g(u)")
    assert e == (U - LAM) * sym("g")


def test_parse_exact_radical():
    r = parse_coeff("1/(2*sqrt(2))")
    assert r * r == qq(1, 8)
    assert r == CoeffExpr.sqrt(2) / 4


def test_parse_derivative_atoms():
    e = parse_coeff("g'(u)^2*c(u)")
    assert e == sym("g", 1) ** 2 * sym("c")
    assert parse_coeff("D[g,2](u)") == sym("g", 2)
    assert parse_coeff("g''(u)") == sym("g", 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_coeff("u + ")
    with pytest.raises(ParseError):
        parse_coeff("u ** 2")


@pytest.mark.parametrize("text, caret", [("(u1+u2)^(-2)", 7), ("(u1+u2)^(-1)", 7),
                                         ("(u1*u2)^(-1)", 7), ("u2^(-1)", 2),
                                         ("theta0^(-1)", 6)],
                         ids=["sum-inverse", "sum-reciprocal", "product-inverse",
                              "u2-inverse", "theta0-inverse"])
def test_negative_power_of_a_jet_is_a_parse_error_at_the_caret(text, caret):
    # Only a scalar times a power of u1 has a negative power; the refusal
    # points at the '^'.
    with pytest.raises(ParseError) as refusal:
        parse_density(text)
    assert refusal.value.pos == caret and text[caret] == "^"


@pytest.mark.parametrize("text, rendered", [
    ("u1^(-1)*u2", "u1^(-1)*u2"), ("(2*u*u1^2)^(-1)*theta0", "1/2*u^(-1)*u1^(-2)*theta0"),
    ("(3*u1)^(-2)", "1/9*u1^(-2)")], ids=["u1-inverse", "scaled-square", "scaled-inverse"])
def test_a_negative_u1_power_parses_back_as_render_writes_it(text, rendered):
    p = parse_density(text)
    assert p.render() == rendered and parse_density(rendered) == p


@pytest.mark.parametrize("parse, text, at", [
    (parse_density, "u1/0", "/"), (parse_density, "u1/(u-u)", "/"),
    (parse_density, "0^(-1)", "^"), (parse_coeff, "u/0", "/"),
    (parse_coeff, "(u-u)^(-2)", "^")],
    ids=["density-by-0", "density-by-u-u", "density-0-inverse", "coeff-by-0",
         "coeff-zero-inverse"])
def test_a_zero_divisor_is_a_parse_error_at_its_operator(parse, text, at):
    with pytest.raises(ParseError, match="^division by zero") as refusal:
        parse(text)
    assert text[refusal.value.pos] == at


@pytest.mark.parametrize("parse, text, message, at", [
    (parse_density, "log(u2)", "log takes the first jet u1", "u2"),
    (parse_coeff, "D[f,x](u)", "expected a derivative order", "x]"),
    (parse_coeff, "(" * 3000 + "u" + ")" * 3000, "expression nested too deeply", "(("),
    (parse_lattice_coeff, "u(z)", "point must be x or y", "z)"),
    (parse_lattice_coeff, "u(x+u)", "expected a shift like eps or 2*eps", "u)")],
    ids=["log-of-u2", "derivative-order-name", "deep-nesting", "lattice-point-z",
         "lattice-shift-u"])
def test_a_refused_expression_is_a_parse_error_at_its_position(parse, text, message, at):
    with pytest.raises(ParseError, match=f"^{re.escape(message)} ") as refusal:
        parse(text)
    assert text.startswith(at, refusal.value.pos)


def test_a_derivative_atom_renders_as_D_and_parses_back():
    p = parse_density("u*D[f,4](u)")
    assert p.render() == "u*D[f,4](u)" and parse_density(p.render()) == p


def test_any_unreserved_function_symbol_parses():
    assert parse_coeff("h(u)") == sym("h")
    assert parse_coeff("h''(u)") == sym("h", 2)


@pytest.mark.parametrize("text", ["x(u)", "log(u)", "u1(u)", "theta0(u)", "lambda(u)"])
def test_reserved_jet_and_theta_names_are_not_function_symbols(text):
    with pytest.raises(ParseError):
        parse_coeff(text)


def test_render_parse_round_trip():
    exprs = [
        (U - LAM) * sym("g"),
        sym("g", 1) ** 2 * sym("c") * qq(3, 2) - U ** 3,
        CoeffExpr.sqrt(Fraction(2, 9)) + U * LAM ** 2,
        sym("g") / (U * 24),
    ]
    for e in exprs:
        assert parse_coeff(render_coeff(e)) == e


def test_ddu_product_rule_on_pencil_scalar():
    a = (U - LAM) * sym("g")
    assert a.ddu() == sym("g") + (U - LAM) * sym("g", 1)


def test_ddu_leibniz_with_declared_square():
    # h declared with h^2 = g left implicit: d(g h^2) = g' h^2 + 2 g h h'
    g, h = sym("g"), sym("h")
    hp = sym("h", 1)
    assert (g * h * h).ddu() == sym("g", 1) * h * h + 2 * g * h * hp


def test_ddu_second_structure_coefficient():
    assert (U * sym("g")).ddu() == sym("g") + U * sym("g", 1)


def test_subst_lambda_cancellation():
    a = (U - LAM) * sym("g")
    assert a.subst_lambda(U).is_zero()
    assert a.ddu().subst_lambda(U) == sym("g")
    assert (LAM ** 2).subst_lambda(U) == U ** 2


def test_is_zero():
    assert ((U - LAM) * sym("g") - U * sym("g") + LAM * sym("g")).is_zero()
    assert (sym("g", 1) * sym("c") - sym("c") * sym("g", 1)).is_zero()
    assert not sym("g").is_zero()


def _random_expr(rng):
    atoms = [U, LAM, sym("g"), sym("g", 1), sym("c"), qq(rng.randint(-3, 3) or 2),
             CoeffExpr.sqrt(2)]
    e = qq(rng.randint(-2, 2) or 1)
    for _ in range(rng.randint(1, 4)):
        e = e * rng.choice(atoms) if rng.random() < 0.6 else e + rng.choice(atoms)
    return e


def test_ddu_is_a_derivation():
    rng = random.Random(0)
    for _ in range(50):
        a, b = _random_expr(rng), _random_expr(rng)
        assert (a * b).ddu() == a.ddu() * b + a * b.ddu()


def test_normalization_idempotent():
    rng = random.Random(1)
    for _ in range(30):
        e = _random_expr(rng)
        assert CoeffExpr(dict(e.terms())) == e


def test_lambda_chain_rule_identity():
    # subst(ddu(e), u) = d/du[subst(e, u)] - (de/dlambda)|_{lambda=u}
    rng = random.Random(2)
    for _ in range(40):
        e = _random_expr(rng)
        lhs = e.ddu().subst_lambda(U)
        dlambda_at_u = sum((e.lambda_coefficient(b) * U ** (b - 1) * b
                            for b in range(1, e.lambda_degree() + 1)), CoeffExpr.zero())
        rhs = e.subst_lambda(U).ddu() - dlambda_at_u
        assert lhs == rhs


def test_lambda_is_polynomial_only():
    with pytest.raises(ValueError):
        LAM.inverse()
    with pytest.raises(ValueError):
        sym("g") / LAM


def test_division_by_single_terms():
    assert (U ** 3 * 2) / (U * U * 2) == U
    assert sym("g") / sym("g") == qq(1)
    assert qq(1) / (U * 24) == qq(1, 24) * U ** (-1)
    with pytest.raises(ValueError):
        qq(1) / (U + LAM * 0 + sym("g"))


def test_radicals_close_under_products():
    assert CoeffExpr.sqrt(2) * CoeffExpr.sqrt(2) == qq(2)
    assert CoeffExpr.sqrt(8) == 2 * CoeffExpr.sqrt(2)
    assert CoeffExpr.sqrt(Fraction(1, 2)) == CoeffExpr.sqrt(2) / 2
    assert CoeffExpr.sqrt(6) * CoeffExpr.sqrt(3) == 3 * CoeffExpr.sqrt(2)


def test_extension_atoms_flagged():
    assert CoeffExpr.log_u1().has_extension_atoms()
    assert (CoeffExpr.log_u1(2) * sym("g")).has_extension_atoms()
    assert not CoeffExpr.var_u(-2).has_extension_atoms()
    assert not (U * sym("g")).has_extension_atoms()


def test_division_stays_exact():
    """Integral coefficients are ints, so a division must not use 1 / x."""
    third = CoeffExpr.rational(3).inverse()
    assert third == CoeffExpr.rational(1, 3)
    assert [type(q) for _, q in third.terms()] == [Fraction]
    half = (2 * U) / 4
    assert half == U * Fraction(1, 2)
    assert [q for _, q in half.terms()] == [Fraction(1, 2)]
    assert [type(q) for _, q in (half * 2).terms()] == [int]


def test_integration_with_integer_pivots_stays_exact():
    from peel_helpers import integrate_in_u
    c = U * 3 + sym("g", 1) * 2
    anti = integrate_in_u(c)
    assert anti == U ** 2 * Fraction(3, 2) + sym("g") * 2
    assert {type(q) for _, q in anti.terms()} == {Fraction, int}


def test_radicand_without_small_factors_is_refused():
    # p^2 and p*q with primes p, q above the trial bound are certified.
    p, q = 10007, 10009
    assert CoeffExpr.sqrt(p * p) == qq(p)
    assert CoeffExpr.sqrt(p * q) * CoeffExpr.sqrt(p) == p * CoeffExpr.sqrt(q)
    with pytest.raises(ValueError):
        CoeffExpr.sqrt(10000000000000000000000000000049)
    for parse in (parse_coeff, parse_density):
        with pytest.raises(ParseError):
            parse("sqrt(10000000000000000000000000000049)")
