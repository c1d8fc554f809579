import copy
import pickle
import random
from fractions import Fraction

import pytest

from thetapencil.coeff import CoeffExpr, qq, sym
from thetapencil.algebra import Monomial, ThetaPoly, lex_compare, monomial_basis
from thetapencil.parsing import parse_coeff, parse_density


def th(s):
    return ThetaPoly.theta(s)


def test_theta_anticommutation():
    assert th(1) * th(0) == -(th(0) * th(1))
    assert (th(2) * th(2)).is_zero()


def test_mixed_product():
    lhs = (ThetaPoly.jet(1) * th(0)) * (th(1) * sym("g"))
    rhs = ThetaPoly.monomial(Monomial(((1, 1),), (0, 1)), sym("g"))
    assert lhs == rhs


def test_total_derivative_chain_rule():
    f = ThetaPoly.from_coeff(sym("f"))
    assert f.total_derivative() == ThetaPoly.jet(1) * sym("f", 1)


def test_total_derivative_on_theta_pair():
    tt1 = th(0) * th(1)
    assert tt1.total_derivative() == th(0) * th(2)


def test_total_derivative_extended_log():
    ext = ThetaPoly.monomial(Monomial.jet(1), CoeffExpr.log_u1())
    expected = ThetaPoly.monomial(Monomial.jet(2), CoeffExpr.log_u1() + 1)
    assert ext.total_derivative() == expected


def test_total_derivative_extended_negative_power():
    ext = ThetaPoly.jet(1, -2)
    out = ext.total_derivative()
    expected = ThetaPoly.monomial(Monomial(((1, -3), (2, 1))), CoeffExpr.rational(-2))
    assert out == expected
    assert repr(Monomial.jet(1, -2)) == "u1^-2"
    with pytest.raises(ValueError):
        Monomial.jet(2, -1)
    with pytest.raises(ValueError):
        Monomial.jet(1, 0)


def test_weights():
    assert Monomial((), (0, 1, 2)).weight() == 0          # theta0 theta1 theta2
    assert Monomial.jet(1).weight() == Fraction(3, 2)
    assert Monomial(((1, 1),), (0, 2)).weight() == Fraction(3, 2)


def test_lex_order_examples():
    assert lex_compare(Monomial.jet(2), Monomial.jet(1, 2)) > 0
    assert lex_compare(Monomial.theta(2), Monomial(((2, 1),), (0,))) > 0
    m = Monomial(((1, 2),), (0,))
    assert lex_compare(m, m) == 0


def test_derivation_property_with_signs():
    rng = random.Random(4)
    pool = [m for d in range(0, 4) for m in monomial_basis(d, max_jet=4)]
    for _ in range(40):
        a = ThetaPoly.monomial(rng.choice(pool), sym("f"))
        b = ThetaPoly.monomial(rng.choice(pool), sym("g"))
        lhs = (a * b).total_derivative()
        rhs = a.total_derivative() * b + a * b.total_derivative()
        assert lhs == rhs


def test_total_derivative_raises_degree_by_one():
    for d in range(0, 5):
        for m in monomial_basis(d, max_jet=5):
            a = ThetaPoly.monomial(m, sym("f"))
            out = a.total_derivative()
            for (dd, pp) in out.bidegree_components():
                assert dd == d + 1
                assert pp == m.degree_p()


def test_super_commutativity():
    rng = random.Random(5)
    pool = [m for d in range(0, 4) for m in monomial_basis(d, max_jet=4)]
    for _ in range(60):
        ma, mb = rng.choice(pool), rng.choice(pool)
        a, b = ThetaPoly.monomial(ma), ThetaPoly.monomial(mb)
        sign = (-1) ** (ma.degree_p() * mb.degree_p())
        assert a * b == (b * a) * sign


def test_associativity():
    rng = random.Random(6)
    pool = [m for d in range(0, 3) for m in monomial_basis(d, max_jet=3)]
    for _ in range(40):
        a, b, c = (ThetaPoly.monomial(rng.choice(pool)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_weight_additive_on_products():
    rng = random.Random(7)
    pool = [m for d in range(0, 4) for m in monomial_basis(d, max_jet=4)]
    for _ in range(60):
        ma, mb = rng.choice(pool), rng.choice(pool)
        prod = ThetaPoly.monomial(ma) * ThetaPoly.monomial(mb)
        for m in prod.monomials():
            assert m.weight() == ma.weight() + mb.weight()


def test_max_jet_and_homogeneous_split():
    a = ThetaPoly.jet(1) * th(2) + ThetaPoly.from_coeff(sym("f")) * th(0)
    assert a.max_jet() == 2
    comps = a.bidegree_components()
    assert set(comps) == {(3, 1), (0, 1)}
    total = ThetaPoly.zero()
    for part in comps.values():
        total = total + part
    assert total == a


def test_extended_mode_guard():
    """log(u1) in a coefficient and a negative u1 power in a monomial are
    the extension atoms; both cancel like any other term."""
    ext = ThetaPoly.from_coeff(CoeffExpr.log_u1())
    assert ext.has_extension_atoms()
    assert ThetaPoly.jet(1, -1).has_extension_atoms()
    assert not ThetaPoly.from_coeff(sym("g")).has_extension_atoms()
    assert not ThetaPoly.jet(1, 2).has_extension_atoms()
    cancelled = ext - ThetaPoly.from_coeff(CoeffExpr.log_u1())
    assert cancelled.is_zero() and not cancelled.has_extension_atoms()


def test_sum_with_a_non_polynomial_is_not_implemented():
    with pytest.raises(TypeError):
        ThetaPoly.one() + 5
    with pytest.raises(TypeError):
        5 + ThetaPoly.one()


def test_extended_u1_folding():
    # u1^2 against u1^-1 multiplies to u1^1, and u1 against u1^-1 to 1
    poly = ThetaPoly.jet(1, 2) * ThetaPoly.jet(1, -1)
    assert poly == ThetaPoly.monomial(Monomial.jet(1))
    assert dict((ThetaPoly.jet(1) * ThetaPoly.jet(1, -1)).terms()) == {
        Monomial(): CoeffExpr.one()}


def test_monomial_basis_counts():
    assert {repr(m) for m in monomial_basis(0)} == {"1", "theta0"}
    d2 = list(monomial_basis(2, max_jet=6))
    assert Monomial.jet(2) in d2 and Monomial.jet(1, 2) in d2
    assert Monomial((), (0, 2)) in d2
    for m in monomial_basis(4, p=2, max_jet=3):
        assert m.degree_p() == 2 and m.degree_d() == 4


def test_parse_density_with_coordinate():
    p = parse_density("1/2*w1 + w*w2", coordinate="w")
    assert p == ThetaPoly.jet(1) * qq(1, 2) + ThetaPoly.jet(2) * CoeffExpr.var_u()
    assert parse_density("ux + uxx") == ThetaPoly.jet(1) + ThetaPoly.jet(2)


def test_render_density_round_trip():
    p = (ThetaPoly.jet(1, 2) * th(0) * th(1) * sym("g")
         - ThetaPoly.jet(2) * qq(5, 3))
    assert parse_density(p.render()) == p


def test_power_equals_repeated_product():
    for base in (parse_density("u1 + 2*g(u)*u2 - theta0*theta1 + 1/3"),
                 parse_coeff("u + 2*g(u) - sqrt(2)/3*c'(u)^2 + 1")):
        product = type(base).one()
        for n in range(10):
            assert base ** n == product
            product = product * base


def test_monomial_hash_is_kept_and_the_monomial_immutable():
    a = Monomial(((1, 2), (3, 1)), (0, 2))
    b = Monomial(((1, 2), (3, 1)), (0, 2))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != Monomial(((1, 2),), (0, 2))
    with pytest.raises(AttributeError):
        a.evens = ()
    with pytest.raises(AttributeError):
        a._hash = 0
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)
        store = {a: "first"}
        store[twin] = "second"
        assert store == {b: "second"} and twin in {b}


def test_plain_mode_guard_at_each_entry():
    """Each entry stores what it is given: atoms where a coefficient or a
    product puts them, and none once they cancel."""
    log = CoeffExpr.log_u1()
    stored = ThetaPoly({Monomial.jet(2): log})
    assert stored.has_extension_atoms() and not stored.is_zero()
    body = ThetaPoly.monomial(Monomial.jet(1, 2), CoeffExpr.var_lambda())
    assert not body.has_extension_atoms()
    assert body.subst_lambda(log) == ThetaPoly({Monomial.jet(1, 2): log})
    folded = body.subst_lambda(CoeffExpr.one()) * ThetaPoly.jet(1, -1)
    assert dict(folded.terms()) == {Monomial.jet(1): CoeffExpr.one()}
    deep = body.subst_lambda(CoeffExpr.one()) * ThetaPoly.jet(1, -3)
    assert dict(deep.terms()) == {Monomial.jet(1, -1): CoeffExpr.one()}
    assert deep.has_extension_atoms()
    mixed = ThetaPoly.monomial(Monomial.jet(2), CoeffExpr.var_lambda() * log
                               + CoeffExpr.var_lambda() ** 2 * sym("g"))
    assert mixed.has_extension_atoms()
    plain = mixed.lambda_coefficient(2)
    assert plain == ThetaPoly.monomial(Monomial.jet(2), sym("g"))
    assert not plain.has_extension_atoms()
    assert not mixed.subst_lambda(CoeffExpr.zero()).has_extension_atoms()
