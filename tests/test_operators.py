import random
import time
from fractions import Fraction

import pytest

from thetapencil import operators
from thetapencil.coeff import CoeffExpr, qq, sym
from thetapencil.algebra import Monomial, ThetaPoly, monomial_basis
from thetapencil.operators import (ConstantObstruction, NotExact, _peel, d1_op, d2_op,
                                   dlambda_op, exact_witness,
                                   is_total_derivative, pencil_operator,
                                   variational_derivative_theta,
                                   variational_derivative_u)
from peel_helpers import integrate_in_u

U = CoeffExpr.var_u()
LAM = CoeffExpr.var_lambda()
G = sym("g")


def naive_apply(op, poly):
    """Oracle: evaluate the derivation by recursive Leibniz expansion,
    factor by factor, independent of the prolongation-sum code path."""
    out = ThetaPoly.zero()
    for mono, coeff in poly.terms():
        factors = []
        for s, e in mono.evens:
            factors.extend([("u", s)] * e)
        factors.extend(("th", s) for s in mono.odds)
        # coefficient chain: the u0 slot
        chain = op.xu * ThetaPoly.monomial(mono, coeff.ddu())
        out = out + chain
        for idx, (kind, s) in enumerate(factors):
            prefix_parity = sum(1 for k, _ in factors[:idx] if k == "th")
            rest = factors[:idx] + factors[idx + 1:]
            image = op.xu if kind == "u" else op.xtheta
            for _ in range(s):
                image = image.total_derivative()
            sign = -1 if (prefix_parity % 2) else 1
            piece = ThetaPoly.from_coeff(coeff * sign)
            for k, t in factors[:idx]:
                piece = piece * (ThetaPoly.jet(t) if k == "u" else ThetaPoly.theta(t))
            piece = piece * image
            for k, t in rest[idx:]:
                piece = piece * (ThetaPoly.jet(t) if k == "u" else ThetaPoly.theta(t))
            out = out + piece
    return out


def test_apply_matches_naive_leibniz_oracle():
    rng = random.Random(9)
    DL = dlambda_op()
    pool = [m for d in range(0, 4) for m in monomial_basis(d, max_jet=4)]
    for _ in range(30):
        a = ThetaPoly.monomial(rng.choice(pool), sym("f"))
        assert DL.apply(a) == naive_apply(DL, a)


def test_pencil_characteristics_on_generators():
    DL = dlambda_op()
    A = (U - LAM) * G
    xu_expected = ThetaPoly.theta(1) * A + \
        ThetaPoly.monomial(Monomial(((1, 1),), (0,)), A.ddu() * Fraction(1, 2))
    assert DL.apply(ThetaPoly.from_coeff(U)) == xu_expected
    xth_expected = ThetaPoly.monomial(Monomial((), (0, 1)),
                                      A.ddu() * Fraction(1, 2))
    assert DL.apply(ThetaPoly.theta(0)) == xth_expected


def test_apply_chain_rule_on_point_function():
    DL = dlambda_op()
    f = sym("f")
    assert DL.apply(ThetaPoly.from_coeff(f)) == DL.xu * f.ddu()


def test_total_derivative_preserves_lambda_degree():
    for d in range(0, 4):
        for m in monomial_basis(d, max_jet=4):
            a = ThetaPoly.monomial(m, sym("f") * LAM ** 2)
            out = a.total_derivative()
            assert out.is_zero() or out.lambda_degree() == 2
            assert out.lambda_coefficient(1).is_zero()


def test_pencil_linearity():
    D1, D2, DL = d1_op(), d2_op(), dlambda_op()
    for a in (ThetaPoly.jet(1), ThetaPoly.theta(2),
              ThetaPoly.jet(2) * ThetaPoly.theta(1)):
        assert (D2(a) - D1(a) * LAM - DL(a)).is_zero()


def test_pencil_density_is_annihilated():
    DL = dlambda_op()
    pencil = ThetaPoly.monomial(Monomial((), (0, 1)), (U - LAM) * G)
    assert DL.apply(pencil).is_zero()


def test_d1_on_first_jet_is_a_total_derivative_of_characteristics():
    D1 = d1_op()
    expected = (ThetaPoly.theta(1) * G
                + ThetaPoly.monomial(Monomial(((1, 1),), (0,)),
                                     G.ddu() * Fraction(1, 2))).total_derivative()
    assert D1.apply(ThetaPoly.jet(1)) == expected


def test_apply_is_a_graded_derivation():
    DL = dlambda_op()
    rng = random.Random(10)
    pool = [m for d in range(0, 4) for m in monomial_basis(d, max_jet=4)]
    for _ in range(30):
        ma, mb = rng.choice(pool), rng.choice(pool)
        a, b = ThetaPoly.monomial(ma, sym("f")), ThetaPoly.monomial(mb)
        sign = -1 if ma.degree_p() % 2 else 1
        assert DL(a * b) == DL(a) * b + (a * DL(b)) * sign


def test_bidegree_shift():
    DL = dlambda_op()
    for d in range(0, 4):
        for m in monomial_basis(d, max_jet=4):
            out = DL(ThetaPoly.monomial(m, sym("f")))
            for (dd, pp) in out.bidegree_components():
                assert (dd, pp) == (d + 1, m.degree_p() + 1)


def test_euler_annihilates_total_derivatives():
    rng = random.Random(11)
    pool = [m for d in range(1, 5) for m in monomial_basis(d, max_jet=4)]
    for _ in range(30):
        a = ThetaPoly.monomial(rng.choice(pool), sym("f")).total_derivative()
        assert variational_derivative_u(a).is_zero()
        assert variational_derivative_theta(a).is_zero()


def test_euler_frozen_values():
    tt1 = ThetaPoly.theta(0) * ThetaPoly.theta(1)
    assert variational_derivative_theta(tt1) == ThetaPoly.theta(1) * 2
    half_u1sq = ThetaPoly.jet(1, 2) * qq(1, 2)
    assert variational_derivative_u(half_u1sq) == -ThetaPoly.jet(2)


def test_is_total_derivative_round_trip():
    w = ThetaPoly.jet(1) * ThetaPoly.theta(0) * ThetaPoly.theta(2)
    ok, witness = is_total_derivative(w.total_derivative())
    assert ok and witness.total_derivative() == w.total_derivative()
    ok, witness = is_total_derivative(
        (ThetaPoly.theta(0) * ThetaPoly.theta(2)).total_derivative())
    assert ok and witness == ThetaPoly.theta(0) * ThetaPoly.theta(2)


def test_log_stratum_peels_before_its_u2_residue():
    # D(2 log(u1) g theta0) = 2 log(u1) g' u1 theta0 + 2 g u2/u1 theta0
    # + 2 log(u1) g theta1: the lex-greater u2/u1 term is undone only
    # after the log stratum that leaves it.
    w = ThetaPoly.theta(0) * (CoeffExpr.log_u1() * G * 2)
    assert exact_witness(w.total_derivative()) == w
    assert is_total_derivative(w.total_derivative()) == (True, w)


def test_log_residue_of_a_constant_coefficient_integrates():
    # D(log(u1)^2) = 2 log(u1) u2/u1: the u2/u1 stratum has no jet to lower,
    # and its witness raises the log power instead.
    w = ThetaPoly.from_coeff(CoeffExpr.log_u1(2))
    assert exact_witness(w.total_derivative()) == w


def test_log_residue_with_other_factors_is_refused_at_once():
    # log(u1) u2/u1 theta0 is not exact; raising the log power would leave
    # a theta1 term that the peel undoes into a new log residue, without end.
    a = ThetaPoly.monomial(Monomial(((1, -1), (2, 1)), (0,)), CoeffExpr.log_u1())
    start = time.perf_counter()
    with pytest.raises(NotExact):
        exact_witness(a)
    assert time.perf_counter() - start < 1


def test_theta_theta1_is_not_exact():
    ok, witness = is_total_derivative(ThetaPoly.theta(0) * ThetaPoly.theta(1))
    assert not ok and witness is None


def test_constant_obstruction():
    with pytest.raises(ConstantObstruction):
        is_total_derivative(ThetaPoly.from_coeff(sym("f")))


def test_exact_without_ring_witness():
    # g c u1 = d/dx of the antiderivative of g c, which exists only in the
    # smooth closure: exact as a class, no witness in the ring.
    a = ThetaPoly.jet(1) * (sym("g") * sym("c"))
    ok, witness = is_total_derivative(a)
    assert ok and witness is None


@pytest.fixture
def euler_calls(monkeypatch):
    """Count the Euler operators that `is_total_derivative` runs."""
    calls = []
    for name in ("variational_derivative_u", "variational_derivative_theta"):
        def counted(a, _euler=getattr(operators, name), _name=name):
            calls.append(_name)
            return _euler(a)
        monkeypatch.setattr(operators, name, counted)
    return calls


@pytest.mark.parametrize("w", [
    ThetaPoly.jet(1) * ThetaPoly.theta(0) * ThetaPoly.theta(2),
    ThetaPoly.theta(0) * (CoeffExpr.log_u1() * G * 2),
    ThetaPoly.from_coeff(CoeffExpr.log_u1(2)),
    ThetaPoly.jet(1, -2) * ThetaPoly.jet(2) * (U * G),
], ids=["u1-theta0-theta2", "log-g-theta0", "log-squared", "u1-inverse-squared"])
def test_a_witness_decides_without_the_euler_operators(w, euler_calls):
    ok, witness = is_total_derivative(w.total_derivative())
    assert ok and witness.total_derivative() == w.total_derivative()
    assert euler_calls == []


def test_a_remainder_is_decided_by_the_euler_operators(euler_calls):
    assert is_total_derivative(ThetaPoly.theta(0) * ThetaPoly.theta(1)) == (False, None)
    assert euler_calls
    euler_calls.clear()
    assert is_total_derivative(ThetaPoly.jet(1) * (sym("g") * sym("c"))) == (True, None)
    assert euler_calls


def test_normal_form_divides_c_u1_one_atom_group_at_a_time():
    # u u1 = D(u^2/2), while u^-1 u1 and g c u1 have no ring antiderivative:
    # the peel sets aside only the group it cannot undo, so NF is additive.
    u1 = ThetaPoly.jet(1)
    assert _peel(u1 * (U ** -1 + U))[1] == u1 * U ** -1
    assert _peel(u1 * (U + G * sym("c")))[1] == u1 * (G * sym("c"))


def test_one_peel_per_exactness_call(monkeypatch):
    peels = []

    def counted(a, _exact_witness=operators.exact_witness):
        peels.append(a)
        return _exact_witness(a)
    monkeypatch.setattr(operators, "exact_witness", counted)
    w = ThetaPoly.jet(2) * G + ThetaPoly.theta(0) * ThetaPoly.theta(1) * U
    assert len(w.total_derivative().bidegree_components()) == 2
    ok, witness = is_total_derivative(w.total_derivative())
    assert ok and witness.total_derivative() == w.total_derivative()
    assert len(peels) == 1


def test_a_refusal_renders_its_remainder_only_when_shown(monkeypatch):
    rendered = []
    monkeypatch.setattr(ThetaPoly, "render",
                        lambda self, base_name="u": rendered.append(self) or "theta0*theta1")
    refusal = NotExact(ThetaPoly.theta(0) * ThetaPoly.theta(1))
    assert rendered == []
    assert str(refusal) == "the peel leaves theta0*theta1" and len(rendered) == 1


def test_integrate_in_u():
    g1, h1 = sym("g", 1), sym("h", 1)
    assert integrate_in_u((U * G).ddu()) == U * G
    assert integrate_in_u(g1) == G
    assert integrate_in_u(-g1 / (G * G)) == G ** -1
    assert integrate_in_u(CoeffExpr.log_u1() * g1) == CoeffExpr.log_u1() * G
    # log u, g c, h' outranking g, log g, g' h' and u^-1 g'
    for integrand in (U ** -1, G * sym("c"), G * h1, g1 / G, g1 * h1, U ** -1 * g1):
        assert integrate_in_u(integrand) is None


@pytest.mark.parametrize("integrand", [
    sym("g", 2) ** 2 * sym("h", 2) ** 2 * sym("h", 3),
    sym("g", 2) ** 3 * sym("g", 3) / sym("h", 2),
], ids=["g2^2 h2^2 h3", "g2^3 g3 / h2"])
def test_integrate_in_u_refuses_large_integrands_within_a_bound(integrand):
    start = time.perf_counter()
    assert integrate_in_u(integrand) is None
    assert time.perf_counter() - start < 0.05


def test_operator_identities_small_sweep():
    D1, D2, DL = d1_op(), d2_op(), dlambda_op()
    f = sym("f")
    for d in range(0, 4):
        for m in monomial_basis(d, max_jet=5):
            a = ThetaPoly.monomial(m, f)
            assert D1(D1(a)).is_zero()
            assert D2(D2(a)).is_zero()
            assert (D1(D2(a)) + D2(D1(a))).is_zero()
            assert DL(a.total_derivative()) == DL(a).total_derivative()


def test_concrete_metric_operators():
    # the operators accept concrete metrics, e.g. the Volterra 2u^2
    D = pencil_operator((U - LAM) * (U * U * 2))
    for d in range(0, 3):
        for m in monomial_basis(d, max_jet=3):
            assert D(D(ThetaPoly.monomial(m))).is_zero()


def direct_euler(a, partial):
    """Oracle: sum_s (-D)^s partial(a, s), each term differentiated on its
    own, as the definition reads."""
    out = ThetaPoly.zero()
    for s in range(a.max_jet() + 1):
        piece = partial(a, s)
        for _ in range(s):
            piece = piece.total_derivative()
        out = out + piece if s % 2 == 0 else out - piece
    return out


def _random_poly(rng, pool, scalars):
    return ThetaPoly({rng.choice(pool): rng.choice(scalars) * (rng.randint(-3, 3) or 1)
                      for _ in range(rng.randint(1, 4))})


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_horner_euler_matches_the_direct_sum(extended):
    rng = random.Random(23)
    pool = [m for d in range(0, 5) for m in monomial_basis(d, max_jet=4)]
    scalars = [CoeffExpr.one(), sym("f"), U * G, U ** 2 - LAM, qq(1, 2) * G.ddu()]
    if extended:
        scalars += [c * CoeffExpr.log_u1() for c in scalars]
        pool = [m.with_even(1, m.even_exp(1) + k) for m in pool for k in (0, -1, -3)]
    for _ in range(200):
        a = _random_poly(rng, pool, scalars)
        for horner, partial in ((variational_derivative_u, ThetaPoly.du),
                                (variational_derivative_theta, ThetaPoly.dtheta)):
            assert horner(a) == direct_euler(a, partial)
