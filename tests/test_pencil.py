import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from thetapencil.coeff import CoeffExpr, qq, sym
from thetapencil.algebra import Monomial, ThetaPoly, monomial_basis
from thetapencil.operators import NotExact, is_total_derivative
from thetapencil.parsing import ParseError, parse_coeff, parse_density
from thetapencil.pencil import (DeltaBracket, DiffOperator, LatticeBracket,
                                MiuraTransform, central_invariant,
                                deformation_order2, delta_to_theta,
                                dlz_generator, expand_lattice_bracket,
                                hydrodynamic_bracket, miura_transform,
                                parse_lattice_coeff,
                                theta_to_delta, verify_deformation,
                                _strip_extension)
from thetapencil.fixtures import (camassa_holm_brackets, camassa_holm_expected_u,
                                  camassa_holm_transform, canonical_form_eps2,
                                  kdv_brackets, volterra_lattice)

U = CoeffExpr.var_u()
LAM = CoeffExpr.var_lambda()
G = sym("g")
C = sym("c")


def tt(k):
    return ThetaPoly.monomial(Monomial((), (0, k)))


# -- conversions -----------------------------------------------------------

def test_pencil_density_to_bracket():
    P = tt(1) * ((U - LAM) * G)
    b = theta_to_delta(P)
    assert b.coefficient(0, 1) == ThetaPoly.from_coeff((U - LAM) * G)
    half_da = ((U - LAM) * G).ddu() * Fraction(1, 2)
    assert b.coefficient(0, 0) == ThetaPoly.jet(1) * half_da
    assert b.is_skew()


def test_flat_density_to_bracket():
    b = theta_to_delta(tt(1) * qq(1, 2))
    assert b.coefficient(0, 1) == ThetaPoly.from_coeff(qq(1, 2))
    assert b.coefficient(0, 0).is_zero()


def test_round_trip_on_classes():
    rng = random.Random(21)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            pool = [m for m in monomial_basis(d, p=2, max_jet=4)]
            if not pool:
                continue
            m = rng.choice(pool)
            coeff = qq(rng.randint(-3, 3) or 1) * (sym("f") if rng.random() < 0.5
                                                   else CoeffExpr.one())
            if rng.random() < 0.4:
                coeff = coeff * CoeffExpr.var_eps(2)
            terms[m] = terms.get(m, CoeffExpr.zero()) + coeff
        P = ThetaPoly(terms)
        if P.is_zero():
            continue
        back = delta_to_theta(theta_to_delta(P))
        assert is_total_derivative(back - P)[0]


def test_not_a_bivector_rejected():
    with pytest.raises(ValueError):
        theta_to_delta(ThetaPoly.theta(0))


def test_skewness_invariant_after_conversions():
    b = theta_to_delta(deformation_order2())
    assert b.is_skew()


# -- central invariants ------------------------------------------------------

def test_kdv_central_invariant():
    b1, b2 = kdv_brackets()
    assert central_invariant(b1, b2) == qq(1, 24)


def test_volterra_numbers_directly():
    b1 = hydrodynamic_bracket(U * U * 2)
    b1.op.coeffs[3] = ThetaPoly.from_coeff(U * U * Fraction(1, 3)
                                           * CoeffExpr.var_eps(2))
    b1 = DeltaBracket("u", (b1.op - b1.op.adjoint()) * Fraction(1, 2))
    b2 = hydrodynamic_bracket(U * U * U * 2)
    b2.op.coeffs[3] = ThetaPoly.from_coeff(U ** 3 * Fraction(5, 6)
                                           * CoeffExpr.var_eps(2))
    b2 = DeltaBracket("u", (b2.op - b2.op.adjoint()) * Fraction(1, 2))
    assert central_invariant(b1, b2) == qq(1, 24) / U


def test_camassa_holm_central_invariant_in_w():
    b1, b2 = camassa_holm_brackets()
    assert central_invariant(b1, b2) == U * Fraction(1, 24)


def test_non_canonical_pair_rejected():
    b1, _ = kdv_brackets()
    b2 = hydrodynamic_bracket(U * U)
    with pytest.raises(ValueError):
        central_invariant(b1, b2)


# -- Miura transformations ----------------------------------------------------

def test_identity_transform():
    b1, b2 = kdv_brackets()
    out = miura_transform(b2, MiuraTransform.parse("u"), 2)
    assert out.op == b2.op


def test_camassa_holm_first_bracket_flattens():
    b1, _ = camassa_holm_brackets()
    out = miura_transform(b1, camassa_holm_transform(), 2)
    expected, _ = camassa_holm_expected_u()
    assert out.op == expected.op


def test_camassa_holm_second_bracket_block():
    _, b2 = camassa_holm_brackets()
    out = miura_transform(b2, camassa_holm_transform(), 2)
    _, expected = camassa_holm_expected_u()
    assert out.op == expected.op
    assert out.is_skew()


def test_camassa_holm_invariant_is_stable_under_miura():
    b1, b2 = camassa_holm_brackets()
    f = camassa_holm_transform()
    before = central_invariant(b1, b2)
    after = central_invariant(miura_transform(b1, f, 2),
                              miura_transform(b2, f, 2))
    assert before == after == U * Fraction(1, 24)


def test_central_invariant_is_a_miura_invariant():
    # random second-type transforms leave the KdV invariant at 1/24 and
    # preserve skewness through the conjugation
    rng = random.Random(99)
    eps = CoeffExpr.var_eps
    for _ in range(4):
        f1 = ThetaPoly.jet(1) * qq(rng.randint(-2, 2)) \
            + ThetaPoly.jet(1) * (U * qq(rng.randint(-2, 2)))
        f2 = (ThetaPoly.jet(2) * qq(rng.randint(-2, 2))
              + ThetaPoly.jet(1, 2) * qq(rng.randint(-2, 2)))
        expr = ThetaPoly.from_coeff(U) + f1 * eps(1) + f2 * eps(2)
        f = MiuraTransform(expr)
        b1, b2 = kdv_brackets()
        t1, t2 = miura_transform(b1, f, 2), miura_transform(b2, f, 2)
        assert t1.is_skew() and t2.is_skew()
        assert central_invariant(t1, t2) == qq(1, 24)


def test_transform_with_coefficient_dependence():
    # a transform whose eps term depends on u exercises the Taylor shift
    f = MiuraTransform.parse("u + eps^2*u*u2")
    b = hydrodynamic_bracket(CoeffExpr.one())
    out = miura_transform(b, f, 2)
    assert out.is_skew()
    assert out.coefficient(0, 1) == ThetaPoly.one()


def test_nonidentity_leading_rejected():
    with pytest.raises(ValueError):
        MiuraTransform.parse("2*u + eps*u1")


@pytest.mark.parametrize("text, message", [
    ("u + eps*theta1", "transform must be even"),
    ("u + eps*u2", "order-1 term uses jets beyond u^1"),
], ids=["odd", "jet-beyond-order"])
def test_a_transform_outside_the_miura_group_is_refused(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MiuraTransform.parse(text)


def test_miura_refuses_a_negative_order():
    b1, _ = kdv_brackets()
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        miura_transform(b1, MiuraTransform.parse("u"), -1)


# -- lattice brackets ------------------------------------------------------------

def test_lattice_coeff_parsing():
    c = parse_lattice_coeff("1/4*u(x)*u(y)*(u(x)+u(y))")
    # squares on each side appear after expansion; a term key's funcs
    # tuple holds the point atoms ((side, shift), exponent)
    keys = {k[6] for k, _ in c.terms()}
    assert ((("x", 0), 2), (("y", 0), 1)) in keys
    assert ((("x", 0), 1), (("y", 0), 2)) in keys
    c2 = parse_lattice_coeff("u(x+2*eps) - u(y-eps)")
    keys2 = {k[6] for k, _ in c2.terms()}
    assert ((("x", 2), 1),) in keys2 and ((("y", -1), 1),) in keys2


@pytest.mark.parametrize("text", ["u(x)/u(y)", "u(x)^-1", "1/(u(x)+u(y))"])
def test_lattice_coeff_division_by_a_point_is_refused(text):
    with pytest.raises(ValueError):
        parse_lattice_coeff(text)


@pytest.mark.parametrize("text", ["u", "lambda*u(x)", "g*u(y)", "u(x)*u1"])
def test_lattice_coeff_refuses_a_bare_name(text):
    # the only atoms are point values: the coordinate, lambda, a function
    # symbol or a jet standing alone is refused at its position
    with pytest.raises(ParseError, match=r"point atoms are written like u\(x\)"):
        parse_lattice_coeff(text)


def test_lattice_document_refuses_a_bare_coordinate():
    with pytest.raises(ParseError, match=r"point atoms are written like u\(x\)"):
        LatticeBracket.from_dict({"coordinate": "u", "shift_terms": [
            {"shift": 1, "coeff": "u"}]})


def test_lattice_expansion_refuses_a_negative_order():
    l1, _ = volterra_lattice()
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        expand_lattice_bracket(l1, order=-1)


def test_volterra_dispersionless_terms():
    l1, _ = volterra_lattice()
    b1 = expand_lattice_bracket(l1, order=2)
    assert b1.coefficient(0, 1) == ThetaPoly.from_coeff(U * U * 2)
    assert b1.coefficient(0, 0) == ThetaPoly.jet(1) * (U * 2)
    assert b1.coefficient(1, 0).is_zero()      # no odd eps orders
    assert b1.is_skew()


def test_volterra_q_coefficients():
    l1, l2 = volterra_lattice()
    b1 = expand_lattice_bracket(l1, order=2)
    b2 = expand_lattice_bracket(l2, order=2)
    assert b1.coefficient(2, 3).as_coeff() == U * U * Fraction(1, 3)
    assert b2.coefficient(2, 3).as_coeff() == U ** 3 * Fraction(5, 6)
    assert central_invariant(b1, b2) == qq(1, 24) / U


def test_volterra_dispersionless_pencil():
    l1, l2 = volterra_lattice()
    b1 = expand_lattice_bracket(l1, order=2)
    b2 = expand_lattice_bracket(l2, order=2)
    metric = U ** 3 * 2 - LAM * U * U * 2
    assert (b2.op - b1.op * LAM).truncate_eps(0) == hydrodynamic_bracket(metric).op


def test_lattice_substitution_polynomial():
    # rescaling u -> 2u commutes with expansion
    l1, _ = volterra_lattice()
    direct = expand_lattice_bracket(l1, order=2, subst=U * 2)
    assert direct.coefficient(0, 1) == ThetaPoly.from_coeff(U * U * 8)


@pytest.mark.parametrize("image", [sym("g"), U ** -1, U * LAM,
                                   CoeffExpr.sqrt(2) * U])
def test_lattice_substitution_must_be_a_polynomial(image):
    l1, _ = volterra_lattice()
    with pytest.raises(ValueError, match="polynomial in the coordinate"):
        expand_lattice_bracket(l1, order=2, subst=image)


# Lattice brackets of tests/golden/lattice_expansions.json: the Volterra
# pair and a bracket with no symmetry, in the coordinate w.
LATTICE_GOLDEN = Path(__file__).parent / "golden" / "lattice_expansions.json"
VOLTERRA2 = {"coordinate": "u", "shift_terms": [
    {"shift": 1, "eps_power": -1, "coeff": "1/4*u(x)*u(y)*(u(x)+u(y))"},
    {"shift": -1, "eps_power": -1, "coeff": "-1/4*u(x)*u(y)*(u(x)+u(y))"},
    {"shift": 2, "eps_power": -1, "coeff": "1/4*u(x)*u(y)*u(x+eps)"},
    {"shift": -2, "eps_power": -1, "coeff": "-1/4*u(x)*u(y)*u(y+eps)"},
]}
ASYMMETRIC_W = {"coordinate": "w", "shift_terms": [
    {"shift": 1, "eps_power": 0, "coeff": "w(x)^2*w(y+eps) - 3/2*w(y)"},
    {"shift": -2, "eps_power": 1, "coeff": "1/3*w(x-eps)*w(y)^2"},
    {"shift": 0, "eps_power": 2, "coeff": "w(x+2*eps)"},
]}


# Every eps series stops at eps^n after each product, so the order-n result is
# the order-(n+1) result truncated at eps^n.  name -> (n -> brackets, top n)
TRUNCATED_SERIES = {
    "camassa_holm_miura": (lambda n: [miura_transform(b, camassa_holm_transform(), n)
                                      for b in camassa_holm_brackets()], 4),
    "kdv_miura": (lambda n: [miura_transform(b, MiuraTransform.parse(
        "u + eps*u*u1 + eps^2*u2"), n) for b in kdv_brackets()], 3),
    "volterra_lattice": (lambda n: [expand_lattice_bracket(lb, n)
                                    for lb in volterra_lattice()], 4),
    "asymmetric_w_lattice": (lambda n: [expand_lattice_bracket(
        LatticeBracket.from_dict(ASYMMETRIC_W), n)], 4),
}


@pytest.mark.parametrize("series, n", [(name, n) for name, (_, top) in TRUNCATED_SERIES.items()
                                       for n in range(top + 1)])
def test_order_n_is_order_n_plus_one_truncated(series, n):
    build, _ = TRUNCATED_SERIES[series]
    for low, high in zip(build(n), build(n + 1), strict=True):
        assert low.op == high.op.truncate_eps(n)


def test_lattice_expansions_match_golden():
    l1, l2 = volterra_lattice()
    brackets = {"volterra1": l1, "volterra2": l2,
                "asymmetric_w": LatticeBracket.from_dict(ASYMMETRIC_W)}
    cases = json.loads(LATTICE_GOLDEN.read_text())
    assert len(cases) == 54
    for case in cases:
        subst = case["subst"] and parse_coeff(case["subst"])
        out = expand_lattice_bracket(brackets[case["bracket"]], case["order"], subst)
        assert out.to_dict() == case["result"], case


@pytest.mark.parametrize("seed", range(4))
def test_lattice_substitution_equals_substituted_text(seed):
    # subst=f expands like the bracket whose every point P is written f(P)
    rng = random.Random(seed)
    f = " + ".join(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}*P^{k}"
                   for k in range(rng.randint(2, 3) + 1))
    image = parse_coeff(f.replace("P", "u"))
    for data in (VOLTERRA2, ASYMMETRIC_W):
        point = re.compile(data["coordinate"] + r"\([xy][^)]*\)")
        written = {"coordinate": data["coordinate"], "shift_terms": [
            dict(t, coeff=point.sub(lambda m: "(" + f.replace("P", m.group()) + ")",
                                    t["coeff"]))
            for t in data["shift_terms"]]}
        order = rng.randint(0, 3)
        assert expand_lattice_bracket(LatticeBracket.from_dict(data), order, image).op \
            == expand_lattice_bracket(LatticeBracket.from_dict(written), order).op


def test_lattice_y_point_moves_to_the_delta_support():
    # u(y) delta(x - y + eps) = u(x + eps) delta(x - y + eps), expanded by hand
    lb = LatticeBracket.from_dict({"coordinate": "u", "shift_terms": [
        {"shift": 1, "eps_power": 0, "coeff": "u(y)"}]})
    expected = {0: "u + eps*u1 + eps^2/2*u2 + eps^3/6*u3",
                1: "eps*u + eps^2*u1 + eps^3/2*u2",
                2: "eps^2/2*u + eps^3/2*u1",
                3: "eps^3/6*u"}
    out = expand_lattice_bracket(lb, order=3)
    assert out.op == DiffOperator({k: parse_density(text)
                                   for k, text in expected.items()})


def test_lattice_negative_eps_power_must_cancel():
    lb = LatticeBracket.from_dict({"coordinate": "u", "shift_terms": [
        {"shift": 1, "eps_power": -1, "coeff": "u(x)*u(y)"}]})
    with pytest.raises(ValueError, match="did not cancel"):
        expand_lattice_bracket(lb, order=2)


# -- the deformation -----------------------------------------------------------

def test_deformation_theta3_coefficient():
    density = deformation_order2()
    eps2 = density.eps_coefficient(2)
    assert eps2.coefficient(Monomial((), (0, 3))) == C * G * G * 3


def test_deformation_flat_metric_specialization():
    density = deformation_order2(CoeffExpr.one(), C)
    eps2 = density.eps_coefficient(2)
    cp = C.ddu()
    expected = tt(3) * (C * 3) + ThetaPoly.jet(1) * tt(2) * (cp * 3)
    assert eps2 == expected


def test_deformation_vanishes_without_invariant():
    density = deformation_order2(G, CoeffExpr.zero())
    assert density == tt(1) * ((U - LAM) * G)


def test_cocycle_and_negative_control():
    assert verify_deformation().ok
    corrupted = deformation_order2().eps_coefficient(2) \
        + tt(3) * (C * G * G * Fraction(1, 2))
    assert not verify_deformation(density=corrupted).ok


def test_cocycle_trivial_without_invariant():
    assert verify_deformation(G, CoeffExpr.zero()).ok


def test_cocycle_for_concrete_metric():
    g = U * U * 2
    c = qq(1, 24) / U
    assert verify_deformation(g, c).ok


def test_delta_form_blocks():
    bracket = theta_to_delta(deformation_order2())
    blocks = canonical_form_eps2()
    assert bracket.coefficient(2, 3) == blocks["delta3"]
    assert bracket.coefficient(2, 2) == blocks["delta2_derived"]
    assert bracket.coefficient(2, 2) != blocks["delta2_printed"]
    assert bracket.coefficient(2, 1) == blocks["P21"]
    assert bracket.coefficient(2, 0) == blocks["P20"]


def test_printed_second_derivative_variant_breaks_skewness():
    bracket = theta_to_delta(deformation_order2())
    blocks = canonical_form_eps2()
    eps2 = CoeffExpr.var_eps(2)
    coeffs = dict(bracket.op.coeffs)
    coeffs[2] = bracket.op.coefficient(2) \
        - bracket.coefficient(2, 2) * eps2 + blocks["delta2_printed"] * eps2
    assert not DeltaBracket("u", DiffOperator(coeffs)).is_skew()


def test_kdv_delta_form_value():
    bracket = theta_to_delta(deformation_order2(CoeffExpr.one(), qq(1, 24)))
    assert bracket.coefficient(2, 3) == ThetaPoly.from_coeff(qq(1, 8))


def test_pencil_members_recover_the_kdv_pair():
    pencil = theta_to_delta(deformation_order2(CoeffExpr.one(), qq(1, 24)))
    coeffs = pencil.op.coeffs
    assert all(c.lambda_degree() <= 1 for c in coeffs.values())
    first = DeltaBracket("u", DiffOperator({k: -c.lambda_coefficient(1)
                                            for k, c in coeffs.items()}))
    second = DeltaBracket("u", DiffOperator({k: c.lambda_coefficient(0)
                                             for k, c in coeffs.items()}))
    k1, k2 = kdv_brackets()
    assert first.op == k1.op
    assert second.op == k2.op
    assert central_invariant(first, second) == qq(1, 24)


# -- the logarithmic generator ----------------------------------------------------

def test_generator_matches_formula_class():
    gen = dlz_generator()
    assert not gen.has_extension_atoms()
    target = deformation_order2().eps_coefficient(2) * 2
    ok, witness = is_total_derivative(target - gen)
    assert ok and witness is not None
    assert witness.total_derivative() == target - gen


def test_generator_vanishes_without_invariant():
    assert dlz_generator(G, CoeffExpr.zero()).is_zero()


def test_generator_linearity():
    c2 = sym("h")
    lhs = dlz_generator(G, C + c2)
    rhs = dlz_generator(G, C) + dlz_generator(G, c2)
    assert is_total_derivative(lhs - rhs)[0]


def test_strip_integrates_a_log_residue():
    # D(log(u1)^2) = 2 log(u1) u2/u1 is exact, so nothing plain is left
    exact = ThetaPoly.from_coeff(CoeffExpr.log_u1(2)).total_derivative()
    assert _strip_extension(exact).is_zero()


def test_strip_rejects_unreducible_extension():
    stuck = ThetaPoly.monomial(Monomial((), (0, 1)), CoeffExpr.log_u1())
    with pytest.raises(NotExact) as refusal:
        _strip_extension(stuck)
    assert refusal.value.remainder == stuck


# -- files -------------------------------------------------------------------------

def test_bracket_json_round_trip(tmp_path):
    _, b2 = kdv_brackets()
    path = tmp_path / "kdv2.json"
    b2.save(path)
    loaded = DeltaBracket.load(path)
    assert loaded.op == b2.op and loaded.coordinate == "u"


def test_bracket_json_aliases():
    b = DeltaBracket.from_dict(
        {"coordinate": "u", "terms": [{"eps": 0, "der": 0, "coeff": "1/2*ux"}]})
    assert b.coefficient(0, 0) == ThetaPoly.jet(1) * qq(1, 2)


def test_lattice_json(tmp_path):
    path = tmp_path / "volt.json"
    path.write_text(json.dumps({
        "coordinate": "u",
        "shift_terms": [
            {"shift": 1, "eps_power": -1, "coeff": "u(x)*u(y)"},
            {"shift": -1, "eps_power": -1, "coeff": "-u(x)*u(y)"},
        ]}))
    lb = LatticeBracket.load(path)
    out = expand_lattice_bracket(lb, order=2)
    assert out.coefficient(0, 1) == ThetaPoly.from_coeff(U * U * 2)


def _lattice_term(**fields):
    return {"coordinate": "u", "shift_terms": [
        dict({"shift": 1, "eps_power": -1, "coeff": "u(x)*u(y)"}, **fields)]}


@pytest.mark.parametrize("document", [
    {}, [1, 2], {"shift_terms": "abc"},
    {"shift_terms": [{"eps_power": 0, "coeff": "u(x)"}]},
    _lattice_term(shift=True), _lattice_term(eps_power="a"), _lattice_term(coeff=5),
    dict(_lattice_term(), coordinate=7), _lattice_term(shift=1.5),
], ids=["empty", "list", "string-terms", "no-shift", "bool-shift", "string-eps-power",
        "int-coeff", "int-coordinate", "float-shift"])
def test_malformed_lattice_document_is_refused(document):
    with pytest.raises(ValueError):
        LatticeBracket.from_dict(document)


def test_lattice_document_defaults():
    lb = LatticeBracket.from_dict({"shift_terms": [{"shift": -2, "coeff": "u(x)"}]})
    assert lb.coordinate == "u"
    assert lb.shift_terms == [(-2, 0, CoeffExpr.func("x", 0))]
