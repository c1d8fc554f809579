import random
from fractions import Fraction

import pytest

from thetapencil.coeff import CoeffExpr, qq, sym
from thetapencil.algebra import Monomial, ThetaPoly, lex_compare, monomial_basis
from thetapencil import checks, spectral
from thetapencil.operators import d1_op, d2_op, dlambda_op
from thetapencil.spectral import (E1Element, ZeroWeightError,
                                  check_lambda_independence, d0, d1,
                                  filtration_level, homotopy_h, split_uvw)

U = CoeffExpr.var_u()
LAM = CoeffExpr.var_lambda()
G = sym("g")
A = (U - LAM) * G


def th(s):
    return ThetaPoly.theta(s)


def test_filtration_levels():
    assert filtration_level(ThetaPoly.jet(1) * th(2), 3) == 1
    assert filtration_level(th(0) * sym("f"), 0) == 0
    assert filtration_level(th(3), 3) == 0
    with pytest.raises(ValueError):
        filtration_level(th(3), 2)


def test_d0_on_degree_zero_slice():
    # f = f0(u, lambda) + theta f1(u, lambda) maps to the displayed image
    f0 = sym("f") * LAM
    f1 = sym("h")
    a = ThetaPoly.from_coeff(f0) + th(0) * f1
    out = d0(a, 0, 0)
    first = (th(1) * A + ThetaPoly.monomial(Monomial(((1, 1),), (0,)),
                                            A.ddu() * Fraction(1, 2))) * f0.ddu()
    second = ThetaPoly.monomial(Monomial((), (0, 1)),
                                -A * f1.ddu() + A.ddu() * f1 * Fraction(1, 2))
    assert out == first + second


def test_d0_kills_the_kernel_family():
    rng = random.Random(3)
    for q in (1, 2, 3):
        for dh in range(0, 3):
            pool = list(monomial_basis(dh, max_jet=q - 1))
            if not pool:
                continue
            for _ in range(5):
                h = ThetaPoly.monomial(rng.choice(pool), sym("h") * (LAM + 1))
                member = (th(q) * A
                          + ThetaPoly.monomial(Monomial(((q, 1),), (0,)),
                                               A.ddu() * Fraction(1, 2))) * h \
                    + ThetaPoly.monomial(Monomial((), (0, q))) * h
                assert d0(member, dh, q).is_zero()


def test_d0_is_the_top_jet_part_of_dlambda():
    # On E0^{p,q} only the q-th prolongation of Dlambda reaches jet index
    # q + 1, and d0 is that part of the full image.
    rng = random.Random(7)
    full_op = dlambda_op()
    coeffs = [G, U * LAM, sym("h"), U + qq(1, 2), sym("h", 1) * LAM]
    cases = 0
    for q in range(5):
        for p in range(3):
            pool = list(monomial_basis(p + q, max_jet=q))
            if not pool:
                continue
            for _ in range(20):
                a = ThetaPoly.zero()
                for _ in range(rng.randint(1, 3)):
                    a = a + ThetaPoly.monomial(rng.choice(pool), rng.choice(coeffs))
                if a.is_zero():
                    continue
                image = full_op.apply(a)
                top = ThetaPoly({m: c for m, c in image.terms()
                                 if m.even_exp(q + 1) or m.has_odd(q + 1)})
                assert d0(a, p, q) == top
                cases += 1
    assert cases >= 200


def test_d1_jet_free_body():
    a = sym("a")
    for q in (2, 3, 4):
        out = d1(E1Element(0, q, ThetaPoly.from_coeff(a)))
        expected = th(1) * (a * G * Fraction(q - 2, 2))
        assert out.body == expected
    assert d1(E1Element(0, 2, ThetaPoly.from_coeff(a))).body.is_zero()


def test_d1_kernel_at_1_2():
    body = ThetaPoly.from_coeff(sym("a")) * th(1)
    assert d1(E1Element(1, 2, body)).body.is_zero()


def _d1_full_oracle(x, g=G):
    """Independent route: apply the full pencil operator to the whole
    element body * theta0 theta^q, substitute lambda = u, and read the
    theta0 theta^q stratum with jets <= q-1."""
    spectator = ThetaPoly.monomial(Monomial((), (0, x.q)))
    full = dlambda_op(g).apply(x.body * spectator).subst_lambda(U)
    kept = {}
    for mono, coeff in full.terms():
        if not (mono.has_odd(0) and mono.has_odd(x.q)):
            continue
        _s0, m1 = mono.without_odd(0)
        _s1, m2 = m1.without_odd(x.q)
        if m2.max_jet() > x.q - 1 or m2.has_odd(0):
            continue
        kept[mono] = coeff
    return ThetaPoly(kept)


def test_d1_against_full_expansion_oracle():
    cases = [
        E1Element(1, 3, ThetaPoly.jet(1) * sym("a")),
        E1Element(2, 3, ThetaPoly.jet(2) * sym("a") + ThetaPoly.jet(1, 2)),
        E1Element(2, 2, ThetaPoly.jet(1) * th(1)),
        E1Element(3, 4, ThetaPoly.jet(3) * sym("a")),
    ]
    for x in cases:
        got = d1(x).body * ThetaPoly.monomial(Monomial((), (0, x.q)))
        assert got == _d1_full_oracle(x)


def _d1_pencil_oracle(x, g=G):
    """Independent route, without lambda: D2(f) - u D1(f) plus the
    (q-2)/2 g theta1 f correction, with the spectator and jets-q terms
    dropped."""
    raw = d2_op(g).apply(x.body) - d1_op(g).apply(x.body) * U \
        + th(1) * x.body * (g * Fraction(x.q - 2, 2))
    return ThetaPoly({m: c for m, c in raw.terms()
                      if not m.has_odd(0) and not m.has_odd(x.q)
                      and m.max_jet() <= x.q - 1})


def test_split_d1_against_pencil_oracle():
    for q in (2, 3, 4, 5):
        split = split_uvw(q)
        for p in range(0, 7 - q):
            for m in monomial_basis(p, max_jet=q - 1):
                if m.has_odd(0) or m.has_odd(q):
                    continue
                for coeff in (sym("a"), U * U - sym("a", 1)):
                    x = E1Element(p, q, ThetaPoly.monomial(m, coeff))
                    assert split.d1(x).body == _d1_pencil_oracle(x), (q, m)


def test_one_split_serves_many_elements_in_any_order():
    rng = random.Random(21)
    for q in (2, 3, 4):
        elements = []
        for p in (1, 2, 3):
            pool = [m for m in monomial_basis(p, max_jet=q - 1)
                    if not m.has_odd(0) and not m.has_odd(q)]
            for _ in range(4):
                terms = {rng.choice(pool): qq(rng.randint(1, 3)) * sym("a")
                         for _ in range(2)}
                elements.append(E1Element(p, q, ThetaPoly(terms)))
        rng.shuffle(elements)
        split = split_uvw(q)
        for x in elements:
            if (x.p, x.q) != (1, 2):
                assert split.homotopy(x) == homotopy_h(x)
            assert split.d1(x) == d1(x)


BODY_COEFFS = [sym("a"), U * sym("a"), sym("g", 1), CoeffExpr.var_u(-1),
               qq(3, 2), qq(-2, 3) * U]


def test_tables_match_the_whole_body_formulas():
    # one split per q serves shuffled elements of every q, so the rows it
    # tabulates are reused; a fresh split applies the row formulas to the
    # whole body, with coefficients that are not constant
    rng = random.Random(29)
    elements = []
    for q in (2, 3, 4, 5):
        for p in (1, 2, 3, 4):
            pool = [m for m in monomial_basis(p, max_jet=q - 1)
                    if not m.has_odd(0) and not m.has_odd(q)]
            for _ in range(4):
                terms = {rng.choice(pool): rng.choice(BODY_COEFFS) for _ in range(3)}
                elements.append(E1Element(p, q, ThetaPoly(terms)))
    for g in (G, U * U):
        rng.shuffle(elements)
        splits = {q: split_uvw(q, g) for q in (2, 3, 4, 5)}
        for x in elements + elements[::-1]:
            fresh = split_uvw(x.q, g)
            assert splits[x.q].d1(x).body == fresh._d1_of(x.body), (g, x)
            if (x.p, x.q) != (1, 2):
                assert splits[x.q].homotopy(x).body == \
                    fresh._homotopy_of(x.body, x.p), (g, x)


@pytest.mark.parametrize("g", [G, U * U + 1, U * U * U - U * 2],
                         ids=["symbolic", "u^2+1", "u^3-2u"])
def test_projected_p0_vanishes(g):
    for q in (2, 3, 4, 5):
        assert split_uvw(q, g)._derivative("xu", 0).is_zero()


def test_d1_refuses_a_split_whose_p0_does_not_vanish(monkeypatch):
    split = split_uvw(3)
    real = split._derivative
    monkeypatch.setattr(split, "_derivative", lambda name, n: ThetaPoly.jet(1)
                        if (name, n) == ("xu", 0) else real(name, n))
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            split.d1(E1Element(1, 3, ThetaPoly.jet(1)))


def test_zero_weight_error_survives_the_tables():
    split = split_uvw(2)
    assert split.d1(E1Element(1, 2, th(1))).body.is_zero()
    split.homotopy(E1Element(2, 2, th(1) * ThetaPoly.jet(1)))
    for body in (th(1), th(1) * sym("a"), th(1) * U, th(1)):
        with pytest.raises(ZeroWeightError):
            split.homotopy(E1Element(1, 2, body))
        with pytest.raises(ZeroWeightError):
            split.u_inverse(ThetaPoly.one())


def test_homotopy_report_builds_dlambda_once(monkeypatch):
    built = []

    def counting(g=None):
        built.append(g)
        return dlambda_op(g)

    monkeypatch.setattr(spectral, "dlambda_op", counting)
    assert checks.verify_homotopy_report(3, 3, 10, 0).ok
    assert len(built) == 1


def test_split_rejects_lambda_bodies_and_foreign_classes():
    with pytest.raises(ValueError):
        split_uvw(3).w_apply(ThetaPoly.jet(1) * LAM)
    with pytest.raises(ValueError):
        split_uvw(3).d1(E1Element(1, 2, ThetaPoly.jet(1)))


def test_d1_squared_mod_reduction():
    for q in (2, 3):
        for p in (1, 2, 3):
            for m in monomial_basis(p, max_jet=q - 1):
                if m.has_odd(0) or m.has_odd(q):
                    continue
                x = E1Element(p, q, ThetaPoly.monomial(m, sym("a")))
                assert d1(d1(x)).reduce().body.is_zero()


def test_u_diagonal_values():
    s3 = split_uvw(3)
    out = s3.u_apply(ThetaPoly.jet(1))
    assert out == ThetaPoly.jet(1) * (G * 2)
    s2 = split_uvw(2)
    assert s2.u_apply(th(1)).is_zero()


def test_v_descends_lexicographically():
    rng = random.Random(12)
    for _ in range(120):
        q = rng.randint(2, 5)
        d = rng.randint(1, 5)
        pool = [m for m in monomial_basis(d, max_jet=q - 1)
                if not m.has_odd(0) and not m.has_odd(q)]
        if not pool:
            continue
        mono = rng.choice(pool)
        out = split_uvw(q).v_apply(ThetaPoly.monomial(mono))
        for mm in out.monomials():
            assert lex_compare(mm, mono) < 0
            assert mm.degree_d() == mono.degree_d()


def test_uvw_residual_is_theta1_free_operator():
    for q in (2, 3, 4):
        split = split_uvw(q)
        for d in (1, 2, 3):
            for mono in monomial_basis(d, max_jet=q - 1):
                if mono.has_odd(0) or mono.has_odd(q) or mono.has_odd(1):
                    continue
                w = split.w_apply(ThetaPoly.monomial(mono, sym("a")))
                assert not any(mm.has_odd(1) for mm in w.monomials())


def test_homotopy_kills_theta1_free_input():
    x = E1Element(2, 3, ThetaPoly.jet(2) * sym("a"))
    assert homotopy_h(x).body.is_zero()


def test_homotopy_single_eigenvector():
    # theta1 * m with V(m) = 0: h = m / (g * eigenvalue)
    m = ThetaPoly.jet(1)                     # eigenvalue 3/2 + 1/2 at q = 3
    x = E1Element(2, 3, th(1) * m)
    expected = m * (CoeffExpr.func("g", 0, -1) * Fraction(1, 2))
    assert homotopy_h(x).body == expected


def test_contraction_identity_samples():
    rng = random.Random(13)
    for (p, q) in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        pool = [m for m in monomial_basis(p, max_jet=q - 1)
                if not m.has_odd(0) and not m.has_odd(q)]
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                m = rng.choice(pool)
                terms[m] = (terms.get(m, CoeffExpr.zero())
                            + qq(rng.randint(-3, 3) or 1) * sym("a"))
            x = E1Element(p, q, ThetaPoly(terms))
            both = d1(homotopy_h(x)).body + homotopy_h(d1(x)).body
            assert E1Element(p, q, both).equal_mod_reduction(x)


def test_zero_weight_error_at_1_2():
    with pytest.raises(ZeroWeightError):
        homotopy_h(E1Element(1, 2, th(1)))


def test_lambda_independence_cases():
    one = CoeffExpr.one()
    out = check_lambda_independence([one])
    assert out.independent and out.value == qq(1, 2)
    out = check_lambda_independence([U, qq(-2)])
    assert out.independent and out.value == U * Fraction(1, 2)
    assert out.minus_recurrence and not out.plus_recurrence
    out = check_lambda_independence([CoeffExpr.zero(), one])
    assert not out.independent and out.value is None


def test_recurrence_sign_is_minus():
    # a longer family built to satisfy t_i' = -(i + 1/2) t_{i+1}
    t2 = sym("a")
    t1 = t2 * U * (-3)                       # t1' = -(3/2) t2 needs a' = 0...
    t0 = CoeffExpr.one()
    # build from the top instead: choose t2 constant
    t2 = qq(4)
    t1 = U * qq(-6)                          # t1' = -6 = -(3/2) * 4
    t0 = U * U * Fraction(3, 2) + qq(7)      # t0' = 3u = -(1/2) t1
    out = check_lambda_independence([t0, t1, t2])
    assert out.independent and out.minus_recurrence and not out.plus_recurrence
    assert out.value == t0 * Fraction(1, 2)


def test_failing_spectral_check_keeps_the_later_checks(monkeypatch):
    # a d0 broken by an exact term fails the three d0 checks; the page-one
    # checks after them must still run and pass
    orig = checks.d0
    monkeypatch.setattr(checks, "d0", lambda a, p, q, g=None:
                        orig(a, p, q, g) + a.total_derivative())
    report = checks.verify_spectral_report(seed=0, samples=5, lex_samples=5)
    by_name = {c.name: c for c in report.checks}
    assert sorted(by_name) == sorted([
        "d0_squared", "kernel_membership", "image_membership",
        "d1_squared_mod_reduction", "uvw_split", "v_lex_descent"])
    for name in ("d0_squared", "kernel_membership", "image_membership"):
        assert not by_name[name].passed
        assert by_name[name].residual and by_name[name].detail
    for name in ("d1_squared_mod_reduction", "uvw_split", "v_lex_descent"):
        assert by_name[name].passed
