import gc
import random
import time
import weakref
from fractions import Fraction

import pytest

from thetapencil.coeff import CoeffExpr, qq, sym
from thetapencil.algebra import Monomial, ThetaPoly, lex_key, monomial_basis
from thetapencil import checks, spectral
from thetapencil.cli import main
from thetapencil.operators import (EvolutionaryOp, _characteristics, _pencil_scalar, d1_op,
                                   d2_op, dlambda_op)
from thetapencil.spectral import (E1Element, UVWSplit, ZeroWeightError,
                                  check_lambda_independence, d0, d1,
                                  homotopy_h, page_one_basis)

U = CoeffExpr.var_u()
LAM = CoeffExpr.var_lambda()
G = sym("g")
A = (U - LAM) * G


def th(s):
    return ThetaPoly.theta(s)


def _top_terms(body, q):
    """The reference quotient map: the terms of body with top jet q-1."""
    return ThetaPoly({m: c for m, c in body.terms() if m.max_jet() == q - 1})


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


def test_page_one_basis_is_the_explicit_filter():
    # the reference: degree p, jets <= q-1, no theta0 and no theta^q
    for q in range(2, 7):
        for p in range(7):
            explicit = tuple(m for m in monomial_basis(p, max_jet=q - 1)
                             if not m.has_odd(0) and not m.has_odd(q))
            assert page_one_basis(p, q) == explicit, (p, q)


def test_d1_jet_free_body():
    # the whole-body formula gives (q-2)/2 a g theta1; a jet-free body has
    # jets <= q-2, so its class and the class of its image are zero
    a = sym("a")
    for q in (2, 3, 4):
        x = E1Element(0, q, ThetaPoly.from_coeff(a))
        expected = th(1) * (a * G * Fraction(q - 2, 2))
        assert UVWSplit(q)._d1_of(x.body) == expected
        assert d1(x).body == _top_terms(expected, q) == ThetaPoly.zero()


def test_d1_kernel_at_1_2():
    body = ThetaPoly.from_coeff(sym("a")) * th(1)
    assert d1(E1Element(1, 2, body)).body.is_zero()


def _d1_full_oracle(x, g=G, top=False):
    """Independent route: apply the full pencil operator to the whole
    element body * theta0 theta^q, substitute lambda = u, and read the
    theta0 theta^q stratum with jets <= q-1 (exactly q-1 when top)."""
    spectator = ThetaPoly.monomial(Monomial((), (0, x.q)))
    full = dlambda_op(g).apply(x.body * spectator).subst_lambda(U)
    kept = {}
    for mono, coeff in full.terms():
        if not (mono.has_odd(0) and mono.has_odd(x.q)):
            continue
        _s0, m1 = mono.without_odd(0)
        _s1, m2 = m1.without_odd(x.q)
        if m2.max_jet() > x.q - 1 or m2.has_odd(0) or top and m2.max_jet() < x.q - 1:
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
        spectator = ThetaPoly.monomial(Monomial((), (0, x.q)))
        assert UVWSplit(x.q)._d1_of(x.body) * spectator == _d1_full_oracle(x)
        assert d1(x).body * spectator == _d1_full_oracle(x, top=True)


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
        split = UVWSplit(q)
        for p in range(0, 7 - q):
            for m in page_one_basis(p, q):
                for coeff in (sym("a"), U * U - sym("a", 1)):
                    x = E1Element(p, q, ThetaPoly.monomial(m, coeff))
                    assert split._d1_of(x.body) == _d1_pencil_oracle(x), (q, m)
                    assert split.d1(x).body == _top_terms(_d1_pencil_oracle(x), q), (q, m)


def test_one_split_serves_many_elements_in_any_order():
    rng = random.Random(21)
    for q in (2, 3, 4):
        elements = []
        for p in (1, 2, 3):
            pool = page_one_basis(p, q)
            for _ in range(4):
                terms = {rng.choice(pool): qq(rng.randint(1, 3)) * sym("a")
                         for _ in range(2)}
                elements.append(E1Element(p, q, ThetaPoly(terms)))
        rng.shuffle(elements)
        split = UVWSplit(q)
        for x in elements:
            if (x.p, x.q) != (1, 2):
                assert split.homotopy(x) == homotopy_h(x)
            assert split.d1(x) == d1(x)


BODY_COEFFS = [sym("a"), U * sym("a"), sym("g", 1), CoeffExpr.var_u(-1),
               qq(3, 2), qq(-2, 3) * U]


def _plain_series(split, x):
    """sum_n (-U^{-1} V)^n U^{-1} d/dtheta1 on the whole body, term by term,
    through the public maps."""
    term = split.u_inverse(E1Element(x.p - 1, x.q, x.body.dtheta(1)))
    total = ThetaPoly.zero()
    for _ in range(100):
        if term.is_zero():
            return total
        total = total + term.body
        term = E1Element(term.p, term.q, -split.u_inverse(split.v_apply(term)).body)
    raise AssertionError("the series did not terminate")


def test_tables_match_the_whole_body_formulas():
    # one split per q serves shuffled elements of every q, so the rows it
    # tabulates are reused; a fresh split applies d1's formula and the plain
    # perturbation series to the whole body, with coefficients that are not
    # constant, and the tables must give their top-jet parts
    rng = random.Random(29)
    elements = []
    for q in (2, 3, 4, 5):
        for p in (1, 2, 3, 4):
            pool = page_one_basis(p, q)
            for _ in range(4):
                terms = {rng.choice(pool): rng.choice(BODY_COEFFS) for _ in range(3)}
                elements.append(E1Element(p, q, ThetaPoly(terms)))
    for g in (G, U * U):
        rng.shuffle(elements)
        splits = {q: UVWSplit(q, g) for q in (2, 3, 4, 5)}
        for x in elements + elements[::-1]:
            fresh = UVWSplit(x.q, g)
            assert splits[x.q].d1(x).body == _top_terms(fresh._d1_of(x.body), x.q), (g, x)
            if (x.p, x.q) != (1, 2):
                assert splits[x.q].homotopy(x).body == _top_terms(_plain_series(fresh, x),
                                                                  x.q), (g, x)


@pytest.mark.parametrize("g", [G, U * U + 1, U * U * U - U * 2],
                         ids=["symbolic", "u^2+1", "u^3-2u"])
def test_projected_p0_vanishes(g):
    for q in (2, 3, 4, 5):
        assert UVWSplit(q, g)._xu(0).is_zero()


def test_d1_refuses_a_split_whose_p0_does_not_vanish(monkeypatch):
    # an operator whose x_u is u1: its projected P_0 survives at q = 3
    monkeypatch.setattr(spectral, "dlambda_op", lambda g: EvolutionaryOp(
        ThetaPoly.jet(1), dlambda_op(g).xtheta))
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            UVWSplit(3)


def test_a_split_is_freed_by_reference_counting():
    # the split keeps no closure over itself, so dropping the last reference
    # frees it and its tables without the cyclic collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        split = UVWSplit(4)
        u3 = ThetaPoly.jet(3)
        x = E1Element(4, 4, th(1) * u3 + ThetaPoly.jet(1) * u3 * sym("a"))
        split.d1(x)
        split.homotopy(x)
        split.w_apply(x)
        assert split._d1_rows and split._r_rows
        freed = weakref.ref(split)
        del split
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_a_large_split_builds_only_the_jets_a_body_reaches():
    # V's multipliers are built per s on first use.  At q = 40 no body of
    # degree 2 or 3 reaches jet 39, so the homotopy of such a class is zero
    # and builds nothing; V of theta1 u1 reaches no d/du^s (those start at
    # s = 2) and V of theta1 u2 builds exactly s = 2, and no d/dtheta^s
    # (those start at s = 3)
    split = UVWSplit(40)
    low = E1Element(2, 40, th(1) * ThetaPoly.jet(1) * sym("a") + ThetaPoly.jet(2))
    assert split.homotopy(low).is_zero()
    assert split.homotopy(E1Element(3, 40, th(1) * ThetaPoly.jet(2))).is_zero()
    assert split._v_du.cache_info().currsize == 0 and not split._r_rows
    split.v_apply(E1Element(2, 40, th(1) * ThetaPoly.jet(1) * sym("a")))
    assert split._v_du.cache_info().currsize == 0
    split.v_apply(E1Element(3, 40, th(1) * ThetaPoly.jet(2)))
    assert split._v_du.cache_info().currsize == 1
    assert split._v_dth.cache_info().currsize == 0


def test_a_large_split_is_built_at_once_and_used_in_time(capsys):
    start = time.perf_counter()
    UVWSplit(40)
    assert time.perf_counter() - start < 0.05
    start = time.perf_counter()
    assert main(["verify", "homotopy", "--p", "2", "--q", "40", "--samples", "20"]) == 0
    assert time.perf_counter() - start < 2
    assert "20 samples" in capsys.readouterr().out


def test_zero_weight_error_survives_the_tables():
    split = UVWSplit(2)
    assert split.d1(E1Element(1, 2, th(1))).body.is_zero()
    split.homotopy(E1Element(2, 2, th(1) * ThetaPoly.jet(1)))
    for body in (th(1), th(1) * sym("a"), th(1) * U, th(1)):
        with pytest.raises(ZeroWeightError):
            split.homotopy(E1Element(1, 2, body))
        with pytest.raises(ZeroWeightError):
            split.u_inverse(E1Element(0, 2, ThetaPoly.one()))


def test_homotopy_report_builds_dlambda_once(monkeypatch):
    built = []

    def counting(*g):
        built.append(g)
        return dlambda_op(*g)

    monkeypatch.setattr(spectral, "dlambda_op", counting)
    assert checks.verify_homotopy_report(3, 3, 10, 0).ok
    assert len(built) == 1


def test_split_rejects_lambda_bodies_and_foreign_classes():
    with pytest.raises(ValueError):
        UVWSplit(3).w_apply(E1Element(1, 3, ThetaPoly.jet(1) * LAM))
    with pytest.raises(ValueError):
        UVWSplit(3).d1(E1Element(1, 2, ThetaPoly.jet(1)))


@pytest.mark.parametrize("p, body", [
    (1, th(0) * ThetaPoly.jet(1)),
    (4, th(3) * ThetaPoly.jet(1)),
    (4, ThetaPoly.jet(3) * ThetaPoly.jet(1)),
    (2, ThetaPoly.jet(2) * sym("a") + ThetaPoly.jet(1)),
    (1, ThetaPoly.jet(1) * LAM)], ids=["theta0", "theta3", "u3", "wrong-degree", "lambda"])
def test_the_split_refuses_a_body_that_is_no_page_one_body(p, body):
    # at q = 3 each public map checks the body where it enters, so that
    # w_apply(theta0 u1), u_apply(theta3 u1) and v_apply(u3 u1) refuse
    # rather than return a value that is no page-one map of the body;
    # nothing reaches the tables
    split = UVWSplit(3)
    x = E1Element(p, 3, body)
    for name in ("d1", "homotopy", "u_apply", "u_inverse", "v_apply", "w_apply"):
        with pytest.raises(ValueError):
            getattr(split, name)(x)
    assert not split._d1_rows and not split._r_rows


def test_d1_squared_mod_reduction():
    for q in (2, 3):
        for p in (1, 2, 3):
            for m in page_one_basis(p, q):
                x = E1Element(p, q, ThetaPoly.monomial(m, sym("a")))
                assert d1(d1(x)).reduce().body.is_zero()


def test_u_diagonal_values():
    s3 = UVWSplit(3)
    out = s3.u_apply(E1Element(1, 3, ThetaPoly.jet(1)))
    assert out == E1Element(1, 3, ThetaPoly.jet(1) * (G * 2))
    s2 = UVWSplit(2)
    assert s2.u_apply(E1Element(1, 2, th(1))).is_zero()


def test_v_descends_lexicographically():
    rng = random.Random(12)
    for _ in range(120):
        q = rng.randint(2, 5)
        d = rng.randint(1, 5)
        pool = page_one_basis(d, q)
        if not pool:
            continue
        mono = rng.choice(pool)
        out = UVWSplit(q).v_apply(E1Element(d, q, ThetaPoly.monomial(mono)))
        assert (out.p, out.q) == (d, q)
        for mm in out.body.monomials():
            assert lex_key(mm) < lex_key(mono)
            assert mm.degree_d() == mono.degree_d()


def test_uvw_residual_is_theta1_free_operator():
    for q in (2, 3, 4):
        split = UVWSplit(q)
        for d in (1, 2, 3):
            for mono in page_one_basis(d, q):
                if mono.has_odd(1):
                    continue
                w = split.w_apply(E1Element(d, q, ThetaPoly.monomial(mono, sym("a"))))
                assert (w.p, w.q) == (d + 1, q)
                assert not any(mm.has_odd(1) for mm in w.body.monomials())


def test_homotopy_kills_theta1_free_input():
    x = E1Element(2, 3, ThetaPoly.jet(2) * sym("a"))
    assert homotopy_h(x).body.is_zero()


def test_homotopy_single_eigenvector():
    # theta1 * m with V(m) = 0: h = m / (g * eigenvalue)
    m = ThetaPoly.jet(1)                     # top jet at q = 2, eigenvalue 3/2 + 0
    x = E1Element(2, 2, th(1) * m)
    expected = m * (CoeffExpr.func("g", 0, -1) * Fraction(2, 3))
    assert homotopy_h(x).body == expected


def test_contraction_identity_samples():
    rng = random.Random(13)
    for (p, q) in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        pool = page_one_basis(p, q)
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                m = rng.choice(pool)
                terms[m] = (terms.get(m, CoeffExpr.zero())
                            + qq(rng.randint(-3, 3) or 1) * sym("a"))
            x = E1Element(p, q, ThetaPoly(terms))
            both = d1(homotopy_h(x)).body + homotopy_h(d1(x)).body
            assert E1Element(p, q, both - x.body).reduce().is_zero()


@pytest.mark.parametrize("p, q", [(4, 3), (5, 3), (5, 4), (3, 5)])
def test_contraction_identity_at_the_other_workload_bidegrees(p, q):
    # d1 h + h d1 = id on bodies with the coefficients a(u) and u a(u), whose
    # theta1 terms run the resolvent rows through several levels of V
    rng = random.Random(10 * p + q)
    split = UVWSplit(q)
    pool = page_one_basis(p, q)
    with_theta1 = [m for m in pool if m.has_odd(1)]
    start = time.perf_counter()
    for _ in range(8):
        terms = {rng.choice(with_theta1): qq(rng.randint(1, 3)) * sym("a"),
                 rng.choice(pool): qq(rng.randint(-3, -1)) * U * sym("a")}
        x = E1Element(p, q, ThetaPoly(terms))
        both = split.d1(split.homotopy(x)).body + split.homotopy(split.d1(x)).body
        assert E1Element(p, q, both - x.body).reduce().is_zero(), x
    assert time.perf_counter() - start < 10


CONTRACTION_BIDEGREES = [(p, q) for p in range(2, 6) for q in range(2, 5)] + [(3, 5)]


def test_contraction_is_exact_on_every_top_jet_monomial():
    # the sweep, not a sample: at every bidegree of the contraction workload
    # where E1 is nonzero, every top-jet basis monomial m with the
    # coefficient a(u) comes back from d1 h + h d1 as itself; d1 and h return
    # top-jet representatives, so the sum is a(u) m exactly
    zero = set()
    for p, q in CONTRACTION_BIDEGREES:
        split = UVWSplit(q)
        top = [m for m in page_one_basis(p, q) if m.max_jet() == q - 1]
        if not top:
            zero.add((p, q))
        for m in top:
            x = E1Element(p, q, ThetaPoly.monomial(m, sym("a")))
            both = split.d1(split.homotopy(x)).body + split.homotopy(split.d1(x)).body
            assert E1Element(p, q, both).reduce().body == both == x.body, (p, q, m)
    assert zero == {(2, 4), (3, 5)}


def test_lower_jets_are_mapped_into_lower_jets():
    # the quotient rests on this: d1, V and the homotopy map a body with
    # jets <= q-2 to jets <= q-2.  Each term (-U^{-1} V)^n U^{-1} d/dtheta1
    # of the homotopy series is checked on its own: U^{-1} = g^{-1}/eigenvalue
    # is diagonal and V is linear over functions of u, so a term has the
    # monomials it has with g^{-1} dropped, which runs at g = 1+u^2 too
    cases = 0
    for g in (G, U * U, U * U + 1):
        for q in range(2, 7):
            split = UVWSplit(q, g)
            for p in range(7):
                for m in page_one_basis(p, q):
                    if m.max_jet() > q - 2:
                        continue
                    unit = ThetaPoly.monomial(m)
                    images = [split._d1_of(unit), split._v(unit)]
                    term = unit.dtheta(1)
                    for _ in range(100):
                        if term.is_zero():
                            break
                        images.append(term)
                        term = -split._v(ThetaPoly({mm: c * (1 / split.eigenvalue(mm))
                                                    for mm, c in term.terms()}))
                    assert term.is_zero(), (q, m)
                    for image in images:
                        assert all(mm.max_jet() <= q - 2 for mm in image.monomials()), (q, m)
                    cases += 1
    assert cases == 3 * 213


def test_the_tables_hold_top_jet_rows_only():
    # every basis monomial, lower jets included, through d1 and the
    # homotopy of one split per q: only top-jet rows are tabulated, and
    # each row is a top-jet representative
    for q in (2, 3, 4, 5):
        split = UVWSplit(q)
        for p in range(1, 6):
            for m in page_one_basis(p, q):
                x = E1Element(p, q, ThetaPoly.monomial(m, sym("a")))
                split.d1(x)
                if (p, q) != (1, 2):
                    split.homotopy(x)
        assert split._d1_rows and split._r_rows
        for rows in (split._d1_rows, split._r_rows):
            for key, row in rows.items():
                assert key.max_jet() == q - 1, (q, key)
                assert all(mm.max_jet() == q - 1 for mm in row.monomials()), (q, key)


@pytest.mark.parametrize("p, q, vacuous", [
    (2, 4, True), (3, 5, True), (1, 3, True), (1, 4, True),
    (2, 2, False), (3, 4, False), (4, 5, False)])
def test_a_homotopy_report_says_when_page_one_is_zero(p, q, vacuous):
    # where no degree-p body reaches jet q-1, E1^{p,q} = 0 and every
    # sample reduces to 0: the detail says so
    (check,) = checks.verify_homotopy_report(p, q, 4, 1).checks
    assert check.passed and check.detail.startswith("4 samples, seed 1")
    assert (f"E1^({p},{q}) = 0" in check.detail) == vacuous


@pytest.mark.parametrize("v, p, jet", [
    (lambda self, body: body, 4, ThetaPoly.jet(3)),
    (lambda self, body: body * ThetaPoly.monomial(Monomial(((1, -2), (2, 1)), ())), 6,
     ThetaPoly.jet(1, 2) * ThetaPoly.jet(3))], ids=["revisits-its-row", "never-repeats"])
def test_homotopy_stops_at_its_cap_when_v_does_not_descend(monkeypatch, v, p, jet):
    # a V that maps m to itself revisits a row still being built; one that
    # maps u1^k u2^j to u1^(k-2) u2^(j+1) makes new monomials of the same
    # degree for ever, so the chain of pending rows outgrows 2 + |basis|;
    # u3 keeps every row at the top jet
    monkeypatch.setattr(spectral.UVWSplit, "_v", v)
    split = UVWSplit(4)
    x = E1Element(p, 4, th(1) * jet)
    for _ in range(2):
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as stop:
            split.homotopy(x)
        assert type(stop.value) is RuntimeError
        assert "termination cap" in str(stop.value)
        assert time.perf_counter() - start < 1
        assert not split._r_rows and not split._pending


def test_theta1_free_body_needs_no_inverse_of_g():
    # h starts with d/dtheta1, so a theta1-free body maps to 0 even at a g
    # that CoeffExpr.inverse refuses; a top-jet theta1 body there still raises
    split = UVWSplit(3, U * U + 1)
    assert split.homotopy(E1Element(2, 3, ThetaPoly.jet(2) * sym("a"))).body.is_zero()
    with pytest.raises(ValueError, match="single-term"):
        split.homotopy(E1Element(3, 3, th(1) * ThetaPoly.jet(2)))


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
    monkeypatch.setattr(checks, "d0", lambda a, p, q, *g:
                        orig(a, p, q, *g) + a.total_derivative())
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


def test_image_membership_refers_to_d0_and_catches_a_doubled_x_theta(monkeypatch):
    # image_membership retypes d0's formula for its h0 half, so it is a
    # reference for d0's code, not only for the theta0 h1 half
    def doubled(a, p, q, g=G):
        xu, xth = _characteristics(_pencil_scalar(g), q + 1)
        return xu * a.du(q) + xth * a.dtheta(q) * 2
    monkeypatch.setattr(checks, "d0", doubled)
    report = checks.verify_spectral_report(0)
    assert not next(c for c in report.checks if c.name == "image_membership").passed
