"""Verification suites behind the CLI commands and the acceptance tests.

Each suite sweeps or samples deterministically (seeded where random),
and returns a Report whose residuals are rendered expressions, never
summaries; a failing check therefore always shows the exact symbolic
obstruction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .coeff import C, G, CoeffExpr
from .algebra import Monomial, ThetaPoly, lex_compare, monomial_basis
from .operators import (EvolutionaryOp, d1_op, d2_op, dlambda_op,
                        is_total_derivative)
from .spectral import E1Element, check_lambda_independence, d0, split_uvw
from .pencil import (DeltaBracket, DiffOperator, central_invariant,
                     deformation_order2, dlz_generator, expand_lattice_bracket,
                     miura_transform, theta_to_delta, verify_deformation,
                     _hydro_metric)
from .fixtures import (camassa_holm_brackets, camassa_holm_expected_u,
                       camassa_holm_transform, canonical_form_eps2,
                       hydrodynamic_bracket, kdv_brackets, volterra_lattice)
from .report import CheckResult, Report

_U = CoeffExpr.var_u
_LAM = CoeffExpr.var_lambda


def verify_operators_report(max_degree: int = 5, max_jet: int = 6,
                            first: EvolutionaryOp | None = None) -> Report:
    """Nilpotency and compatibility of the structure operators on the
    monomial basis with a generic function coefficient."""
    D1 = first or d1_op()
    D2 = d2_op()
    DL = dlambda_op()
    D1_generic = d1_op()
    f = CoeffExpr.func("f")
    basis = [ThetaPoly.monomial(m, f)
             for d in range(max_degree + 1)
             for m in monomial_basis(d, max_jet=max_jet)]
    report = Report(f"operator identities (degree <= {max_degree}, jets <= {max_jet})")
    lam = _LAM()
    suite = [
        ("d1_squared", lambda a: D1(D1(a))),
        ("d2_squared", lambda a: D2(D2(a))),
        ("anticommutator", lambda a: D1(D2(a)) + D2(D1(a))),
        ("commutes_with_total_derivative",
         lambda a: DL(a.total_derivative()) - DL(a).total_derivative()),
        ("pencil_linearity", lambda a: D2(a) - DL(a) - D1_generic(a) * lam),
    ]
    for name, residual in suite:
        with report.timed(name) as check:
            check.sweep(((a.render(), residual(a)) for a in basis),
                        lambda n: f"{n} cases")
    return report


def _page_one_basis(d: int, q: int) -> tuple[Monomial, ...]:
    """Degree-d monomials of a page-one body at column q (no theta0, theta_q)."""
    return tuple(m for m in monomial_basis(d, max_jet=q - 1)
                 if not m.has_odd(0) and not m.has_odd(q))


def _random_body(rng: random.Random, basis: tuple[Monomial, ...]) -> ThetaPoly:
    terms: dict[Monomial, CoeffExpr] = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(basis)
        coeff = CoeffExpr.rational(rng.randint(-4, 4) or 1)
        if rng.random() < 0.5:
            coeff = coeff * CoeffExpr.func("a")
        if rng.random() < 0.3:
            coeff = coeff * _U()
        terms[m] = terms.get(m, CoeffExpr.zero()) + coeff
    return ThetaPoly(terms)


def verify_homotopy_report(p: int, q: int, samples: int = 100,
                           seed: int = 0) -> Report:
    """Contraction identity h d1 + d1 h = id on seeded samples; at the
    surviving bidegree (1,2) the kernel statement is checked instead."""
    if p < 1:
        raise ValueError(f"the homotopy check needs p >= 1, got p = {p}")
    report = Report(f"homotopy contraction at (p,q) = ({p},{q})")
    split = split_uvw(q)
    if (p, q) == (1, 2):
        with report.timed("kernel_at_1_2") as check:
            body = ThetaPoly.from_coeff(CoeffExpr.func("f")) * ThetaPoly.theta(1)
            check.expect(split.d1(E1Element(1, 2, body)).body)
            check.detail = "d1(f(u) theta1 theta0 theta2) = 0; class survives"
        return report
    rng = random.Random(seed)
    basis = _page_one_basis(p, q)

    def cases():
        for k in range(samples):
            x = E1Element(p, q, _random_body(rng, basis))
            both = split.d1(split.homotopy(x)).body + split.homotopy(split.d1(x)).body
            yield f"sample {k}", E1Element(p, q, both - x.body).reduce().body

    with report.timed(f"contraction_p{p}_q{q}") as check:
        check.sweep(cases(), lambda n: f"{n} samples, seed {seed}")
    return report


def verify_spectral_report(seed: int = 0, samples: int = 60,
                           lex_samples: int = 500) -> Report:
    """Page-zero and page-one structure: d0^2, the kernel and image
    membership of the displayed families, d1^2 modulo reduction, the
    U/V/W split and the lexicographic descent of V."""
    rng = random.Random(seed)
    report = Report("spectral pages")
    A = (_U() - _LAM()) * G
    half_dA = A.ddu() * Fraction(1, 2)
    splits = {q: split_uvw(q) for q in range(2, 6)}
    page_one_basis = cache(_page_one_basis)   # enumerated once per report

    def random_elt(degree, max_jet, exclude=()):
        basis = [m for m in monomial_basis(degree, max_jet=max_jet)
                 if not any(m.has_odd(s) for s in exclude)]
        if not basis:
            return ThetaPoly.zero()
        terms: dict = {}
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(basis)
            c = CoeffExpr.rational(rng.randint(-3, 3) or 1) * CoeffExpr.func("a")
            if rng.random() < 0.5:
                c = c * _LAM()
            terms[m] = terms.get(m, CoeffExpr.zero()) + c
        return ThetaPoly(terms)

    def d0_squared():
        for _ in range(samples):
            q = rng.randint(0, 4)
            p = rng.randint(0, 5 - q)
            a = random_elt(p + q, q)
            if not a.is_zero():
                yield f"p={p}, q={q}", d0(d0(a, p, q), p, q + 1)

    def kernel_membership():
        for _ in range(samples):
            q = rng.randint(1, 4)
            p = rng.randint(q, 5)   # member degree p at page column q
            h = random_elt(p - q, q - 1)
            if h.is_zero():
                continue
            tq = ThetaPoly.theta(q)
            member = (tq * A + ThetaPoly.monomial(Monomial(((q, 1),), (0,)), half_dA)) * h \
                + ThetaPoly.monomial(Monomial((), (0, q))) * h
            yield f"p={p}, q={q}", d0(member, p - q, q)

    def image_membership():
        for _ in range(samples):
            q = rng.randint(2, 4)
            p = rng.randint(0, 6 - q)
            h0 = random_elt(p + q - 1, q - 1, exclude=(0,))
            h1 = random_elt(p + q - 1, q - 1, exclude=(0,))
            if h0.is_zero() and h1.is_zero():
                continue
            tq = ThetaPoly.theta(q)
            th0 = ThetaPoly.theta(0)
            im = (tq * A + ThetaPoly.monomial(Monomial(((q, 1),), (0,)), half_dA)) \
                * h0.du(q - 1) \
                + (tq * th0) * (h1.du(q - 1) * A
                                - h0.dtheta(q - 1) * half_dA)
            preimage = h0 + th0 * h1
            yield f"p={p}, q={q}", d0(preimage, p, q - 1) - im

    def d1_squared():
        for q in range(2, 5):
            for p in range(1, 7 - q):
                for m in page_one_basis(p, q):
                    x = E1Element(p, q, ThetaPoly.monomial(m, CoeffExpr.func("a")))
                    yield f"{m!r} at q={q}", splits[q].d1(splits[q].d1(x)).reduce().body

    def uvw_split():
        # the identity holds by definition of W; off theta1, W must not
        # produce theta1
        for q, split in splits.items():
            for d in range(1, 6):
                for mono in page_one_basis(d, q):
                    w = split.w_apply(ThetaPoly.monomial(mono, CoeffExpr.func("a")))
                    yield f"{mono!r} at q={q}", ThetaPoly(
                        {} if mono.has_odd(1) else
                        {mm: c for mm, c in w.terms() if mm.has_odd(1)})

    def v_lex_descent():
        for _ in range(lex_samples):
            basis = []
            while not basis:
                q = rng.randint(2, 5)
                basis = page_one_basis(rng.randint(1, 5), q)
            mono = rng.choice(basis)
            out = splits[q].v_apply(ThetaPoly.monomial(mono))
            yield f"{mono!r} at q={q}", ThetaPoly(
                {mm: c for mm, c in out.terms()
                 if lex_compare(mm, mono) >= 0 or mm.degree_d() != mono.degree_d()})

    suite = [
        ("d0_squared", d0_squared(),
         lambda n: f"{n} samples, p+q <= 5, seed {seed}"),
        ("kernel_membership", kernel_membership(),
         lambda n: f"{n} samples of the displayed kernel family"),
        ("image_membership", image_membership(),
         lambda n: f"{n} samples; preimage constructed explicitly"),
        ("d1_squared_mod_reduction", d1_squared(),
         lambda n: f"{n} monomials, p+q <= 6"),
        ("uvw_split", uvw_split(),
         lambda n: f"{n} monomials; remainder is theta1-free off theta1"),
        ("v_lex_descent", v_lex_descent(),
         lambda n: f"{n} random monomials, seed {seed}"),
    ]
    for name, cases, done in suite:
        with report.timed(name) as check:
            check.sweep(cases, done)
    return report


def lambda_independence_report() -> Report:
    """The classifier on its three reference inputs, and the sign of the
    recurrence that direct expansion validates."""
    report = Report("lambda-independence classifier")
    one = CoeffExpr.one()
    u = _U()
    cases = [
        ("constant_density", [one], one * Fraction(1, 2)),
        ("linear_density", [u, CoeffExpr.rational(-2)], u * Fraction(1, 2)),
        ("shifted_density", [CoeffExpr.zero(), one], None),
    ]
    minus_everywhere = True
    plus_anywhere = False
    for name, ts, expected in cases:
        with report.timed(name) as check:
            out = check_lambda_independence(ts)
            if expected is None:
                check.passed = not out.independent and out.value is None
            else:
                check.passed = out.independent and out.value == expected
                if not check.passed:
                    check.residual = out.value.render() if out.value else "none"
            if out.independent:
                minus_everywhere &= out.minus_recurrence
                plus_anywhere |= out.plus_recurrence
    with report.timed("recurrence_sign") as check:
        # direct expansion validates t_i' = -(i + 1/2) t_{i+1}; the
        # opposite sign is reported for comparison and never holds on a
        # lambda-dependent nontrivial family.
        check.passed = minus_everywhere
        check.detail = ("independent inputs satisfy the minus-sign recurrence"
                        + ("; plus-sign also held (constant input)" if plus_anywhere else ""))
    return report


def cocycle_check(check: CheckResult, g: CoeffExpr, c: CoeffExpr,
                  density: ThetaPoly) -> None:
    """Fill check: both variational derivatives of the pencil image of the
    eps^2 coefficient of density vanish."""
    chk = verify_deformation(g, c, density=density.eps_coefficient(2))
    check.passed = chk.ok
    if not chk.ok:
        check.residual = (chk.residual_u + chk.residual_theta).render()


def generator_check(check: CheckResult, g: CoeffExpr, c: CoeffExpr,
                    density: ThetaPoly) -> None:
    """Fill check: the logarithmic generator and twice the eps^2
    coefficient of density differ by a total derivative, whose witness is
    kept when the ring holds one."""
    diff = density.eps_coefficient(2) * 2 - dlz_generator(g, c)
    ok, w = is_total_derivative(diff)
    check.passed = ok
    if not ok:
        check.residual = diff.render()
    elif w is not None:
        check.witness = w.render()


def verify_deformation_report(g: CoeffExpr = G, c: CoeffExpr = C) -> Report:
    """The order-eps^2 pencil: cocycle residuals, the negative control,
    the logarithmic generator, and the canonical delta form."""
    report = Report("order-eps^2 deformation")
    density = deformation_order2(g, c)
    with report.timed("cocycle_residuals") as check:
        cocycle_check(check, g, c, density)
        check.detail = "both variational derivatives of the pencil image vanish"
    with report.timed("cocycle_negative_control") as check:
        # With g and c constant the theta0 theta3 corruption only rescales c,
        # and with c = 0 it adds nothing; g u1 theta0 theta2 breaks it then.
        for label, corruption in (
                ("theta0 theta3 weight 6 -> 7",
                 ThetaPoly.monomial(Monomial((), (0, 3)), c * g * g * Fraction(1, 2))),
                ("g u1 theta0 theta2", ThetaPoly.monomial(Monomial(((1, 1),), (0, 2)), g))):
            corrupted = density.eps_coefficient(2) + corruption
            check.passed = not verify_deformation(g, c, density=corrupted).ok
            check.detail = f"{label} must break the cocycle"
            if check.passed:
                break
    with report.timed("generator_class_equality") as check:
        generator_check(check, g, c, density)
        check.detail = "log(u1) and u1-inverse atoms all cancelled"
    blocks = canonical_form_eps2(g, c)
    bracket = theta_to_delta(density)
    second = bracket.coefficient(2, 2)
    printed = ("matches" if second == blocks["delta2_printed"] else
               "is inconsistent with the degree count and is rejected")
    delta_form = [
        ("delta_form_third_derivative", 3, "delta3", None),
        ("delta_form_second_derivative", 2, "delta2_derived",
         f"derived independently: {second.render()}; "
         f"printed variant (u2 in place of u1) {printed}"),
        ("delta_form_P21", 1, "P21", None),
        ("delta_form_P20", 0, "P20", None),
    ]
    for name, der, block, detail in delta_form:
        with report.timed(name) as check:
            check.expect(bracket.coefficient(2, der), blocks[block])
            check.detail = detail
    with report.timed("delta_form_skewness") as check:
        variant_coeffs = dict(bracket.op.coeffs)
        eps2 = CoeffExpr.var_eps(2)
        variant_coeffs[2] = bracket.op.coefficient(2) \
            - second * eps2 + blocks["delta2_printed"] * eps2
        variant = DeltaBracket(bracket.coordinate, DiffOperator(variant_coeffs))
        degenerate = (g * g.ddu() * c).is_zero()
        check.passed = bracket.is_skew() and (degenerate or not variant.is_skew())
        check.detail = "the completed operator is skew; " + (
            "with g g' c = 0 the printed u2 variant equals the derived "
            "coefficient, so it is no control here" if degenerate else
            "replacing the second-derivative coefficient by the printed u2 "
            "variant breaks skewness")
    return report


def central_invariant_report(b1: DeltaBracket, b2: DeltaBracket) -> Report:
    report = Report("central invariant")
    with report.timed("skewness_first") as check:
        check.passed = b1.is_skew()
    with report.timed("skewness_second") as check:
        check.passed = b2.is_skew()
    with report.timed("central_invariant") as check:
        value = central_invariant(b1, b2)
        check.passed = True
        check.detail = f"c({b1.coordinate}) = " + value.render(b1.coordinate)
    return report


def example_report(name: str) -> Report:
    if name == "kdv":
        return _kdv_report()
    if name == "camassa-holm":
        return _camassa_holm_report()
    if name == "volterra":
        return _volterra_report()
    raise ValueError(f"unknown example {name!r}")


def _central_invariant_check(report: Report, name: str, b1: DeltaBracket,
                             b2: DeltaBracket, expected: CoeffExpr,
                             note: str = "") -> None:
    with report.timed(name) as check:
        value = central_invariant(b1, b2)
        check.expect(value, expected)
        check.detail = f"c({b1.coordinate}) = {value.render(b1.coordinate)}{note}"


def _kdv_report() -> Report:
    report = Report("example: KdV")
    _central_invariant_check(report, "central_invariant", *kdv_brackets(),
                             CoeffExpr.rational(1, 24))
    return report


def _camassa_holm_report() -> Report:
    report = Report("example: Camassa-Holm")
    b1, b2 = camassa_holm_brackets()
    f = camassa_holm_transform()
    _central_invariant_check(report, "central_invariant_original", b1, b2,
                             _U() * Fraction(1, 24))
    t1 = miura_transform(b1, f, 2)
    t2 = miura_transform(b2, f, 2)
    e1, e2 = camassa_holm_expected_u()
    miura = [
        ("miura_first_bracket", t1, e1, "delta' exactly; the eps^2 terms cancel"),
        ("miura_second_bracket", t2, e2, "canonical eps^2 block reproduced exactly"),
    ]
    for name, got, expected, detail in miura:
        with report.timed(name) as check:
            check.expect(got.op, expected.op)
            check.detail = detail
    _central_invariant_check(report, "central_invariant_transformed", t1, t2,
                             _U() * Fraction(1, 24),
                             " (consistent with c(w) = w/24)")
    return report


def _volterra_report() -> Report:
    report = Report("example: Volterra")
    l1, l2 = volterra_lattice()
    b1 = expand_lattice_bracket(l1, order=2)
    b2 = expand_lattice_bracket(l2, order=2)
    u = _U()
    with report.timed("metric") as check:
        g1 = _hydro_metric(b1)
        check.expect(g1, u * u * 2)
        check.detail = "g(u) = " + g1.render()
    with report.timed("dispersionless_pencil") as check:
        lam = _LAM()
        expected = hydrodynamic_bracket(u * u * u * 2 - lam * u * u * 2)
        check.expect((b2.op - b1.op * lam).truncate_eps(0), expected.op)
        check.detail = "metric 2u^3 - 2 lambda u^2"
    with report.timed("q_coefficients") as check:
        q1 = b1.coefficient(2, 3).as_coeff()
        q2 = b2.coefficient(2, 3).as_coeff()
        check.passed = (q1 == u * u * Fraction(1, 3)
                        and q2 == u * u * u * Fraction(5, 6))
        check.detail = f"Q1 = {q1.render()}, Q2 = {q2.render()}"
    _central_invariant_check(report, "central_invariant", b1, b2,
                             CoeffExpr.rational(1, 24) / u)
    return report


def euler_oracle_report(samples: int = 200, seed: int = 0,
                        max_degree: int = 5) -> Report:
    """Round trips through the exactness certificate on random densities."""
    report = Report("exactness oracle")
    rng = random.Random(seed)
    pool = [m for d in range(0, max_degree + 1)
            for m in monomial_basis(d, max_jet=max_degree)]

    def round_trips():
        for k in range(samples):
            terms: dict = {}
            for _ in range(rng.randint(1, 3)):
                m = rng.choice(pool)
                coeff = CoeffExpr.rational(rng.randint(-4, 4) or 2)
                if rng.random() < 0.5:
                    coeff = coeff * CoeffExpr.func("f")
                if rng.random() < 0.3:
                    coeff = coeff * _U()
                terms[m] = terms.get(m, CoeffExpr.zero()) + coeff
            image = ThetaPoly(terms).total_derivative()
            ok, w = is_total_derivative(image)
            yield f"sample {k}", (image - w.total_derivative()
                                  if ok and w is not None else image)

    with report.timed("witness_round_trips") as check:
        check.sweep(round_trips(), lambda n: f"{n} samples, seed {seed}")
    with report.timed("non_exact_rejected") as check:
        ok, _ = is_total_derivative(ThetaPoly.theta(0) * ThetaPoly.theta(1))
        check.passed = not ok
        check.detail = "theta0 theta1 is not a total derivative"
    return report
