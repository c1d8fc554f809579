"""Acceptance suite: every criterion at its stated tolerance and budget.

All symbolic comparisons are exact (zero tolerance); runtime bounds are
asserted with time.perf_counter.  Each criterion prints one line.
"""

import time
from fractions import Fraction

from thetapencil import checks
from thetapencil.algebra import Monomial, ThetaPoly
from thetapencil.coeff import CoeffExpr, sym
from thetapencil.fixtures import canonical_form_eps2
from thetapencil.operators import is_total_derivative
from thetapencil.pencil import (deformation_order2, dlz_generator,
                                theta_to_delta, verify_deformation)

U = CoeffExpr.var_u()


def _criterion(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed <= budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_operator_identities():
    start = time.perf_counter()
    report = checks.verify_operators_report(max_degree=5, max_jet=6)
    elapsed = time.perf_counter() - start
    bad = [c for c in report.checks if not c.passed]
    _criterion("1 operator identities", report.ok, elapsed, 60.0,
               bad[0].residual if bad else "all residuals identically zero")


def test_criterion_2_spectral_pages():
    start = time.perf_counter()
    report = checks.verify_spectral_report(seed=2026, samples=60, lex_samples=500)
    elapsed = time.perf_counter() - start
    bad = [c for c in report.checks if not c.passed]
    _criterion("2 spectral pages", report.ok, elapsed, 60.0,
               bad[0].name if bad else "d0, kern/im, d1^2, U/V/W, lex descent")


def test_criterion_3_homotopy_contraction():
    start = time.perf_counter()
    ok = True
    detail = []
    for i, (p, q) in enumerate([(1, 3), (2, 2), (3, 2), (2, 3)]):
        report = checks.verify_homotopy_report(p, q, samples=100, seed=100 + i)
        ok &= report.ok
        detail.append(f"({p},{q}):{'ok' if report.ok else 'FAIL'}")
    kernel = checks.verify_homotopy_report(1, 2)
    ok &= kernel.ok
    detail.append("(1,2) kernel:" + ("ok" if kernel.ok else "FAIL"))
    elapsed = time.perf_counter() - start
    _criterion("3 homotopy contraction", ok, elapsed, 120.0, " ".join(detail))


def test_criterion_4_deformation_cocycle():
    start = time.perf_counter()
    good = verify_deformation()
    corrupted_density = deformation_order2().eps_coefficient(2) + \
        ThetaPoly.monomial(Monomial((), (0, 3)),
                           sym("c") * sym("g") ** 2 * Fraction(1, 2))
    control = verify_deformation(density=corrupted_density)
    elapsed = time.perf_counter() - start
    _criterion("4 deformation cocycle", good.ok and not control.ok, elapsed, 30.0,
               "residuals identically zero; 6 -> 7 control rejected")


def test_criterion_5_dlz_generator():
    start = time.perf_counter()
    gen = dlz_generator()
    target = deformation_order2().eps_coefficient(2) * 2
    equal, witness = is_total_derivative(target - gen)
    ok = equal and witness is not None and not gen.has_extension_atoms()
    elapsed = time.perf_counter() - start
    _criterion("5 dlz generator", ok, elapsed, 30.0,
               "class-equal with explicit witness; extension atoms cancelled")


def test_criterion_6_delta_form():
    start = time.perf_counter()
    bracket = theta_to_delta(deformation_order2())
    blocks = canonical_form_eps2()
    checks_list = [
        bracket.coefficient(2, 3) == blocks["delta3"],
        bracket.coefficient(2, 2) == blocks["delta2_derived"],
        bracket.coefficient(2, 1) == blocks["P21"],
        bracket.coefficient(2, 0) == blocks["P20"],
        bracket.is_skew(),
    ]
    # the printed second-derivative variant disagrees and is not skew
    report = checks.verify_deformation_report()
    elapsed = time.perf_counter() - start
    derived = bracket.coefficient(2, 2).render()
    _criterion("6 delta form", all(checks_list) and report.ok, elapsed, 60.0,
               f"delta''' = 3cg^2; derived delta'' = {derived}")


def test_criterion_7_examples():
    start = time.perf_counter()
    names = ["kdv", "camassa-holm", "volterra"]
    reports = {n: checks.example_report(n) for n in names}
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports.values())
    _criterion("7 examples", ok, elapsed, 30.0,
               "c = 1/24, u/24 (w/24 before), 1/(24u); pencil 2u^3 - 2 lambda u^2")


def test_criterion_8_lambda_classifier():
    start = time.perf_counter()
    report = checks.lambda_independence_report()
    elapsed = time.perf_counter() - start
    sign = next(c for c in report.checks if c.name == "recurrence_sign")
    _criterion("8 lambda independence", report.ok, elapsed, 30.0, sign.detail or "")


def test_criterion_9_euler_oracle():
    start = time.perf_counter()
    report = checks.euler_oracle_report(samples=200, seed=2)
    elapsed = time.perf_counter() - start
    _criterion("9 exactness oracle", report.ok, elapsed, 60.0,
               "200 witnesses exact; theta0 theta1 rejected")
