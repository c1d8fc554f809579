"""The check helpers of the report layer."""

import json

import pytest

from thetapencil import checks
from thetapencil.algebra import ThetaPoly
from thetapencil.coeff import CoeffExpr
from thetapencil.pencil import DiffOperator
from thetapencil.report import CheckResult, Report


def test_empty_sweep_passes():
    check = CheckResult("empty", False)
    check.sweep(iter(()), lambda n: f"{n} cases")
    assert check.passed and check.detail == "0 cases" and check.residual is None


def test_sweep_stops_at_first_failure():
    drawn = []

    def cases():
        for k in range(5):
            drawn.append(k)
            yield f"case {k}", ThetaPoly.jet(1) if k == 2 else ThetaPoly.zero()

    check = CheckResult("stops", False)
    check.sweep(cases(), lambda n: f"{n} cases")
    assert drawn == [0, 1, 2]
    assert not check.passed
    assert check.residual == ThetaPoly.jet(1).render()
    assert check.detail == "first failure at case 2 after 3 cases"


def test_expect_without_expected_value():
    check = CheckResult("zero", False)
    check.expect(CoeffExpr.zero())
    assert check.passed and check.residual is None
    check.expect(CoeffExpr.rational(3))
    assert not check.passed and check.residual == CoeffExpr.rational(3).render()


def test_failing_diff_operator_comparison_has_residual():
    got = DiffOperator({1: ThetaPoly.one()})
    expected = DiffOperator({1: ThetaPoly.one(), 0: ThetaPoly.jet(1)})
    check = CheckResult("ops", False)
    check.expect(got, expected)
    assert not check.passed
    assert check.residual == repr(got - expected)
    check.expect(got, got)
    assert check.passed



def test_text_shows_the_residual_of_a_failing_check():
    report = Report("residuals")
    with report.timed("ops") as check:
        check.expect(ThetaPoly.jet(1))
    assert "         residual: u1\n" in report.to_text()


@pytest.mark.parametrize("report, negative, zero, name", [
    (checks.verify_homotopy_report, (2, 3, -3), (2, 3, 0), "samples"),
    (checks.verify_spectral_report, (0, 0, -1), (0, 0, 0), "lex_samples"),
    (checks.verify_operators_report, (-1, -2), (0, 0), "max_degree"),
    (checks.euler_oracle_report, (-5,), (0,), "samples"),
], ids=["homotopy", "spectral", "operators", "euler-oracle"])
def test_a_library_report_refuses_a_negative_count(report, negative, zero, name):
    """A negative count names its parameter; zero is a vacuous run that passes."""
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
        report(*negative)
    assert report(*zero).ok


def test_json_dumps_the_canonical_payload():
    report = checks.example_report("kdv")
    assert json.loads(report.to_json()) == report.to_dict()
    document = {"kind": "theta-density", "terms": []}
    assert json.loads(report.to_json(document=document)) == {**report.to_dict(),
                                                             "document": document}
