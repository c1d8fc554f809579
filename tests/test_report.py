"""The check helpers of the report layer."""

from thetapencil.algebra import ThetaPoly
from thetapencil.coeff import CoeffExpr
from thetapencil.pencil import DiffOperator
from thetapencil.report import CheckResult


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

