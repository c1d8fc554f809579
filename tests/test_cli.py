import json
import re
import time

import pytest

from thetapencil import checks
from thetapencil.algebra import Monomial, ThetaPoly
from thetapencil.cli import build_parser, main
from thetapencil.coeff import CoeffExpr, sym
from thetapencil.operators import EvolutionaryOp
from thetapencil.spectral import ZeroWeightError
from thetapencil.fixtures import camassa_holm_brackets, camassa_holm_expected_u


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_example_kdv(capsys):
    code, out = run(capsys, "example", "kdv")
    assert code == 0
    assert "c(u) = 1/24" in out


def test_example_volterra_json(capsys):
    code, out = run(capsys, "example", "volterra", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_verify_operators_vacuous_degree_zero(capsys):
    code, out = run(capsys, "verify", "operators", "--max-degree", "0")
    assert code == 0


def test_verify_homotopy_seeded_byte_stable(capsys):
    args = ("verify", "homotopy", "--p", "2", "--q", "2",
            "--samples", "10", "--seed", "5", "--json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_homotopy_kernel_mode(capsys):
    code, out = run(capsys, "verify", "homotopy", "--p", "1", "--q", "2")
    assert code == 0
    assert "kernel" in out


def test_verify_lambda_independence(capsys):
    code, out = run(capsys, "verify", "lambda-independence")
    assert code == 0
    assert "minus-sign" in out


def test_verify_report_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "verify", "homotopy", "--p", "1", "--q", "2",
                  "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["ok"] is True


def test_central_invariant_files(tmp_path, capsys):
    first = tmp_path / "b1.json"
    second = tmp_path / "b2.json"
    first.write_text(json.dumps({"coordinate": "u", "terms": [
        {"eps": 0, "der": 1, "coeff": "1"}]}))
    second.write_text(json.dumps({"coordinate": "u", "terms": [
        {"eps": 0, "der": 1, "coeff": "u"}, {"eps": 0, "der": 0, "coeff": "1/2*u1"},
        {"eps": 2, "der": 3, "coeff": "1/8"}]}))
    code, out = run(capsys, "central-invariant", str(first), str(second))
    assert code == 0
    assert "c(u) = 1/24" in out


def test_central_invariant_in_the_bracket_coordinate(tmp_path, capsys):
    """The value is rendered in the coordinate the brackets are saved in."""
    b1, b2 = camassa_holm_brackets()
    b1.save(tmp_path / "ch1.json")
    b2.save(tmp_path / "ch2.json")
    code, out = run(capsys, "central-invariant", str(tmp_path / "ch1.json"),
                    str(tmp_path / "ch2.json"))
    assert code == 0
    assert "c(w) = 1/24*w" in out


def test_central_invariant_detects_broken_skewness(tmp_path, capsys):
    first = tmp_path / "b1.json"
    second = tmp_path / "b2.json"
    # an eps^2 u1 delta'' term with no compensating partners is not skew
    first.write_text(json.dumps({"coordinate": "u", "terms": [
        {"eps": 0, "der": 1, "coeff": "1"}, {"eps": 2, "der": 2, "coeff": "u1"}]}))
    second.write_text(json.dumps({"coordinate": "u", "terms": [
        {"eps": 0, "der": 1, "coeff": "u"}, {"eps": 0, "der": 0, "coeff": "1/2*u1"}]}))
    code, out = run(capsys, "central-invariant", str(first), str(second))
    assert code == 1
    assert "FAIL" in out


def test_missing_file_is_an_error(capsys):
    code = main(["central-invariant", "nope.json", "also-nope.json"])
    assert code == 2


def test_uncertified_radicand_is_bad_input_within_a_bound(capsys):
    """A radicand with no small factor is refused, not factored for ever."""
    start = time.perf_counter()
    code = main(["deform", "--g", "sqrt(10000000000000000000000000000049)"])
    assert time.perf_counter() - start < 5
    assert code == 2


@pytest.mark.parametrize("text", ["(" * 3000 + "u" + ")" * 3000,
                                  "(u+1)^100000", "((u+1)^60)^60",
                                  "(u+g(u)+1)^40*(u+c(u)+1)^40"],
                         ids=["deep-nesting", "huge-exponent", "nested-powers",
                              "product-of-powers"])
def test_hostile_expression_is_bad_input_within_a_bound(text, capsys):
    """Deep nesting, huge powers and huge products are refused before the
    arithmetic that would build them."""
    start = time.perf_counter()
    code = main(["deform", "--g", text])
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cached_parser_carries_no_arguments_over(tmp_path, capsys):
    """One parser serves every in-process call; each call starts from the
    defaults, and prints what a freshly built parser would make it print."""
    path = tmp_path / "report.json"
    calls = [("example", "kdv", "--json"), ("example", "kdv"),
             ("verify", "lambda-independence", "--json", "--out", str(path)),
             ("verify", "lambda-independence")]

    def output(argv):
        code, out = run(capsys, *argv)
        return code, re.sub(r"\(\d+\.\d+s\)", "", out)   # drop wall times

    assert build_parser() is build_parser()
    cached = [output(argv) for argv in calls]
    assert cached[0][1].startswith("{") and not cached[1][1].startswith("{")
    assert build_parser().parse_args(["verify", "lambda-independence"]).out is None
    path.unlink()
    assert output(calls[-1]) == cached[-1] and not path.exists()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(output(argv))
    assert cached == fresh


def test_homotopy_below_page_one_is_an_error(capsys):
    for p, q, message in (("1", "1", "q >= 2"), ("-1", "3", "p >= 1"),
                          ("0", "2", "p >= 1")):
        code = main(["verify", "homotopy", "--p", p, "--q", q])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("exc", [
    RuntimeError("homotopy series exceeded its termination cap"),
    ZeroWeightError("zero-weight division at Monomial((), ())"),
    ArithmeticError("P_0 does not vanish"),
], ids=["termination-cap", "zero-weight", "arithmetic"])
def test_internal_error_or_cap_exits_3(exc, monkeypatch, capsys):
    """Internal errors and resource caps get their own exit code, apart
    from a failed check (1) and bad input (2), and print no traceback."""
    def raising(*args):
        raise exc

    monkeypatch.setattr(checks, "verify_homotopy_report", raising)
    code = main(["verify", "homotopy", "--p", "2", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in captured.err + captured.out


def test_bad_input_still_exits_2(monkeypatch, capsys):
    def raising(*args):
        raise ValueError("refused")

    monkeypatch.setattr(checks, "verify_homotopy_report", raising)
    assert main(["verify", "homotopy", "--p", "2", "--q", "3"]) == 2
    assert capsys.readouterr().err == "error: refused\n"


def test_deform_delta_format_kdv_value(tmp_path, capsys):
    out_path = tmp_path / "bracket.json"
    code, _ = run(capsys, "deform", "--g", "1", "--c", "1/24",
                  "--format", "delta", "--out", str(out_path))
    assert code == 0
    document = json.loads(out_path.read_text())
    entries = {(t["eps"], t["der"]): t["coeff"] for t in document["terms"]}
    assert entries[(2, 3)] == "1/8"


def test_deform_theta_formula_document(capsys):
    code, out = run(capsys, "deform", "--format", "theta", "--json")
    assert code == 0
    payload = json.loads(out)
    exprs = {t["eps"]: t["expr"] for t in payload["document"]["terms"]}
    assert "theta0*theta1" in exprs[0]
    assert "theta0*theta3" in exprs[2]


def test_deform_dlz_class_check(capsys):
    code, out = run(capsys, "deform", "--construct", "dlz", "--json")
    assert code == 0
    payload = json.loads(out)
    names = {c["name"]: c for c in payload["checks"]}
    assert names["generator_class_equality"]["passed"] is True
    assert "witness" in names["generator_class_equality"]


def test_miura_command(tmp_path, capsys):
    bracket = tmp_path / "ch2.json"
    bracket.write_text(json.dumps({"coordinate": "w", "terms": [
        {"eps": 0, "der": 1, "coeff": "w"},
        {"eps": 0, "der": 0, "coeff": "1/2*w1"}]}))
    out_path = tmp_path / "out.json"
    code, _ = run(capsys, "miura", "--bracket", str(bracket),
                  "--transform", "u + eps/(2*sqrt(2))*u1",
                  "--order", "2", "--out", str(out_path))
    assert code == 0
    from thetapencil.pencil import DeltaBracket
    got = DeltaBracket.load(out_path)
    _, expected = camassa_holm_expected_u()
    assert got.op == expected.op


def test_injected_sign_bug_fails_with_residual():
    # negative control for the operator suite: flip one characteristic sign
    g = sym("g")
    half = CoeffExpr.rational(1, 2)
    xu = ThetaPoly.theta(1) * g - ThetaPoly.monomial(
        Monomial(((1, 1),), (0,)), g.ddu() * half)
    xtheta = ThetaPoly.monomial(Monomial((), (0, 1)), g.ddu() * half)
    broken = EvolutionaryOp(xu, xtheta, "broken")
    report = checks.verify_operators_report(max_degree=2, max_jet=3,
                                            first=broken)
    assert not report.ok
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.residual for c in failing)
