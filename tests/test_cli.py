import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from thetapencil import checks
from thetapencil.algebra import Monomial, ThetaPoly
from thetapencil.cli import build_parser, main
from thetapencil.coeff import CoeffExpr, sym
from thetapencil.operators import ConstantObstruction, EvolutionaryOp, NotExact
from thetapencil.pencil import LatticeBracket
from thetapencil.spectral import ZeroWeightError
from thetapencil.fixtures import camassa_holm_brackets, camassa_holm_expected_u

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_the_module_entry_point_runs(tmp_path):
    """`python -m thetapencil.cli`, as README documents it: a report on
    stdout, byte for byte, and one error line for a missing file."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "thetapencil.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)

    done = cli("example", "kdv", "--json")
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "example_kdv.json").read_text()
    done = cli("central-invariant", "missing.json", "missing.json")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


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
                                  "(u+g(u)+1)^40*(u+c(u)+1)^40",
                                  "(u+g(u)+1)^20*(u+c(u)+1)^20"],
                         ids=["deep-nesting", "huge-exponent", "nested-powers",
                              "product-of-powers", "product-of-smaller-powers"])
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


@pytest.mark.parametrize("argv", [
    ["deform", "--g", "lambda", "--c", "1"],
    ["verify", "deformation", "--g", "u*lambda", "--c", "1"],
    ["verify", "deformation", "--g", "lambda", "--c", "1"],
    ["deform", "--g", "u1", "--c", "1"],
    ["deform", "--g", "1", "--c", "eps*u"],
    ["deform", "--g", "uxx", "--c", "1"],
    ["verify", "deformation", "--g", "g", "--c", "theta2"],
    ["deform", "--g", "sqrt", "--c", "1"],
    ["deform", "--g", "D", "--c", "1"],
    ["deform", "--g", "1", "--c", "log"],
], ids=["lambda", "u-lambda", "verify-lambda", "jet-u1", "eps", "jet-uxx", "theta2",
        "reserved-sqrt", "reserved-D", "reserved-log"])
def test_non_scalar_g_or_c_is_bad_input(argv, capsys):
    """--g and --c take a function of u: lambda, eps, jets, thetas and the
    grammar's other reserved names are refused as bad input, not computed
    with or reported as a failed check."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("value", ["g", "c", "u^2 + 1", "1/(24*u)", "1/24", "2*h(u)"])
def test_scalar_g_and_c_are_accepted(value, capsys):
    assert main(["deform", "--g", value, "--c", value]) == 0
    assert main(["verify", "deformation", "--g", "g", "--c", value]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("g, c", [("1", "1/24"), ("3", "1/24"), ("1/2", "u"), ("3", "c"),
                                  ("u", "0"), ("g", "0"), ("1", "1"), ("u", "u^-2"),
                                  ("2*u^3", "0")])
def test_deformation_controls_hold_for_constant_g_or_zero_c(g, c, capsys):
    """The negative controls separate the variants whatever g and c are:
    with g and c constant or c = 0 the theta0 theta3 corruption leaves a
    cocycle and the printed u2 variant equals the derived coefficient."""
    code, out = run(capsys, "verify", "deformation", "--g", g, "--c", c)
    assert code == 0, out


def test_deformation_control_fails_when_nothing_breaks_the_cocycle(monkeypatch):
    always = checks.verify_deformation(CoeffExpr.one(), CoeffExpr.zero())
    assert always.ok
    monkeypatch.setattr(checks, "verify_deformation", lambda *a, **k: always)
    report = checks.verify_deformation_report(CoeffExpr.one(), CoeffExpr.rational(1, 24))
    control, = [chk for chk in report.checks if chk.name == "cocycle_negative_control"]
    assert not control.passed and not report.ok


def test_bracket_files_with_any_function_symbol_are_read_back(tmp_path, capsys):
    """A file that `deform --format delta` writes for a user-named g and c
    is read back by the commands that take bracket files."""
    path = tmp_path / "pencil.json"
    code, _ = run(capsys, "deform", "--g", "h", "--c", "2*k(u)", "--format", "delta",
                  "--out", str(path))
    assert code == 0
    assert "h'(u)" in path.read_text() and "k(u)" in path.read_text()
    code, out = run(capsys, "miura", "--bracket", str(path), "--transform", "u", "--json")
    assert code == 0
    assert json.loads(out)["document"] == json.loads(path.read_text())
    # A pencil member paired with itself is read, then refused as not in
    # canonical coordinates (g2 = g1, not u g1): bad input, not a parse error.
    assert main(["central-invariant", str(path), str(path)]) == 2
    assert capsys.readouterr().err == "error: not in canonical coordinate: g2 != u * g1\n"
    first, second = tmp_path / "h1.json", tmp_path / "h2.json"
    first.write_text(json.dumps({"terms": [
        {"eps": 0, "der": 1, "coeff": "h(u)"},
        {"eps": 0, "der": 0, "coeff": "1/2*h'(u)*u1"}]}))
    second.write_text(json.dumps({"terms": [
        {"eps": 0, "der": 1, "coeff": "u*h(u)"},
        {"eps": 0, "der": 0, "coeff": "1/2*h(u)*u1 + 1/2*u*h'(u)*u1"},
        {"eps": 2, "der": 3, "coeff": "1/8"}]}))
    code, out = run(capsys, "central-invariant", str(first), str(second))
    assert code == 0
    assert "c(u) = 1/24*h(u)^(-2)" in out


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


@pytest.mark.parametrize("argv, flag", [
    (("verify", "homotopy", "--p", "2", "--q", "3", "--samples", "-3"), "--samples"),
    (("verify", "spectral", "--samples", "-1"), "--samples"),
    (("verify", "operators", "--max-degree", "-1"), "--max-degree"),
    (("verify", "operators", "--max-jet", "-2"), "--max-jet"),
    (("miura", "--bracket", "missing.json", "--transform", "u", "--order", "-1"), "--order"),
], ids=["homotopy-samples", "spectral-samples", "max-degree", "max-jet", "miura-order"])
def test_a_negative_count_is_bad_input(argv, flag, capsys):
    """A negative count is refused before any work; zero stays a vacuous run."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("exc", [
    RuntimeError("homotopy series exceeded its termination cap"),
    ZeroWeightError("zero-weight division at Monomial((), ())"),
    ArithmeticError("P_0 does not vanish"),
    NotExact(ThetaPoly.theta(0) * ThetaPoly.theta(1)),
    ConstantObstruction("a degree-zero component"),
    # what `_strip_extension` refuses: a remainder holding log(u1)
    NotExact(ThetaPoly.monomial(Monomial((), (0, 1)), CoeffExpr.log_u1())),
], ids=["termination-cap", "zero-weight", "arithmetic", "not-exact",
        "constant-obstruction", "extension-atoms-persist"])
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


_GOOD_TERM = {"eps": 0, "der": 1, "coeff": "1"}


def test_miura_transform_with_a_negative_jet_power_is_bad_input(tmp_path, capsys):
    # The density grammar reads u1^(-1), but a transform is a differential
    # polynomial in u.
    bracket = tmp_path / "b.json"
    bracket.write_text(json.dumps({"terms": [_GOOD_TERM]}))
    assert main(["miura", "--bracket", str(bracket), "--transform", "u + u1^(-1)"]) == 2
    err = capsys.readouterr().err
    assert err == "error: transform holds an extension atom\n"


def test_miura_transform_with_log_u1_is_bad_input(tmp_path, capsys):
    # The density grammar reads log(u1), but a transform is a differential
    # polynomial in u.
    bracket = tmp_path / "b.json"
    bracket.write_text(json.dumps({"terms": [_GOOD_TERM]}))
    assert main(["miura", "--bracket", str(bracket), "--transform", "u + eps*log(u1)"]) == 2
    err = capsys.readouterr().err
    assert err == "error: transform holds an extension atom\n"


def test_miura_transform_with_a_costly_power_is_bad_input(tmp_path, capsys):
    # (u1+u2+1)^61 has at most 1,953 terms, but its build would form about
    # 119,000 term products; it is refused before the first
    bracket = tmp_path / "b.json"
    bracket.write_text(json.dumps({"terms": [_GOOD_TERM]}))
    start = time.perf_counter()
    code = main(["miura", "--bracket", str(bracket), "--transform", "u + eps^2*(u1+u2+1)^61"])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: power may form over 20000 term products")


def test_deform_with_a_zero_divisor_is_bad_input(capsys):
    assert main(["deform", "--g", "u/0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: division by zero (at position 1)\n"


@pytest.mark.parametrize("document", [
    {}, [1, 2],
    {"terms": [{"eps": 0, "coeff": "1"}]},
    {"terms": [{"eps": "a", "der": 1, "coeff": "1"}]},
    {"terms": [{"eps": 0, "der": 1, "coeff": 5}]},
    {"terms": [_GOOD_TERM, {"eps": 0, "der": -1, "coeff": "1"}]},
    {"terms": [_GOOD_TERM, {"eps": -1, "der": 1, "coeff": "1"}]},
    {"terms": [{"eps": 0, "der": True, "coeff": "1"}]},
    {"coordinate": 7, "terms": [_GOOD_TERM]},
    {"terms": [_GOOD_TERM, {"eps": 0, "der": 0, "coeff": "theta1"}]},
    {"terms": [_GOOD_TERM, {"eps": 2, "der": 3, "coeff": "u*log(u1)"}]},
    {"terms": [_GOOD_TERM, {"eps": 1, "der": 3, "coeff": "1"}]},
], ids=["empty-object", "list", "no-der", "eps-string", "coeff-int", "der-negative",
        "eps-negative", "der-bool", "coordinate-int", "coeff-theta", "coeff-log",
        "der-above-eps-plus-one"])
def test_malformed_bracket_file_is_bad_input(document, tmp_path, capsys):
    """A bracket document of any other shape is refused as bad input by
    both commands that read one, not crashed on or partly read."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(document))
    good.write_text(json.dumps({"terms": [_GOOD_TERM]}))
    for argv in (["central-invariant", str(bad), str(good)],
                 ["miura", "--bracket", str(bad), "--transform", "u"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out


def test_a_huge_der_is_refused_at_once(tmp_path, capsys):
    """der > eps + 1 is refused before any operator arithmetic on it."""
    big, one = tmp_path / "big.json", tmp_path / "one.json"
    big.write_text(json.dumps({"terms": [{"eps": 0, "der": 6400, "coeff": "1"}]}))
    one.write_text(json.dumps({"terms": [_GOOD_TERM]}))
    start = time.perf_counter()
    code = main(["central-invariant", str(big), str(one)])
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert capsys.readouterr().err == \
        "error: bracket term eps^0 delta^(6400) has der > eps + 1\n"


def test_a_too_deep_document_is_bad_input(tmp_path, capsys):
    """A document nested deeper than the JSON decoder recurses is bad input,
    not an internal error; json.dumps cannot write it, so it is raw text."""
    deep, good = tmp_path / "deep.json", tmp_path / "good.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    good.write_text(json.dumps({"terms": [_GOOD_TERM]}))
    for argv in (["central-invariant", str(deep), str(good)],
                 ["miura", "--bracket", str(deep), "--transform", "u"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err == f"error: {deep}: JSON document nested too deeply\n"
    with pytest.raises(ValueError, match="nested too deeply"):
        LatticeBracket.load(deep)


def test_a_non_skew_bracket_is_a_failed_check(tmp_path, capsys):
    """miura reports a non-skew bracket as a failed skewness check (exit 1);
    central-invariant refuses its dispersionless part (exit 2)."""
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"terms": [{"eps": 0, "der": 1, "coeff": "u"},
                                          {"eps": 0, "der": 0, "coeff": "u1"}]}))
    code, out = run(capsys, "miura", "--bracket", str(path), "--transform", "u")
    assert code == 1
    assert "[FAIL] skewness" in out
    assert main(["central-invariant", str(path), str(path)]) == 2
    assert capsys.readouterr().err == "error: dispersionless part is not g d' + 1/2 g' u1 d\n"


_BAD_COORDINATES = ["", "lambda", "eps", "x", "sqrt", "theta0", "u1", "a b"]


@pytest.mark.parametrize("name", _BAD_COORDINATES)
def test_a_coordinate_is_u_or_a_function_symbol(name, tmp_path, capsys):
    """`miura --coordinate` and a document's coordinate are refused as bad
    input unless they are u or a name the grammar reads as a function symbol."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"terms": [{"eps": 0, "der": 1, "coeff": "u"},
                                          {"eps": 0, "der": 0, "coeff": "1/2*u1"}]}))
    bad.write_text(json.dumps({"coordinate": name, "terms": [_GOOD_TERM]}))
    for argv in (["miura", "--bracket", str(good), "--transform", "u", "--coordinate", name],
                 ["miura", "--bracket", str(bad), "--transform", "u"],
                 ["central-invariant", str(bad), str(good)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out


def test_a_coordinate_may_not_turn_a_function_into_a_jet(tmp_path, capsys):
    path = tmp_path / "w1.json"
    path.write_text(json.dumps({"terms": [{"eps": 0, "der": 1, "coeff": "w1(u)"},
                                          {"eps": 0, "der": 0, "coeff": "1/2*w1'(u)*u1"}]}))
    assert main(["miura", "--bracket", str(path), "--transform", "u"]) == 0
    capsys.readouterr()
    assert main(["miura", "--bracket", str(path), "--transform", "u",
                 "--coordinate", "w"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "w1" in err
    lattice = {"coordinate": "theta1", "shift_terms": [{"shift": 0, "coeff": "1"}]}
    with pytest.raises(ValueError, match="coordinate"):
        LatticeBracket.from_dict(lattice)


def test_injected_sign_bug_fails_with_residual(monkeypatch):
    # negative control for the operator suite: flip one characteristic sign
    g = sym("g")
    half = CoeffExpr.rational(1, 2)
    xu = ThetaPoly.theta(1) * g - ThetaPoly.monomial(
        Monomial(((1, 1),), (0,)), g.ddu() * half)
    xtheta = ThetaPoly.monomial(Monomial((), (0, 1)), g.ddu() * half)
    broken = EvolutionaryOp(xu, xtheta)
    monkeypatch.setattr(checks, "d1_op", lambda: broken)
    report = checks.verify_operators_report(max_degree=2, max_jet=3)
    assert not report.ok
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.residual for c in failing)
