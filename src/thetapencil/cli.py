"""Batch command-line interface.

Runs the verification suites, computes central invariants and
deformations from bracket files, and emits machine-readable reports.
Exit status: 0 when every check passed, 1 when one failed, 2 on bad
input, 3 on an internal error (an exactness failure included) or a
resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import checks
from .coeff import CoeffExpr
from .operators import ConstantObstruction, NotExact
from .parsing import check_counts, is_function_symbol, parse_coeff
from .pencil import (DeltaBracket, MiuraTransform, deformation_order2,
                     miura_transform, theta_to_delta)
from .report import Report

# Exactness failures are ValueErrors, but they are never bad input.
_INTERNAL = (NotExact, ConstantObstruction, RuntimeError, ArithmeticError)


def _scalar_arg(text: str) -> CoeffExpr:
    """A CLI scalar: a function symbol (`parsing.is_function_symbol`), or an
    expression in u with neither lambda nor eps."""
    if is_function_symbol(text):
        return CoeffExpr.func(text)
    value = parse_coeff(text)
    if value.lambda_degree() or value.eps_degree():
        raise ValueError(f"{text!r} depends on lambda or eps, not on u alone")
    return value


def _emit(report: Report, args, document: dict | None = None) -> int:
    """Print the report; --out receives the emitted document when there is
    one, and the report JSON otherwise."""
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(report.to_json() if document is None else
                             json.dumps(document, indent=2, sort_keys=True) + "\n")
        document = None
    if getattr(args, "json", False):
        extra = {} if document is None else {"document": document}
        sys.stdout.write(report.to_json(**extra))
    else:
        sys.stdout.write(report.to_text())
        if document is not None:
            sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return report.exit_status


def _cmd_verify(args) -> int:
    if args.what == "operators":
        report = checks.verify_operators_report(args.max_degree, args.max_jet)
    elif args.what == "homotopy":
        report = checks.verify_homotopy_report(args.p, args.q, args.samples,
                                               args.seed)
    elif args.what == "spectral":
        report = checks.verify_spectral_report(args.seed, args.samples)
    elif args.what == "lambda-independence":
        report = checks.lambda_independence_report()
    else:
        g = _scalar_arg(args.g)
        c = _scalar_arg(args.c)
        report = checks.verify_deformation_report(g, c)
    return _emit(report, args)


def _cmd_central_invariant(args) -> int:
    b1 = DeltaBracket.load(args.first)
    b2 = DeltaBracket.load(args.second)
    return _emit(checks.central_invariant_report(b1, b2), args)


def _cmd_example(args) -> int:
    return _emit(checks.example_report(args.name), args)


def _theta_document(density) -> dict:
    return {
        "kind": "theta-density",
        "coordinate": "u",
        "terms": [{"eps": e, "expr": part.render()}
                  for e, part in sorted(density.eps_components().items())],
    }


def _cmd_deform(args) -> int:
    g = _scalar_arg(args.g)
    c = _scalar_arg(args.c)
    density = deformation_order2(g, c)
    report = Report(f"deformation (format={args.format}, construct={args.construct})")
    with report.timed("cocycle") as check:
        checks.cocycle_check(check, g, c, density)
    if args.construct == "dlz":
        with report.timed("generator_class_equality") as check:
            checks.generator_check(check, g, c, density)
    if args.format == "theta":
        document = _theta_document(density)
    else:
        bracket = theta_to_delta(density)
        document = bracket.to_dict()
        with report.timed("delta_third_derivative_coefficient") as check:
            check.passed = True
            check.detail = ("eps^2 delta''' coefficient: "
                            + bracket.coefficient(2, 3).render())
    return _emit(report, args, document)


def _cmd_miura(args) -> int:
    bracket = DeltaBracket.load(args.bracket)
    transform = MiuraTransform.parse(args.transform)
    out = miura_transform(bracket, transform, args.order,
                          new_coordinate=args.coordinate)
    report = Report("miura transformation")
    with report.timed("skewness") as check:
        check.passed = out.is_skew()
    with report.timed("transformed") as check:
        check.passed = True
        check.detail = (f"{bracket.coordinate} -> {args.coordinate}, "
                        f"order eps^{args.order}")
    return _emit(report, args, out.to_dict())


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="thetapencil",
        description="Symbolic verification for scalar dispersionless "
                    "Poisson pencils in the theta formalism.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="what", required=True)
    v_ops = vsub.add_parser("operators")
    v_ops.add_argument("--max-degree", type=int, default=5)
    v_ops.add_argument("--max-jet", type=int, default=6)
    v_hom = vsub.add_parser("homotopy")
    v_hom.add_argument("--p", type=int, required=True)
    v_hom.add_argument("--q", type=int, required=True)
    v_hom.add_argument("--samples", type=int, default=100)
    v_hom.add_argument("--seed", type=int, default=0)
    v_spec = vsub.add_parser("spectral")
    v_spec.add_argument("--samples", type=int, default=60)
    v_spec.add_argument("--seed", type=int, default=0)
    v_def = vsub.add_parser("deformation")
    v_def.add_argument("--g", default="g")
    v_def.add_argument("--c", default="c")
    vsub.add_parser("lambda-independence")
    for sp in vsub.choices.values():
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=_cmd_verify)

    ci = sub.add_parser("central-invariant",
                        help="central invariant of a bracket pair")
    ci.add_argument("first")
    ci.add_argument("second")
    ci.add_argument("--json", action="store_true")
    ci.set_defaults(func=_cmd_central_invariant)

    ex = sub.add_parser("example", help="run a built-in worked example")
    ex.add_argument("name", choices=list(checks.EXAMPLES))
    ex.add_argument("--json", action="store_true")
    ex.set_defaults(func=_cmd_example)

    de = sub.add_parser("deform", help="emit the order-eps^2 pencil")
    de.add_argument("--g", default="g")
    de.add_argument("--c", default="c")
    de.add_argument("--format", choices=["theta", "delta"], default="theta")
    de.add_argument("--construct", choices=["formula", "dlz"], default="formula")
    de.add_argument("--json", action="store_true")
    de.add_argument("--out", default=None)
    de.set_defaults(func=_cmd_deform)

    mi = sub.add_parser("miura", help="transform a bracket file")
    mi.add_argument("--bracket", required=True)
    mi.add_argument("--transform", required=True,
                    help="e.g. 'u + eps/(2*sqrt(2))*u1'")
    mi.add_argument("--order", type=int, default=2)
    mi.add_argument("--coordinate", default="u")
    mi.add_argument("--json", action="store_true")
    mi.add_argument("--out", default=None)
    mi.set_defaults(func=_cmd_miura)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_counts(**{"--" + name.replace("_", "-"): getattr(args, name)
                        for name in ("max_degree", "max_jet", "samples", "order")
                        if hasattr(args, name)})
        return args.func(args)
    except _INTERNAL as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
