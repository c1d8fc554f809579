"""Batch command-line interface.

The CLI only parses arguments and emits: each command's `run` default
maps the parsed arguments to a report and its document, and `checks.py`
builds every report.  Exit status: 0 when every check passed, 1 when one
failed, 2 on bad input, 3 on an internal error (an exactness failure
included) or a resource cap.
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
from .pencil import DeltaBracket, MiuraTransform

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


def _emit(args, report, document: dict | None) -> int:
    """Print the report; --out receives the emitted document when there is
    one, and the report JSON otherwise."""
    if getattr(args, "out", None):
        Path(args.out).write_text(report.to_json() if document is None else
                                  json.dumps(document, indent=2, sort_keys=True) + "\n")
        document = None
    if args.json:
        extra = {} if document is None else {"document": document}
        sys.stdout.write(report.to_json(**extra))
    else:
        sys.stdout.write(report.to_text())
        if document is not None:
            sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return report.exit_status


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged.  Each leaf's `run` default maps the parsed arguments to
    (report, document or None)."""
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
    v_ops.set_defaults(run=lambda a: (
        checks.verify_operators_report(a.max_degree, a.max_jet), None))
    v_hom = vsub.add_parser("homotopy")
    v_hom.add_argument("--p", type=int, required=True)
    v_hom.add_argument("--q", type=int, required=True)
    v_hom.add_argument("--samples", type=int, default=100)
    v_hom.add_argument("--seed", type=int, default=0)
    v_hom.set_defaults(run=lambda a: (
        checks.verify_homotopy_report(a.p, a.q, a.samples, a.seed), None))
    v_spec = vsub.add_parser("spectral")
    v_spec.add_argument("--samples", type=int, default=60)
    v_spec.add_argument("--seed", type=int, default=0)
    v_spec.set_defaults(run=lambda a: (
        checks.verify_spectral_report(a.seed, a.samples), None))
    v_def = vsub.add_parser("deformation")
    v_def.add_argument("--g", default="g")
    v_def.add_argument("--c", default="c")
    v_def.set_defaults(run=lambda a: (
        checks.verify_deformation_report(_scalar_arg(a.g), _scalar_arg(a.c)), None))
    vsub.add_parser("lambda-independence").set_defaults(
        run=lambda a: (checks.lambda_independence_report(), None))

    ci = sub.add_parser("central-invariant",
                        help="central invariant of a bracket pair")
    ci.add_argument("first")
    ci.add_argument("second")
    ci.set_defaults(run=lambda a: (checks.central_invariant_report(
        DeltaBracket.load(a.first), DeltaBracket.load(a.second)), None))

    ex = sub.add_parser("example", help="run a built-in worked example")
    ex.add_argument("name", choices=list(checks.EXAMPLES))
    ex.set_defaults(run=lambda a: (checks.example_report(a.name), None))

    de = sub.add_parser("deform", help="emit the order-eps^2 pencil")
    de.add_argument("--g", default="g")
    de.add_argument("--c", default="c")
    de.add_argument("--format", choices=["theta", "delta"], default="theta")
    de.add_argument("--construct", choices=["formula", "dlz"], default="formula")
    de.set_defaults(run=lambda a: checks.deform_report(
        _scalar_arg(a.g), _scalar_arg(a.c), a.format, a.construct))

    mi = sub.add_parser("miura", help="transform a bracket file")
    mi.add_argument("--bracket", required=True)
    mi.add_argument("--transform", required=True,
                    help="e.g. 'u + eps/(2*sqrt(2))*u1'")
    mi.add_argument("--order", type=int, default=2)
    mi.add_argument("--coordinate", default="u")
    mi.set_defaults(run=lambda a: checks.miura_report(
        DeltaBracket.load(a.bracket), MiuraTransform.parse(a.transform), a.order, a.coordinate))

    for leaf in [*vsub.choices.values(), ci, ex, de, mi]:
        leaf.add_argument("--json", action="store_true")
    for leaf in [*vsub.choices.values(), de, mi]:
        leaf.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_counts(**{"--" + name.replace("_", "-"): getattr(args, name)
                        for name in ("max_degree", "max_jet", "samples", "order")
                        if hasattr(args, name)})
        return _emit(args, *args.run(args))
    except _INTERNAL as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
