"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions and methods of each layer
with timing wrappers and `Tracer.remove` puts the originals back.  Methods
are wrapped on their class (``CoeffExpr.__rmul__`` separately, since it is
bound to the same function as ``__mul__``).  A module function is replaced
in every ``thetapencil`` module that holds it under any name, because
``checks``, ``cli`` and ``pencil`` import many of them by name.

Self time is a call's duration minus the time spent in nested wrapped
calls.  Counts and self times are kept per item in memory; spans are kept
for each item and for each entry into the operators, spectral, pencil and
parsing layers.  Nothing is written until the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, owner inside it or None for a module function, attribute, key)
TARGETS = [
    ("coeff", "CoeffExpr", "__mul__", "coeff.mul"),
    ("coeff", "CoeffExpr", "__rmul__", "coeff.mul"),
    ("coeff", "CoeffExpr", "__add__", "coeff.add"),
    ("coeff", "CoeffExpr", "__radd__", "coeff.add"),
    ("coeff", "CoeffExpr", "__sub__", "coeff.sub"),
    ("coeff", "CoeffExpr", "__neg__", "coeff.neg"),
    ("coeff", "CoeffExpr", "__pow__", "coeff.pow"),
    ("coeff", "CoeffExpr", "inverse", "coeff.inverse"),
    ("coeff", "CoeffExpr", "ddu", "coeff.ddu"),
    ("coeff", "CoeffExpr", "subst_lambda", "coeff.subst_lambda"),
    ("algebra", "ThetaPoly", "__mul__", "algebra.mul"),
    ("algebra", "ThetaPoly", "__add__", "algebra.add"),
    ("algebra", "ThetaPoly", "__sub__", "algebra.sub"),
    ("algebra", "ThetaPoly", "__neg__", "algebra.neg"),
    ("algebra", "ThetaPoly", "total_derivative", "algebra.total_derivative"),
    ("algebra", "ThetaPoly", "du", "algebra.du"),
    ("algebra", "ThetaPoly", "dtheta", "algebra.dtheta"),
    ("operators", "EvolutionaryOp", "apply", "operators.apply"),
    ("operators", None, "pencil_operator", "operators.pencil_operator"),
    ("operators", None, "variational_derivative_u", "operators.euler"),
    ("operators", None, "variational_derivative_theta", "operators.euler"),
    ("operators", None, "exact_witness", "operators.exact_witness"),
    ("operators", None, "undo_top_bump", "operators.undo_top_bump"),
    ("operators", None, "is_total_derivative", "operators.is_total_derivative"),
    ("spectral", None, "d0", "spectral.d0"),
    ("spectral", None, "d1", "spectral.d1"),
    ("spectral", None, "homotopy_h", "spectral.homotopy_h"),
    ("spectral", "UVWSplit", "u_apply", "spectral.u_apply"),
    ("spectral", "UVWSplit", "u_inverse", "spectral.u_inverse"),
    ("spectral", "UVWSplit", "v_apply", "spectral.v_apply"),
    ("spectral", "UVWSplit", "w_apply", "spectral.w_apply"),
    ("pencil", None, "theta_to_delta", "pencil.theta_to_delta"),
    ("pencil", None, "dlz_generator", "pencil.dlz_generator"),
    ("pencil", None, "verify_deformation", "pencil.verify_deformation"),
    ("pencil", None, "deformation_order2", "pencil.deformation_order2"),
    ("pencil", None, "miura_transform", "pencil.miura_transform"),
    ("pencil", None, "expand_lattice_bracket", "pencil.expand_lattice_bracket"),
    ("pencil", None, "central_invariant", "pencil.central_invariant"),
    ("pencil", "DiffOperator", "__mul__", "pencil.diffop"),
    ("pencil", "DiffOperator", "__add__", "pencil.diffop"),
    ("pencil", "DiffOperator", "__sub__", "pencil.diffop"),
    ("pencil", "DiffOperator", "__neg__", "pencil.diffop"),
    ("pencil", "DiffOperator", "adjoint", "pencil.diffop"),
    ("pencil", "DiffOperator", "truncate_eps", "pencil.diffop"),
    ("parsing", None, "parse_coeff", "parsing.parse"),
    ("parsing", None, "parse_density", "parsing.parse"),
    ("parsing", None, "render_coeff", "parsing.render"),
    ("parsing", None, "render_poly", "parsing.render"),
    ("checks", None, "verify_operators_report", "driver.checks"),
    ("checks", None, "verify_homotopy_report", "driver.checks"),
    ("checks", None, "verify_spectral_report", "driver.checks"),
    ("checks", None, "lambda_independence_report", "driver.checks"),
    ("checks", None, "verify_deformation_report", "driver.checks"),
    ("checks", None, "central_invariant_report", "driver.checks"),
    ("checks", None, "example_report", "driver.checks"),
    ("checks", None, "euler_oracle_report", "driver.checks"),
    ("cli", None, "main", "driver.cli"),
    ("report", "Report", "to_json", "report.to_json"),
]
LAYERS = ("coeff", "algebra", "operators", "spectral", "pencil", "parsing")
SPAN_LAYERS = frozenset(("operators", "spectral", "pencil", "parsing"))


def _layer(key: str) -> str:
    head = key.split(".", 1)[0]
    return "driver" if head == "report" else head


class Tracer:
    def __init__(self):
        self.items: list[dict] = []   # per item: key -> [calls, self_s, returned]
        self.spans: list[tuple] = []  # (id, parent, item, name, start, end)
        self.peak_terms = 0
        self.series_len_max = 0
        self.mul_probed = 0     # multiplications that did not return NotImplemented
        self.mul_atomfree = 0
        self.mul_radicand = 0
        self._coeff_type = None
        self._current: dict = {}
        self._stack: list[list] = []  # open wrapped calls: [child_s, layer, span]
        self._item_span = None
        self._patches: list[tuple] = []

    # -- items and spans --------------------------------------------------------

    def begin_item(self, index: int, name: str) -> None:
        self._current = {}
        self._item_span = [len(self.spans), None, index, name, perf_counter(), None]
        self.spans.append(self._item_span)

    def end_item(self) -> None:
        self._item_span[5] = perf_counter()
        self.items.append(self._current)

    def _open_span(self, key: str):
        parent = next((f[2][0] for f in reversed(self._stack) if f[2] is not None),
                      self._item_span[0])
        span = [len(self.spans), parent, self._item_span[2], key, perf_counter(), None]
        self.spans.append(span)
        return span

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, key: str):
        layer = _layer(key)
        stack = self._stack
        probe = {"coeff.mul": self._probe_mul, "algebra.mul": self._probe_terms,
                 "algebra.add": self._probe_terms,
                 "algebra.total_derivative": self._probe_terms}.get(key)
        homotopy = key == "spectral.homotopy_h"
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            span = None
            if layer in SPAN_LAYERS and (not stack or stack[-1][1] != layer):
                span = tracer._open_span(key)
            frame = [0.0, layer, span]
            stack.append(frame)
            if homotopy:
                before = tracer._calls("spectral.v_apply")
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t_out = perf_counter()
                stack.pop()
                rec = tracer._current.get(key)
                if rec is None:
                    rec = tracer._current[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += t_out - t_in - frame[0]
                rec[2] += returned
                if span is not None:
                    span[5] = t_out
                if returned and probe is not None:
                    probe(args, result)
                if returned and homotopy:
                    tracer.series_len_max = max(
                        tracer.series_len_max, tracer._calls("spectral.v_apply") - before)
                if stack:
                    stack[-1][0] += perf_counter() - t_in
            return result

        return wrapper

    def _calls(self, key: str) -> int:
        rec = self._current.get(key)
        return rec[0] if rec else 0

    def _probe_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        atoms = radicand = False
        for operand in args:
            if not isinstance(operand, self._coeff_type):
                continue    # an int or Fraction factor
            for key, _ in operand.terms():
                atoms = atoms or bool(key[6])
                radicand = radicand or key[0] != 1
        self.mul_probed += 1
        self.mul_atomfree += not atoms
        self.mul_radicand += radicand

    def _probe_terms(self, args, result) -> None:
        size = len(result) if hasattr(result, "__len__") else 0
        if size > self.peak_terms:
            self.peak_terms = size

    def install(self) -> None:
        self._coeff_type = sys.modules["thetapencil.coeff"].CoeffExpr
        modules = [m for name, m in sys.modules.items()
                   if (name == "thetapencil" or name.startswith("thetapencil."))
                   and m is not None]
        for mod_name, owner_name, attr, key in TARGETS:
            module = sys.modules[f"thetapencil.{mod_name}"]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, key))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, key)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def totals(self) -> dict:
        out: dict = {}
        for per_item in self.items:
            for key, (calls, self_s, returned) in per_item.items():
                rec = out.setdefault(key, [0, 0.0, 0])
                rec[0] += calls
                rec[1] += self_s
                rec[2] += returned
        return out

    def metrics(self) -> dict:
        """The per-layer metrics, by name, as (value, unit)."""
        tot = self.totals()

        def calls(*keys):
            return sum(tot.get(k, (0, 0.0, 0))[0] for k in keys)

        def self_s(*keys):
            return sum((tot.get(k, (0, 0.0, 0))[1] for k in keys), 0.0)

        def layer_s(layer):
            return sum((rec[1] for k, rec in tot.items() if _layer(k) == layer), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        for key in ("coeff.mul", "coeff.add", "coeff.ddu", "coeff.subst_lambda",
                    "algebra.mul", "algebra.add", "algebra.total_derivative",
                    "algebra.du", "algebra.dtheta",
                    "operators.apply", "operators.pencil_operator", "operators.euler",
                    "operators.exact_witness", "operators.undo_top_bump",
                    "operators.is_total_derivative",
                    "spectral.d0", "spectral.d1", "spectral.homotopy_h",
                    "spectral.u_inverse", "spectral.v_apply", "spectral.w_apply",
                    "pencil.theta_to_delta", "pencil.dlz_generator",
                    "pencil.verify_deformation", "pencil.deformation_order2",
                    "pencil.miura_transform", "pencil.expand_lattice_bracket",
                    "pencil.central_invariant", "pencil.diffop",
                    "parsing.parse", "parsing.render"):
            put(f"{key}.calls", calls(key), "count")
            put(f"{key}.self_s", self_s(key), "s")
        put("coeff.mul.atomfree_ratio", ratio(self.mul_atomfree, self.mul_probed), "ratio")
        put("coeff.mul.radicand_ratio", ratio(self.mul_radicand, self.mul_probed), "ratio")
        put("algebra.peak_terms", self.peak_terms, "count")
        witness = tot.get("operators.exact_witness", (0, 0.0, 0))
        put("operators.witness_found_ratio", ratio(witness[2], witness[0]), "ratio")
        put("spectral.series_len_max", self.series_len_max, "count")
        for layer in LAYERS:
            put(f"{layer}.self_s", layer_s(layer), "s")
        put("driver.self_s", layer_s("driver"), "s")
        put("report.to_json.self_s", self_s("report.to_json"), "s")
        return m
