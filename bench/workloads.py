"""Seeded workload inputs, the calls that run them, and their known answers.

A workload is a list of items.  Building the list is the set-up: it draws
the seeded inputs and writes the bracket files the CLI jobs read.  Running
an item calls the package only through its public report functions or its
in-process CLI (``thetapencil.cli.main``) and returns the raw outcome.
Judging an item compares that outcome with an answer derived here by hand,
through a small exact evaluator that shares no code with the package.

Outcomes are judged after the timed pass, so judging costs no item time
and touches no traced function.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import re
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from thetapencil import checks, cli
from thetapencil.algebra import monomial_basis

WORKLOADS = ("sweep", "contraction", "brackets")

# sweep: acceptance criterion 1 at the roadmap's baseline size.
SWEEP_DEGREE, SWEEP_JETS = 6, 7
SWEEP_SMALL = (3, 4)

# contraction: bidegrees (2,2) .. (5,4) plus (3,5), about 10 samples each.
HOMOTOPY_BIDEGREES = [(p, q) for p in range(2, 6) for q in range(2, 5)] + [(3, 5)]
HOMOTOPY_PER_BIDEGREE = 8
HOMOTOPY_SAMPLES = 10
SPECTRAL_REPORTS = 3
SPECTRAL_SAMPLES, SPECTRAL_LEX = 20, 100

# brackets: 109 jobs in one pass.  Draws are balanced over the pools below
# (each concrete g equally often, symbolic jobs a fixed set), so the seed
# changes which inputs meet, not how much work a pass does.  The mix puts
# the median job inside the dense cluster of `deform` latencies rather than
# in the gap below it, which keeps item_p50_ms steady from run to run.
DEFORM_CYCLES, VERIFY_CYCLES = 3, 1          # passes over G_POOL
SYMBOLIC_DEFORM = ("g", "g", "c", "both")    # which scalars are symbolic
SYMBOLIC_VERIFY = ("g", "c", "both")
EXAMPLES_EACH = 3
MIURA_EACH = 2                               # per (bracket file, order)
CENTRAL_PAIRS = 20
LAMBDA_JOBS = 3
EXACTNESS_JOBS, EXACTNESS_SAMPLES = 10, 8

# Concrete scalars for (g, c).  Every g has g' != 0: see known_defects().
G_POOL = ["u", "2*u", "u^2", "3*u^2", "1/2*u^3", "u^2 + 1", "u^3 + u",
          "2*u^2 - u", "1 + u", "u^4", "u^2 - 2", "2*u^3"]
C_POOL = ["1/24", "1/3", "2", "u", "1/24*u", "u^2", "1 + u", "1/(24*u)"]
MONOMIAL_SCALES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
# central_invariant divides by g^2 and can only invert one term, so with
# these metrics it exits 2: see known_defects().
NON_MONOMIAL_METRICS = [{0: Fraction(1), 2: Fraction(1)},
                        {1: Fraction(1), 2: Fraction(1)},
                        {0: Fraction(2), 1: Fraction(1)},
                        {0: Fraction(1), 3: Fraction(1)}]

# Camassa-Holm pair in the w coordinate and the Miura map w = u + a u1,
# a = eps/(2 sqrt 2).
CH_FILES = {
    "ch1": {"coordinate": "w", "terms": [{"eps": 0, "der": 1, "coeff": "1"},
                                         {"eps": 2, "der": 3, "coeff": "-1/8"}]},
    "ch2": {"coordinate": "w", "terms": [{"eps": 0, "der": 1, "coeff": "w"},
                                         {"eps": 0, "der": 0, "coeff": "1/2*w1"}]},
}
CH_TRANSFORM = "u + eps/(2*sqrt(2))*u1"
# Hand expansion of K_u = L^-1 (1/2)(D v + v D) L^-adj with v = u + a u1 and
# L = 1 + a D (constant coefficients, so L commutes with D):
#   first bracket:  K_u = D exactly, at every order;
#   second bracket: K_u = u D + u1/2
#                   + a^2 (u D^3 + 3/2 u1 D^2 + 1/2 u2 D)
#                   - a^3 (u1 D^3 + 3/2 u2 D^2 + 1/2 u3 D)
#                   + a^4 (u D^5 + 5/2 u1 D^4 + 3 u2 D^3 + 2 u3 D^2 + 1/2 u4 D).
# Entries are (a power, derivative order) -> coefficient.
CH2_EXPANSION = {
    (0, 1): "u", (0, 0): "1/2*u1",
    (2, 3): "u", (2, 2): "3/2*u1", (2, 1): "1/2*u2",
    (3, 3): "-u1", (3, 2): "-3/2*u2", (3, 1): "-1/2*u3",
    (4, 5): "u", (4, 4): "5/2*u1", (4, 3): "3*u2", (4, 2): "2*u3", (4, 1): "1/2*u4",
}

# Central invariants of the built-in examples.
EXAMPLE_ANSWERS = {
    "kdv": [("central_invariant", "u", "1/24")],
    "camassa-holm": [("central_invariant_original", "w", "w/24"),
                     ("central_invariant_transformed", "u", "u/24")],
    "volterra": [("central_invariant", "u", "1/(24*u)")],
}


@dataclass
class Item:
    """One unit of work: a report call or a CLI job, with its known answer."""

    kind: str
    args: tuple
    answer: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)   # input sizes, for the summary

    def run(self):
        """Call the package; return its raw outcome (report or CLI result)."""
        if self.kind == "operators":
            return checks.verify_operators_report(*self.args)
        if self.kind == "homotopy":
            return checks.verify_homotopy_report(*self.args)
        if self.kind == "spectral":
            return checks.verify_spectral_report(*self.args)
        if self.kind == "exactness":
            return checks.euler_oracle_report(*self.args)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.args))
        return code, out.getvalue(), err.getvalue()


@dataclass
class Verdict:
    failed: bool        # raised, exited nonzero, or contradicted the answer
    wrong: bool         # produced a value or verdict contrary to the answer
    fingerprint: tuple  # the outcome, for comparing traced and untraced runs
    note: str = ""


# -- building -----------------------------------------------------------------

def build(name: str, seed: int, workdir: Path, small: bool = False) -> list[Item]:
    """The workload's items for this seed; bracket files go into workdir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        degree, jets = SWEEP_SMALL if small else (SWEEP_DEGREE, SWEEP_JETS)
        # The basis is the sweep's real input size; the report enumerates
        # it again itself.
        size = sum(1 for d in range(degree + 1)
                   for _ in monomial_basis(d, max_jet=jets))
        return [Item("operators", (degree, jets), sizes={"basis_monomials": size})]
    if name == "contraction":
        return _build_contraction(rng, small)
    if name == "brackets":
        return _build_brackets(rng, Path(workdir), small)
    raise ValueError(f"unknown workload {name!r}")


def _build_contraction(rng: random.Random, small: bool) -> list[Item]:
    per = 1 if small else HOMOTOPY_PER_BIDEGREE
    items = [Item("homotopy", (p, q, HOMOTOPY_SAMPLES, rng.randrange(10**6)))
             for p, q in HOMOTOPY_BIDEGREES for _ in range(per)]
    items.append(Item("homotopy", (1, 2, HOMOTOPY_SAMPLES, rng.randrange(10**6))))
    for _ in range(1 if small else SPECTRAL_REPORTS):
        items.append(Item("spectral", (rng.randrange(10**6), SPECTRAL_SAMPLES,
                                       SPECTRAL_LEX)))
    rng.shuffle(items)
    return items


def _build_brackets(rng: random.Random, workdir: Path, small: bool) -> list[Item]:
    def count(n):
        return min(n, 1) if small else n

    items: list[Item] = []
    for path_name, doc in CH_FILES.items():
        (workdir / f"{path_name}.json").write_text(json.dumps(doc))
    for g, c in _gc_pairs(rng, DEFORM_CYCLES, SYMBOLIC_DEFORM, small):
        items.append(Item("cli", ("deform", "--g", g, "--c", c, "--format", "delta",
                                  "--construct", "dlz", "--json"),
                          {"check": "deform", "g": g, "c": c}))
    for g, c in _gc_pairs(rng, VERIFY_CYCLES, SYMBOLIC_VERIFY, small):
        items.append(Item("cli", ("verify", "deformation", "--g", g, "--c", c,
                                  "--json"),
                          {"check": "verify_deformation", "g": g, "c": c}))
    for name in sorted(EXAMPLE_ANSWERS):
        for _ in range(count(EXAMPLES_EACH)):
            items.append(Item("cli", ("example", name, "--json"),
                              {"check": "example", "name": name}))
    for which in sorted(CH_FILES):
        for order in (2, 3, 4):
            for _ in range(count(MIURA_EACH)):
                items.append(Item("cli", (
                    "miura", "--bracket", str(workdir / f"{which}.json"),
                    "--transform", CH_TRANSFORM, "--order", str(order), "--json"),
                    {"check": "miura", "which": which, "order": order}))
    for k in range(2 if small else CENTRAL_PAIRS):
        g = {rng.randint(0, 3): rng.choice(MONOMIAL_SCALES)}
        items.append(_central_invariant_item(rng, workdir, f"pair{k}", g))
    for _ in range(count(LAMBDA_JOBS)):
        items.append(Item("cli", ("verify", "lambda-independence", "--json"),
                          {"check": "all_pass"}))
    for _ in range(count(EXACTNESS_JOBS)):
        items.append(Item("exactness", (EXACTNESS_SAMPLES, rng.randrange(10**6))))
    rng.shuffle(items)
    return items


def _central_invariant_item(rng: random.Random, workdir: Path, stem: str,
                            metric: dict) -> Item:
    """A canonical pair (g, u g) with drawn eps^2 parts, written to two files."""
    q1, q2 = _draw_poly(rng), _draw_poly(rng)
    first, second = workdir / f"{stem}a.json", workdir / f"{stem}b.json"
    first.write_text(json.dumps(_canonical_bracket(metric, q1)))
    second.write_text(json.dumps(_canonical_bracket(_times_u(metric), q2)))
    return Item("cli", ("central-invariant", str(first), str(second), "--json"),
                {"check": "central_invariant",
                 "c": f"(({_poly_text(q2)}) - u*({_poly_text(q1)}))"
                      f"/(3*({_poly_text(metric)})^2)"})


def known_defects(seed: int, workdir: Path) -> list[Item]:
    """Jobs that hit the two known defects of the program, with their known
    answers.  They are kept out of the timed workloads, whose jobs must all
    succeed, and are run by bench/selftest.py:

    - `verify deformation` with g' = 0 exits 1: its negative-control and
      printed-variant checks assume g' != 0;
    - `central-invariant` with a non-monomial metric exits 2: it divides by
      g^2 and can only invert a single-term expression.
    """
    rng = random.Random(f"defects:{seed}")
    items = [Item("cli", ("verify", "deformation", "--g", g, "--c", c, "--json"),
                  {"check": "verify_deformation", "g": g, "c": c})
             for g, c in (("3", "1/24"), ("1/2", "u"), ("3", "c"))]
    items += [_central_invariant_item(rng, Path(workdir), f"defect{k}", dict(metric))
              for k, metric in enumerate(NON_MONOMIAL_METRICS)]
    return items


def _gc_pairs(rng: random.Random, cycles: int, symbolic: tuple,
              small: bool) -> list[tuple[str, str]]:
    """Every g of G_POOL `cycles` times with a c from a shuffled cycle of
    C_POOL, then one job per entry of `symbolic` with that scalar symbolic."""
    gs = G_POOL * cycles
    if small:
        gs = [rng.choice(G_POOL)]
        symbolic = symbolic[:1]
    cs: list[str] = []
    while len(cs) < len(gs) + len(symbolic):
        cs += rng.sample(C_POOL, len(C_POOL))
    pairs = list(zip(gs, cs))
    for which, c in zip(symbolic, cs[len(gs):]):
        g = rng.choice(G_POOL)
        pairs.append(("g" if which in ("g", "both") else g,
                      "c" if which in ("c", "both") else c))
    return pairs


def _draw_poly(rng: random.Random) -> dict[int, Fraction]:
    poly = {}
    for power in range(rng.randint(1, 3)):
        coef = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 8]))
        poly[power + rng.randint(0, 1)] = coef
    return poly


# -- polynomials in u, for writing bracket files --------------------------------

def _poly_text(poly: dict[int, Fraction]) -> str:
    parts = [f"({c})*u^{k}" if k else f"({c})" for k, c in sorted(poly.items()) if c]
    return " + ".join(parts) or "0"


def _ddu(poly: dict[int, Fraction]) -> dict[int, Fraction]:
    return {k - 1: c * k for k, c in poly.items() if k and c}


def _times_u(poly: dict[int, Fraction]) -> dict[int, Fraction]:
    return {k + 1: c for k, c in poly.items()}


def _canonical_bracket(metric: dict, q: dict) -> dict:
    """m D + (1/2) m_x + eps^2 (skew part of Q D^3), all jets written out:
    Q D^3 + 3/2 Q_x D^2 + 3/2 Q_xx D + 1/2 Q_xxx with Q_x = Q' u1,
    Q_xx = Q'' u1^2 + Q' u2, Q_xxx = Q''' u1^3 + 3 Q'' u1 u2 + Q' u3."""
    d1, d2, d3 = _ddu(q), _ddu(_ddu(q)), _ddu(_ddu(_ddu(q)))
    p, p1, p2, p3 = (_poly_text(x) for x in (q, d1, d2, d3))
    terms = [(0, 1, _poly_text(metric)), (0, 0, f"1/2*({_poly_text(_ddu(metric))})*u1"),
             (2, 3, p), (2, 2, f"3/2*({p1})*u1"),
             (2, 1, f"3/2*(({p2})*u1^2 + ({p1})*u2)"),
             (2, 0, f"1/2*(({p3})*u1^3 + 3*({p2})*u1*u2 + ({p1})*u3)")]
    return {"coordinate": "u",
            "terms": [{"eps": e, "der": k, "coeff": t} for e, k, t in terms]}


# -- judging --------------------------------------------------------------------

def judge(item: Item, outcome) -> Verdict:
    """Compare one outcome with the item's known answer."""
    if isinstance(outcome, BaseException):
        return Verdict(True, False, ("raised", type(outcome).__name__, str(outcome)),
                       f"raised {type(outcome).__name__}: {outcome}")
    if item.kind != "cli":
        # Report items check identities that hold by theorem: every check passes.
        fingerprint = tuple((c.name, c.passed, c.residual, c.witness, c.detail)
                            for c in outcome.sorted_checks())
        ok = outcome.ok
        return Verdict(not ok, not ok, fingerprint, "" if ok else "a check failed")
    code, out, err = outcome
    fingerprint = (code, out, err)
    if not out:
        return Verdict(True, False, fingerprint, f"exit {code}: {err.strip()[:120]}")
    try:
        payload = json.loads(out)
    except ValueError:
        return Verdict(True, True, fingerprint, "output is not JSON")
    all_passed = all(c["passed"] for c in payload["checks"])
    try:
        right = _answer_holds(item.answer, payload)
    except (KeyError, IndexError):
        right = False   # the report lacks the check or value that carries the answer
    failed = code != 0 or not all_passed or not right
    note = "" if not failed else (f"exit {code}" + ("" if right else ", answer differs"))
    return Verdict(failed, not right, fingerprint, note)


def _answer_holds(answer: dict, payload: dict) -> bool:
    """Whether the checks that decide the known answer agree with it.  The
    other checks of the report only decide whether the item failed."""
    passed = {c["name"]: c["passed"] for c in payload["checks"]}
    details = {c["name"]: c.get("detail", "") for c in payload["checks"]}
    kind = answer["check"]
    if kind == "all_pass":
        return all(passed.values())
    # "valid cocycle": the cocycle and the generator checks pass.
    if kind == "verify_deformation":
        return bool(passed.get("cocycle_residuals")
                    and passed.get("generator_class_equality"))
    if kind == "deform":
        g, c = _scalar(answer["g"]), _scalar(answer["c"])
        doc = _document_terms(payload["document"])
        return bool(passed.get("cocycle") and passed.get("generator_class_equality")
                    and same_value(doc.get((0, 1), "0"), f"(u - lambda)*({g})")
                    and same_value(doc.get((2, 3), "0"), f"3*({c})*({g})^2"))
    if kind == "example":
        return all(same_value(details[check].split(" = ", 1)[1].split(" (")[0],
                              value, base)
                   for check, base, value in EXAMPLE_ANSWERS[answer["name"]])
    if kind == "miura":
        return _same_terms(_document_terms(payload["document"]),
                           _miura_answer(answer["which"], answer["order"]))
    if kind == "central_invariant":
        return same_value(details["central_invariant"].split(" = ", 1)[1], answer["c"])
    raise ValueError(f"no known answer of kind {kind!r}")


def _scalar(text: str) -> str:
    """A CLI scalar as an expression: a bare name is a function atom."""
    return f"{text}(u)" if text in ("g", "c") else text


def _document_terms(document: dict) -> dict:
    return {(t["eps"], t["der"]): t["coeff"] for t in document["terms"]}


def _miura_answer(which: str, order: int) -> dict:
    if which == "ch1":
        return {(0, 1): "1"}
    return {(n, k): f"({text})/(2*sqrt(2))^{n}"
            for (n, k), text in CH2_EXPANSION.items() if n <= order}


def _same_terms(got: dict, expected: dict) -> bool:
    return got.keys() == expected.keys() and all(
        same_value(got[key], expected[key]) for key in expected)


# -- exact evaluation in Q(sqrt 2) -----------------------------------------------
#
# Two expressions are taken as equal when they agree at two fixed rational
# points.  Every identifier (u, its jets, lambda, eps and each function atom
# such as g'(u)) gets an independent rational value at each point, so two
# different rational functions of these quantities agree at both points
# only by coincidence.  Numbers are pairs (a, b) meaning a + b sqrt(2).

_ATOM_RE = re.compile(r"D\[(\w+),(\d+)\]\(\w+\)|([A-Za-z_]\w*)('*)\(\w+\)")


def same_value(left: str, right: str, base: str = "u") -> bool:
    try:
        return all(_evaluate(left, base, point) == _evaluate(right, base, point)
                   for point in (1, 2))
    except (SyntaxError, KeyError, ValueError, ZeroDivisionError):
        return False


def _evaluate(text: str, base: str, point: int):
    def atom(m):
        if m.group(1):
            return f"F_{m.group(1)}_{m.group(2)}"
        name, primes = m.group(3), m.group(4)
        if name == "sqrt":
            return m.group(0)
        return f"F_{name}_{len(primes)}"

    source = _ATOM_RE.sub(atom, text).replace("^", "**")
    source = re.sub(r"\blambda\b", "lambda_", source)   # a Python keyword
    return _eval_node(ast.parse(source, mode="eval").body, base, point)


def _value(name: str, base: str, point: int) -> tuple:
    if name.startswith(base) and name != base and name[len(base):].isdigit():
        name = "u" + name[len(base):]   # jets of the coordinate
    elif name == base:
        name = "u"
    crc = zlib.crc32(f"{name}@{point}".encode())
    return Fraction(crc % 89 + 2, (crc >> 8) % 7 + 3), Fraction(0)


def _eval_node(node, base: str, point: int):
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value), Fraction(0)
    if isinstance(node, ast.Name):
        return _value(node.id, base, point)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        a, b = _eval_node(node.operand, base, point)
        return (-a, -b) if isinstance(node.op, ast.USub) else (a, b)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "sqrt" and len(node.args) == 1:
        arg = _eval_node(node.args[0], base, point)
        if arg == (Fraction(2), Fraction(0)):
            return Fraction(0), Fraction(1)
        raise ValueError("only sqrt(2) is evaluated")
    if isinstance(node, ast.BinOp):
        left = _eval_node(node.left, base, point)
        if isinstance(node.op, ast.Pow):
            exponent = _eval_node(node.right, base, point)
            if exponent[1] or exponent[0].denominator != 1:
                raise ValueError("non-integer power")
            return _power(left, int(exponent[0]))
        right = _eval_node(node.right, base, point)
        if isinstance(node.op, ast.Add):
            return left[0] + right[0], left[1] + right[1]
        if isinstance(node.op, ast.Sub):
            return left[0] - right[0], left[1] - right[1]
        if isinstance(node.op, ast.Mult):
            return _mul(left, right)
        if isinstance(node.op, ast.Div):
            return _mul(left, _inverse(right))
    raise ValueError(f"cannot evaluate {ast.dump(node)}")


def _mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _inverse(x):
    norm = x[0] * x[0] - 2 * x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def _power(x, n: int):
    if n < 0:
        return _power(_inverse(x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _mul(out, x)
    return out
