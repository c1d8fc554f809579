"""Source-level rules for the package."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "thetapencil"


def test_no_assert_statements():
    """`python -O` strips assert statements, so checks must raise."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_true_division_of_an_int_literal():
    """Coefficients are ints when integral, and `1 / x` of an int x is a
    float; exact code writes `Fraction(1) / x`."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
             and isinstance(node.left, ast.Constant) and type(node.left.value) is int]
    assert not found, found


def test_tracer_targets_resolve():
    """bench/tracer.py wraps these names; each must exist where
    `Tracer.install` looks it up."""
    import importlib
    import importlib.util

    path = SOURCE.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, owner_name, attr, _key in tracer.TARGETS:
        module = importlib.import_module(f"thetapencil.{mod_name}")
        if owner_name is None:
            target = getattr(module, attr, None)
        else:
            target = vars(getattr(module, owner_name, object)).get(attr)
        if not callable(target):
            missing.append(f"{mod_name}.{owner_name or ''}.{attr}")
    assert not missing, missing


def test_coeff_builds_fractions_only_at_its_edges():
    """CoeffExpr computes on int numerators over one denominator; a
    Fraction is built only where a value enters or leaves that form."""
    allowed = {"rational", "sqrt", "inverse", "terms", "as_fraction"}
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and owner not in allowed:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Fraction":
                found.append(f"{owner}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((SOURCE / "coeff.py").read_text()), None)
    assert not found, found


def test_one_peel_loop():
    """Exactness is reduced by one leading-term peel, `operators._peel`;
    a second loop elsewhere would name its pieces."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py")) if path.name != "operators.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id in ("_leading", "undo_top_bump"))
             or (isinstance(node, ast.Attribute) and node.attr in ("_leading", "undo_top_bump"))
             or (isinstance(node, ast.alias) and node.name in ("_leading", "undo_top_bump"))]
    assert not found, found


def test_one_reduction_loop():
    """Reduction modulo total derivatives lives in `operators.py`, in the
    Euler operators and `_peel`; no `while` loop elsewhere subtracts a
    total derivative."""
    def subtracts_a_derivative(node):
        if not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Sub)):
            return False
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "total_derivative"
                   for n in ast.walk(node.right if isinstance(node, ast.BinOp) else node.value))

    found = [f"{path.name}:{loop.lineno}"
             for path in sorted(SOURCE.glob("*.py")) if path.name != "operators.py"
             for loop in ast.walk(ast.parse(path.read_text()))
             if isinstance(loop, ast.While) and any(map(subtracts_a_derivative, ast.walk(loop)))]
    assert not found, found


def test_u1_powers_are_monomial_exponents():
    """A power of u1 is a monomial exponent only: no module names the
    retired extended mode, its folding or a coefficient-held u1 power, and
    only `coeff.py` subscripts a term key at its reserved slot 5."""
    retired = {"extended", "_fold_entry", "u1_power", "du1_atoms"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "arg", "name")}
            if names & retired:
                found.append(f"{path.name}:{node.lineno} {sorted(names & retired)}")
            if (path.name != "coeff.py" and isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant) and node.slice.value == 5):
                found.append(f"{path.name}:{node.lineno} [5]")
    assert not found, found


def test_symbolic_defaults_are_not_none():
    """A g or c parameter defaults to `coeff.G` or `coeff.C`, the one
    decision of the symbolic metric and central invariant, never to None."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += list(zip(args.kwonlyargs, args.kw_defaults))
            found += [f"{path.name}:{node.lineno} {node.name}({arg.arg}=None)"
                      for arg, default in pairs
                      if arg.arg in ("g", "c") and isinstance(default, ast.Constant)
                      and default.value is None]
    assert not found, found


def test_one_grammar_module():
    """`parsing.py` alone decides which identifiers are atoms: no other
    module imports `re` or names the parser or its error.  The package
    `__init__.py` only re-exports `ParseError` as public API."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             if path.name not in ("parsing.py", "__init__.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Import) and any(a.name == "re" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "re")
             or (isinstance(node, ast.Name) and node.id in ("_Parser", "ParseError"))
             or (isinstance(node, ast.Attribute) and node.attr in ("_Parser", "ParseError"))
             or (isinstance(node, ast.alias) and node.name in ("_Parser", "ParseError"))]
    assert not found, found
