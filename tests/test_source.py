"""Source-level rules for the package."""

import argparse
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


def test_one_refusal_type():
    """`NotExact` is the one refusal of exactness.  No class subclasses it;
    `undo_top_bump` and `_undo_group` return None rather than raise;
    and `raise NotExact` appears at most twice, each in a function that
    judges the remainder of `_peel`."""
    found, raises = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "NotExact"
                    for base in node.bases):
                found.append(f"{path.name}:{node.lineno} subclasses NotExact")
            if not isinstance(node, ast.FunctionDef):
                continue
            inner = list(ast.walk(node))
            if node.name in ("undo_top_bump", "_undo_group"):
                found += [f"{path.name}:{n.lineno} raises in {node.name}"
                          for n in inner if isinstance(n, ast.Raise)]
            peels = any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_peel"
                        for n in inner)
            for n in inner:
                if (isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                        and getattr(n.exc.func, "id", None) == "NotExact"):
                    raises.add(f"{path.name}:{n.lineno}")
                    if not peels:
                        found.append(f"{path.name}:{n.lineno} raises NotExact off a peel")
    assert not found, found
    assert len(raises) <= 2, sorted(raises)


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


def test_one_homotopy_table():
    """The homotopy reads one resolvent table; the h table, the series loop
    and the per-degree caps it replaced stay gone."""
    gone = {"_h_rows", "_caps", "_homotopy_of"}
    found = []
    for node in ast.walk(ast.parse((SOURCE / "spectral.py").read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) \
            or getattr(node, "name", None)
        if isinstance(node, ast.While) or name in gone:
            found.append(f"{name or 'while'}:{node.lineno}")
    assert not found, found


def test_one_step_cap():
    """`_peel` is the one division: on u1 it undoes c(u) one function-atom
    group at a time, so the second division `integrate_in_u`, its step
    generator `_steps`, and the candidate closure, the elimination and the
    candidate stop of the ansatz before it stay gone.  `_MAX_PEEL_STEPS` is
    the one step cap: it is the one `_MAX_` name that bounds a `range`, and
    that `range` is the loop of `_peel`."""
    def calls(node, name):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == name]

    gone = {"_lowerings", "_eliminate", "_MAX_CANDIDATES", "integrate_in_u", "_steps"}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    found = [f"{path}:{name}:{node.lineno}" for path, tree in trees.items()
             for node in ast.walk(tree)
             for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                          or getattr(node, "name", None)]
             if name in gone]
    caps = [f"{path}:{func.name}:{n.id}"
            for path, tree in trees.items()
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for call in calls(func, "range") for n in ast.walk(call)
            if isinstance(n, ast.Name) and n.id.startswith("_MAX_")]
    loops = {func.name for func in ast.walk(trees["operators.py"])
             if isinstance(func, ast.FunctionDef)
             for loop in ast.walk(func)
             if isinstance(loop, ast.For) and loop.iter in calls(loop, "range")
             and any(getattr(n, "id", None) == "_MAX_PEEL_STEPS" for n in ast.walk(loop.iter))}
    assert not found, found
    assert caps == ["operators.py:_peel:_MAX_PEEL_STEPS"], caps
    assert loops == {"_peel"}, loops


def test_one_projection():
    """The lazy table dispatch and the `split_uvw` wrapper stay gone, and a
    chain is projected to a body once, inside `_at_u`; products of bodies
    are not projected again."""
    def projections(node):
        return {n for n in ast.walk(node)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_project_body"}

    gone = {"_derivative", "_v_multipliers", "_chains", "split_uvw"}
    tree = ast.parse((SOURCE / "spectral.py").read_text())
    found = [f"{name}:{node.lineno}" for node in ast.walk(tree)
             for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                          or getattr(node, "name", None)]
             if name in gone]
    at_u, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_at_u"]
    found += [f"_project_body:{n.lineno}" for n in projections(tree) - projections(at_u)]
    assert not found, found
    assert projections(at_u)


def test_the_split_builds_no_per_s_table_at_construction():
    """`UVWSplit.__post_init__` leaves each per-s quantity to a cached
    function, built on first use: outside a lambda it runs no comprehension
    over a `range`."""
    def eager(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.Lambda):
                yield child
                yield from eager(child)

    tree = ast.parse((SOURCE / "spectral.py").read_text())
    split, = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "UVWSplit"]
    init, = [f for f in split.body
             if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
    found = [f"spectral.py:{node.lineno}" for node in eager(init)
             if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
             and any(isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None)
                     == "range" for gen in node.generators)]
    assert not found, found


def test_one_page_one_door():
    """Each public map of `UVWSplit` enters through `_class_body`, the one
    place a body is checked; the page-one shape is written once, in
    `spectral._is_body` (the one `has_odd(0)` of `spectral.py`), and
    `checks.py` takes its bases from `page_one_basis`."""
    def calls(node, attr):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "attr", getattr(n.func, "id", None)) == attr]

    def theta0_tests(node):
        return [n for n in calls(node, "has_odd")
                if [getattr(a, "value", None) for a in n.args] == [0]]

    tree = ast.parse((SOURCE / "spectral.py").read_text())
    split, = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "UVWSplit"]
    methods = {f.name: f for f in split.body if isinstance(f, ast.FunctionDef)}
    found = [name for name in ("d1", "homotopy", "u_apply", "u_inverse", "v_apply", "w_apply")
             if not calls(methods[name], "_class_body")]
    is_body, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_is_body"]
    found += [f"spectral.py:{n.lineno}" for n in theta0_tests(tree)
              if n not in theta0_tests(is_body)]
    checks = ast.parse((SOURCE / "checks.py").read_text())
    found += [f"checks.py:{n.lineno}" for n in ast.walk(checks)
              if isinstance(n, ast.FunctionDef) and n.name == "_page_one_basis"]
    found += [f"checks.py:{n.lineno}" for n in theta0_tests(checks)]
    assert not found, found
    assert theta0_tests(is_body)


def test_one_lexicographic_order():
    """The lexicographic order is one sort key, `algebra.lex_key`: no module
    defines or imports the pairwise `lex_compare`; `_leading` and `_peel`
    take the polynomial itself and call no `flat_terms`; and the selector
    of `pencil._strip_extension` reads a log(u1) power, not a term key."""
    def functions(path):
        return {f.name: f for f in ast.walk(ast.parse((SOURCE / path).read_text()))
                if isinstance(f, ast.FunctionDef)}

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.FunctionDef) and node.name == "lex_compare")
             or (isinstance(node, ast.alias) and node.name == "lex_compare")]
    operators = functions("operators.py")
    found += [f"operators.py:{name}:{n.lineno}" for name in ("_leading", "_peel")
              for n in ast.walk(operators[name])
              if isinstance(n, ast.Attribute) and n.attr == "flat_terms"]
    selectors = [n for n in ast.walk(functions("pencil.py")["_strip_extension"])
                 if isinstance(n, ast.Lambda)]
    found += [f"pencil.py:{n.lineno}" for sel in selectors for n in ast.walk(sel)
              if isinstance(n, ast.Subscript)]
    assert not found, found
    assert selectors


def test_the_cli_only_parses_and_emits():
    """`checks.py` builds every report: `cli.py` defines no `_cmd_` function,
    constructs no `Report`, times no check and reads no `args.what`, and
    `main` is its one call of `_emit`.  Every leaf of `build_parser()` has a
    `run` default, so a command is one subparser and one `run` line."""
    from thetapencil.cli import build_parser

    def leaves(parser, path=()):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, path + (name,))

    tree = ast.parse((SOURCE / "cli.py").read_text())
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"))
             or (isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 in ("Report", "timed"))
             or (isinstance(node, ast.Attribute) and node.attr == "what")]
    main, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"]
    emits = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_emit"]
    paths = dict(leaves(build_parser()))
    missing = [" ".join(path) for path, leaf in paths.items()
               if not callable(leaf.get_default("run"))]
    assert not found, found
    assert emits == [n.lineno for n in ast.walk(main)
                     if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_emit"]
    assert len(emits) == 1, emits
    assert {("verify", "operators"), ("example",), ("miura",)} <= set(paths)
    assert not missing, missing


def test_each_bracket_property_is_decided_once():
    """Skewness is a check of the report layer: no function of `pencil.py`
    calls `is_skew`.  The hydrodynamic form g d' + 1/2 g' u1 d is written
    once, as `pencil.hydrodynamic_bracket`, and no other module defines or
    re-exports it."""
    pencil = ast.parse((SOURCE / "pencil.py").read_text())
    found = [f"pencil.py:{n.lineno}" for n in ast.walk(pencil)
             if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "is_skew"]
    found += [f"{path.name}:{node.lineno}"
              for path in sorted(SOURCE.glob("*.py")) if path.name != "pencil.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "hydrodynamic_bracket"]
    fixtures = ast.parse((SOURCE / "fixtures.py").read_text())
    found += [f"fixtures.py:{n.lineno}" for n in ast.walk(fixtures)
              if isinstance(n, ast.alias) and n.name == "hydrodynamic_bracket"]
    assert not found, found
    assert [n.name for n in pencil.body if isinstance(n, ast.FunctionDef)
            ].count("hydrodynamic_bracket") == 1
