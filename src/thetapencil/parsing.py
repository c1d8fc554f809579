"""Expression grammar shared by the CLI and the bracket file formats.

Identifiers ``u``, ``lambda``, ``eps``; function application ``h(u)`` with
derivatives written as primes ``h'(u)``, ``h''(u)`` or as ``D[h,k](u)``;
``sqrt(<positive rational>)``; integer and rational literals ``p/q``;
operators ``+ - * / ^`` and parentheses.  Whitespace is insignificant.

Density coefficients additionally admit jet variables ``u1, u2, ...``
(``ux``, ``uxx`` are accepted aliases for ``u1``, ``u2``), named after the
bracket's coordinate when that is not ``u``, and the theta variables
``theta0, theta1, ...``.  A function symbol is any identifier that
`is_function_symbol` admits: none of RESERVED, the coordinate, a jet name
or a theta name.  Lattice bracket coefficients use the point atoms
``u(x)``, ``u(y)``, ``u(x+eps)``, ``u(x-2*eps)``, ... (`LatticeContext`).
This module alone decides which identifiers are atoms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .algebra import ThetaPoly
from .coeff import _ONE_KEY, CoeffExpr

RESERVED = ("u", "lambda", "eps", "sqrt", "log", "D", "x", "y")

# A power base^n is refused when |n| exceeds _MAX_EXPONENT, or when its term
# count could exceed _MAX_POWER_TERMS: n factors drawn from a base of t terms
# give at most comb(t + n - 1, n) distinct terms.
_MAX_EXPONENT = 100
_MAX_POWER_TERMS = 2_000
# A product a*b is refused when the term counts of a and b multiply to more
# than _MAX_PRODUCT_TERMS: that many coefficient products would be formed.
_MAX_PRODUCT_TERMS = 20_000

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_NAME})('*)|(.))")
_JET_TAIL_RE = re.compile(r"(\d+)|(x+)")
_THETA_RE = re.compile(r"theta(\d+)")


class ParseError(ValueError):
    """Syntax or symbol error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m or m.end() == i:
            raise ParseError("cannot tokenize", i)
        num, name, primes, op = m.groups()
        pos = m.start(1) if num else (m.start(2) if name else m.start(4))
        if num:
            tokens.append(("num", int(num), pos))
        elif name:
            tokens.append(("name", name, pos))
            if primes:
                tokens.append(("primes", len(primes), pos))
        elif op in "+-*/^()[],":
            tokens.append(("op", op, pos))
        else:
            raise ParseError(f"unexpected character {op!r}", m.start(4))
        i = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _term_count(value) -> int:
    """The number of flat terms of a parsed value, at least 1."""
    flat = getattr(value, "flat_terms", value.terms)
    return sum(1 for _ in flat()) or 1


class _Parser:
    """Recursive-descent parser; atom semantics are delegated to a context."""

    def __init__(self, text: str, context):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.ctx = context

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def expect_name(self) -> tuple[str, int]:
        kind, val, pos = self.next()
        if kind != "name":
            raise ParseError("expected an identifier", pos)
        return val, pos

    def parse(self):
        try:
            value = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", self.peek()[2]) from None
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val, opos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "*":
                    if _term_count(value) * _term_count(rhs) > _MAX_PRODUCT_TERMS:
                        raise ParseError(
                            f"product may exceed {_MAX_PRODUCT_TERMS} terms", opos)
                    value = value * rhs
                else:
                    pos = self.peek()[2]
                    try:
                        value = value / rhs
                    except ValueError as exc:
                        raise ParseError(str(exc), pos) from exc
            else:
                return value

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            n = self.exponent()
            if abs(n) > _MAX_EXPONENT:
                raise ParseError(f"exponent {n} exceeds {_MAX_EXPONENT}", pos)
            terms = _term_count(base)
            if comb(terms + abs(n) - 1, abs(n)) > _MAX_POWER_TERMS:
                raise ParseError(f"power may exceed {_MAX_POWER_TERMS} terms", pos)
            return base ** n
        return base

    def exponent(self) -> int:
        kind, val, pos = self.next()
        sign = 1
        parenthesized = False
        if kind == "op" and val == "(":
            parenthesized = True
            kind, val, pos = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        if parenthesized:
            self.expect_op(")")
        return sign * val

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return self.ctx.number(Fraction(val))
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        if kind == "name":
            if val == "D":
                return self._bracket_derivative(pos)
            order = 0
            kindp, nprimes, _ = self.peek()
            if kindp == "primes":
                self.next()
                order = nprimes
            kindp, valp, _ = self.peek()
            if kindp == "op" and valp == "(":
                self.next()
                return self.ctx.call(val, order, self, pos)
            if order:
                raise ParseError("derivative needs an argument list", pos)
            return self.ctx.name(val, pos)
        raise ParseError("expected a value", pos)

    def _bracket_derivative(self, pos: int):
        # D[f,k](u)
        self.expect_op("[")
        name, _ = self.expect_name()
        self.expect_op(",")
        kind, order, opos = self.next()
        if kind != "num":
            raise ParseError("expected a derivative order", opos)
        self.expect_op("]")
        self.expect_op("(")
        return self.ctx.call(name, order, self, pos)


def _jet_index(name: str, coordinate: str) -> int | None:
    """s for a jet name: the coordinate or u followed by the digits of s or
    by s x's (u1, ux, w2); None for any other name."""
    for base in (coordinate, "u"):
        m = name.startswith(base) and _JET_TAIL_RE.fullmatch(name, len(base))
        if m:
            return int(m[1]) if m[1] else len(m[2])
    return None


def is_function_symbol(name: str, coordinate: str = "u") -> bool:
    """The one rule for function symbols: an identifier that is neither in
    RESERVED, nor the coordinate, nor a jet name, nor a theta name."""
    return (_NAME_RE.fullmatch(name) is not None and name not in RESERVED
            and name != coordinate and _jet_index(name, coordinate) is None
            and not _THETA_RE.fullmatch(name))


def check_coordinate(name: str, functions=()) -> None:
    """Raise ValueError unless name is u or reads as a function symbol (the
    one rule for coordinates), and every name in `functions` still does."""
    if name != "u" and not is_function_symbol(name):
        raise ValueError(f"coordinate {name!r} is neither u nor a function symbol")
    for func in functions:
        if not is_function_symbol(func, name):
            raise ValueError(f"function {func!r} reads as coordinate {name!r} or its jet")


class ScalarContext:
    """Atoms of the plain coefficient grammar, valued in CoeffExpr."""

    def __init__(self, coordinate: str = "u"):
        self.coordinate = coordinate

    def scalar(self, value) -> CoeffExpr:
        return value

    def number(self, value: Fraction) -> CoeffExpr:
        return CoeffExpr.rational(value)

    def name(self, name: str, pos: int) -> CoeffExpr:
        if name == self.coordinate or name == "u":
            return CoeffExpr.var_u()
        if name == "lambda":
            return CoeffExpr.var_lambda()
        if name == "eps":
            return CoeffExpr.var_eps()
        raise ParseError(f"unknown symbol {name!r}", pos)

    def call(self, name: str, order: int, parser: _Parser, pos: int) -> CoeffExpr:
        if name == "sqrt":
            arg = parser.expr()
            parser.expect_op(")")
            try:
                return CoeffExpr.sqrt(self.scalar(arg).as_fraction())
            except ValueError as exc:
                raise ParseError(str(exc), pos) from exc
        if not is_function_symbol(name, self.coordinate):
            raise ParseError(f"{name!r} is not a function symbol", pos)
        arg_name, apos = parser.expect_name()
        if arg_name != self.coordinate and arg_name != "u":
            raise ParseError(f"function argument must be {self.coordinate!r}", apos)
        parser.expect_op(")")
        return CoeffExpr.func(name, order)


def parse_coeff(text: str) -> CoeffExpr:
    """Parse a plain scalar expression."""
    return _Parser(text, ScalarContext()).parse()


# -- rendering ---------------------------------------------------------

def _render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_power(base: str, exp: int) -> str:
    if exp == 1:
        return base
    return f"{base}^{exp}" if exp > 1 else f"{base}^({exp})"


def _func_atom(name: str, order: int, base_name: str) -> str:
    if order == 0:
        return f"{name}({base_name})"
    if order <= 3:
        return f"{name}{chr(39) * order}({base_name})"
    return f"D[{name},{order}]({base_name})"


def render_term(key, coef: Fraction, base_name: str = "u") -> tuple[bool, str]:
    """Render one term key; returns (negative, unsigned string)."""
    rad, u_pow, lam, eps, log, _, funcs = key
    factors = []
    mag = abs(coef)
    if rad != 1:
        factors.append(f"sqrt({rad})")
    if u_pow:
        factors.append(_render_power(base_name, u_pow))
    if lam:
        factors.append(_render_power("lambda", lam))
    if eps:
        factors.append(_render_power("eps", eps))
    if log:
        factors.append(_render_power(f"log({base_name}1)", log))
    for (name, order), exp in funcs:
        factors.append(_render_power(_func_atom(name, order, base_name), exp))
    if not factors:
        return coef < 0, _render_fraction(mag)
    body = "*".join(factors)
    if mag != 1:
        body = f"{_render_fraction(mag)}*{body}"
    return coef < 0, body


def _join(parts) -> str:
    """'a - b + c' from (negative, unsigned string) pairs; '0' for none."""
    text = " ".join(f"{'-' if neg else '+'} {body}" for neg, body in parts)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render_coeff(e: CoeffExpr, base_name: str = "u") -> str:
    return _join(render_term(key, coef, base_name)
                 for key, coef in sorted(e.terms(), key=lambda t: t[0]))


# -- densities (differential polynomials with jets) ----------------------

class DensityContext(ScalarContext):
    """Atoms of the density grammar, valued in p = 0 ThetaPoly elements:
    thetas and jets, then the scalar atoms lifted."""

    def scalar(self, value) -> CoeffExpr:
        return value.as_coeff()

    def number(self, value: Fraction):
        return ThetaPoly.from_coeff(super().number(value))

    def name(self, name: str, pos: int):
        m = _THETA_RE.fullmatch(name)
        if m:
            return ThetaPoly.theta(int(m[1]))
        index = _jet_index(name, self.coordinate)
        if index:
            return ThetaPoly.jet(index)
        return ThetaPoly.from_coeff(super().name(name, pos))

    def call(self, name: str, order: int, parser: _Parser, pos: int):
        return ThetaPoly.from_coeff(super().call(name, order, parser, pos))


def parse_density(text: str, coordinate: str = "u"):
    """Parse a differential-polynomial expression (jets and thetas allowed)."""
    return _Parser(text, DensityContext(coordinate)).parse()


def render_poly(p, base_name: str = "u") -> str:
    """Canonical flat rendering of a ThetaPoly, parseable by parse_density."""
    parts = []
    for mono, key, q in sorted(p.flat_terms(),
                               key=lambda t: (t[0].odds, t[0].evens, t[1])):
        neg, body = render_term(key, q, base_name)
        factors = [] if body == "1" else [body]
        factors += [_render_power(f"{base_name}{s}", e) for s, e in mono.evens]
        factors += [f"theta{s}" for s in mono.odds]
        parts.append((neg, "*".join(factors) or "1"))
    return _join(parts)


# -- lattice coefficients (point values) -----------------------------------------

class LatticeContext(ScalarContext):
    """Atoms of lattice coefficients: rationals and the point values
    u(x + a eps), u(y + b eps), held as the formal atoms x^(a)(u), y^(b)(u)."""

    def name(self, name: str, pos: int) -> CoeffExpr:
        raise ParseError(f"unknown symbol {name!r} (point atoms are written"
                         f" like {self.coordinate}(x))", pos)

    def call(self, name: str, order: int, parser: _Parser, pos: int) -> CoeffExpr:
        if name not in (self.coordinate, "u") or order:
            raise ParseError(f"unknown symbol {name!r}", pos)
        side, spos = parser.expect_name()
        if side not in ("x", "y"):
            raise ParseError("point must be x or y", spos)
        kind, sign, _ = parser.peek()
        shift = 0
        if kind == "op" and sign in "+-":
            parser.next()
            kind, shift, _ = parser.peek()
            if kind == "num":
                parser.next()
                parser.expect_op("*")
            else:
                shift = 1
            ename, epos = parser.expect_name()
            if ename != "eps":
                raise ParseError("expected a shift like eps or 2*eps", epos)
            shift = shift if sign == "+" else -shift
        parser.expect_op(")")
        return CoeffExpr.func(side, shift)


def parse_lattice_coeff(text: str, coordinate: str = "u") -> CoeffExpr:
    """A polynomial in the point atoms; only rational constants divide."""
    coeff = _Parser(text, LatticeContext(coordinate)).parse()
    for key, _ in coeff.terms():
        if key[:6] != _ONE_KEY[:6] or any(e < 0 for _, e in key[6]):
            raise ValueError(f"lattice coefficient {text!r} is not a "
                             "polynomial in the point values")
    return coeff
