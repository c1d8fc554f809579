"""The graded algebra of differential polynomials with odd generators.

Elements are finite sums of monomials in the even jet variables u1, u2, ...
and the odd variables theta0, theta1, ... with `CoeffExpr` coefficients
(which carry the dependence on u = u0, lambda and eps).  Two gradations:
the standard degree d counts jet indices, the super degree p counts odd
factors.  The total derivative shifts every jet index up by one and acts
on coefficients through d/du against u1.

The logarithmic generator adds two extension atoms, each with u1 read as
an opaque positive quantity: log(u1), held by the coefficients, and
negative powers of u1, held by the monomials as a negative exponent at jet
index 1 (and only there).  A power of u1 thus lives in one place, the
monomial, and the algebra has one mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .coeff import CoeffExpr


@dataclass(frozen=True, slots=True)
class Monomial:
    """A signed-normalized monomial: thetas stored in increasing index order,
    and positive jet exponents, except that u1 may carry a negative one.
    The hash is computed once, at construction, and kept in a slot."""

    evens: tuple[tuple[int, int], ...] = ()   # sorted (jet index >= 1, exponent != 0)
    odds: tuple[int, ...] = ()                # sorted distinct theta indices >= 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.evens, self.odds)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT

    @staticmethod
    def jet(s: int, exp: int = 1) -> "Monomial":
        if s < 1 or exp == 0 or (exp < 0 and s != 1):
            raise ValueError(f"u{s}^{exp} is not a jet factor: only u1 takes a negative power")
        return Monomial(((s, exp),), ())

    @staticmethod
    def theta(s: int) -> "Monomial":
        if s < 0:
            raise ValueError("theta index must be nonnegative")
        return Monomial((), (s,))

    def degree_d(self) -> int:
        return sum(s * e for s, e in self.evens) + sum(self.odds)

    def degree_p(self) -> int:
        return len(self.odds)

    def max_jet(self) -> int:
        top = 0
        if self.evens:
            top = self.evens[-1][0]
        if self.odds:
            top = max(top, self.odds[-1])
        return top

    def even_exp(self, s: int) -> int:
        for t, e in self.evens:
            if t == s:
                return e
        return 0

    def has_odd(self, s: int) -> bool:
        return s in self.odds

    def weight(self) -> Fraction:
        """Sum of (s+2)/2 per u^s factor and (s-1)/2 per theta^s factor."""
        return Fraction(sum((s + 2) * e for s, e in self.evens)
                        + sum(s - 1 for s in self.odds), 2)

    def with_even(self, s: int, exp: int) -> "Monomial":
        """Copy with the u^s exponent set to exp (removed when exp == 0);
        only u1 may take a negative exponent."""
        if exp < 0 and s != 1:
            raise ValueError(f"u{s}^{exp} is not a jet factor: only u1 takes a negative power")
        items = [(t, e) for t, e in self.evens if t != s]
        if exp:
            items.append((s, exp))
        return Monomial(tuple(sorted(items)), self.odds)

    def without_odd(self, s: int) -> tuple[int, "Monomial"]:
        """Remove theta^s; returns (sign of the left derivative, monomial)."""
        pos = self.odds.index(s)
        sign = -1 if pos % 2 else 1
        return sign, Monomial(self.evens, self.odds[:pos] + self.odds[pos + 1:])

    def replace_odd(self, s: int, t: int) -> "Monomial | None":
        """Replace theta^s by theta^t (an index-adjacent move, so no sign);
        None if theta^t is already present."""
        if t in self.odds:
            return None
        odds = tuple(sorted([x for x in self.odds if x != s] + [t]))
        return Monomial(self.evens, odds)

    def __repr__(self) -> str:
        parts = [f"u{s}^{e}" if e != 1 else f"u{s}" for s, e in self.evens]
        parts += [f"theta{s}" for s in self.odds]
        return "*".join(parts) if parts else "1"


_UNIT = Monomial((), ())
# u2/u1 = D log(u1).
D_LOG_U1 = Monomial(((1, -1), (2, 1)), ())


def mul_monomials(a: Monomial, b: Monomial) -> tuple[int, Monomial | None]:
    """Product with Koszul sign; None when a repeated theta kills it."""
    # Most products have a side without thetas or without evens; such a side
    # needs no sign count or exponent merge.
    sign, odds = 1, a.odds or b.odds
    if a.odds and b.odds:
        if set(a.odds) & set(b.odds):
            return 0, None
        inversions = 0
        for x in b.odds:
            inversions += sum(1 for y in a.odds if y > x)
        sign, odds = (-1 if inversions % 2 else 1), tuple(sorted(a.odds + b.odds))
    if not (a.evens and b.evens):
        return sign, Monomial(a.evens or b.evens, odds)
    evens: dict[int, int] = dict(a.evens)
    for s, e in b.evens:
        evens[s] = evens.get(s, 0) + e
    if evens.get(1) == 0:   # u1^k u1^-k
        del evens[1]
    return sign, Monomial(tuple(sorted(evens.items())), odds)


def lex_compare(a: Monomial, b: Monomial) -> int:
    """Lexicographic order via the multiindex (..., j1, i1, j0).
    Returns -1, 0 or 1."""
    top = max(a.max_jet(), b.max_jet(), 1)
    for s in range(top, 0, -1):
        ja, jb = a.has_odd(s), b.has_odd(s)
        if ja != jb:
            return 1 if ja else -1
        ia, ib = a.even_exp(s), b.even_exp(s)
        if ia != ib:
            return 1 if ia > ib else -1
    ja, jb = a.has_odd(0), b.has_odd(0)
    if ja != jb:
        return 1 if ja else -1
    return 0


class ThetaPoly:
    """Finite association monomial -> coefficient, canonically normalized."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, CoeffExpr] = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                _accumulate(clean, mono, coeff)
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "ThetaPoly":
        return ThetaPoly()

    @staticmethod
    def from_coeff(c: CoeffExpr) -> "ThetaPoly":
        return ThetaPoly({_UNIT: c})

    @staticmethod
    def one() -> "ThetaPoly":
        return ThetaPoly.from_coeff(CoeffExpr.one())

    @staticmethod
    def jet(s: int, exp: int = 1) -> "ThetaPoly":
        return ThetaPoly({Monomial.jet(s, exp): CoeffExpr.one()})

    @staticmethod
    def theta(s: int) -> "ThetaPoly":
        return ThetaPoly({Monomial.theta(s): CoeffExpr.one()})

    @staticmethod
    def monomial(m: Monomial, c: CoeffExpr = CoeffExpr.one()) -> "ThetaPoly":
        return ThetaPoly({m: c})

    # -- basic structure -------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, CoeffExpr]]:
        return iter(self._terms.items())

    def monomials(self) -> Iterable[Monomial]:
        return self._terms.keys()

    def coefficient(self, m: Monomial) -> CoeffExpr:
        return self._terms.get(m, CoeffExpr.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self._terms.items()))

    def __add__(self, other: "ThetaPoly") -> "ThetaPoly":
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            _accumulate(out, m, c)
        return _wrap(out)

    def __sub__(self, other: "ThetaPoly") -> "ThetaPoly":
        return self + (-other)

    def __neg__(self) -> "ThetaPoly":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "ThetaPoly":
        if isinstance(other, (int, Fraction)):
            other = CoeffExpr.rational(other)
        if isinstance(other, CoeffExpr):
            out: dict[Monomial, CoeffExpr] = {}
            for m, c in self._terms.items():
                _accumulate(out, m, c * other)
            return _wrap(out)
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                sign, mono = mul_monomials(m1, m2)
                if mono is None:
                    continue
                c = c1 * c2
                _accumulate(out, mono, -c if sign < 0 else c)
        return _wrap(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CoeffExpr)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "ThetaPoly":
        if not isinstance(n, int):
            raise TypeError("only integer powers are defined")
        if n < 0:
            if len(self._terms) == 1 and _UNIT in self._terms:
                return ThetaPoly.from_coeff(self._terms[_UNIT] ** n)
            raise ValueError("negative powers need a scalar base")
        out = ThetaPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other) -> "ThetaPoly":
        if isinstance(other, (int, Fraction)):
            other = CoeffExpr.rational(other)
        if isinstance(other, ThetaPoly):
            if len(other._terms) == 1 and _UNIT in other._terms:
                other = other._terms[_UNIT]
            else:
                raise ValueError("can only divide by a scalar expression")
        if not isinstance(other, CoeffExpr):
            return NotImplemented
        return self * other.inverse()

    def __repr__(self) -> str:
        return f"ThetaPoly({self.render()})"

    # -- gradations -------------------------------------------------------

    def bidegree_components(self) -> dict[tuple[int, int], "ThetaPoly"]:
        """Split into (d, p)-homogeneous parts; u1^-k counts -k toward d."""
        out: dict[tuple[int, int], dict] = {}
        for mono, coeff in self._terms.items():
            out.setdefault((mono.degree_d(), mono.degree_p()), {})[mono] = coeff
        return {dp: _wrap(t) for dp, t in out.items()}

    def max_jet(self) -> int:
        """The largest jet index; log(u1) counts as index 1."""
        top = 0
        for mono, coeff in self._terms.items():
            t = mono.max_jet()
            if coeff.has_extension_atoms():
                t = max(t, 1)
            top = max(top, t)
        return top

    def flat_terms(self) -> Iterator[tuple[Monomial, tuple, Fraction]]:
        for mono, coeff in self._terms.items():
            for key, q in coeff.terms():
                yield mono, key, q

    # -- lambda / eps ------------------------------------------------------

    def lambda_degree(self) -> int:
        return max((c.lambda_degree() for c in self._terms.values()), default=0)

    def lambda_coefficient(self, power: int) -> "ThetaPoly":
        return self._map_coeff(lambda c: c.lambda_coefficient(power))

    def subst_lambda(self, value: CoeffExpr) -> "ThetaPoly":
        return self._map_coeff(lambda c: c.subst_lambda(value))

    def eps_degree(self) -> int:
        return max((c.eps_degree() for c in self._terms.values()), default=0)

    def eps_coefficient(self, power: int) -> "ThetaPoly":
        return self._map_coeff(lambda c: c.eps_coefficient(power))

    def eps_components(self) -> dict[int, "ThetaPoly"]:
        return {e: self.eps_coefficient(e) for e in range(self.eps_degree() + 1)
                if not self.eps_coefficient(e).is_zero()}

    def _map_coeff(self, f) -> "ThetaPoly":
        return ThetaPoly((m, f(c)) for m, c in self._terms.items())

    # -- calculus ----------------------------------------------------------

    def total_derivative(self) -> "ThetaPoly":
        out: dict = {}
        for mono, coeff in self._terms.items():
            # jet factors u^s -> u^{s+1}
            for s, e in mono.evens:
                lowered = mono.with_even(s, e - 1)
                sign, bumped = mul_monomials(lowered, Monomial.jet(s + 1))
                _accumulate(out, bumped, coeff * e * sign)
            # theta^s -> theta^{s+1}
            for s in mono.odds:
                replaced = mono.replace_odd(s, s + 1)
                if replaced is not None:
                    _accumulate(out, replaced, coeff)
            # chain rule through the coefficient's u dependence
            dc = coeff.ddu()
            if not dc.is_zero():
                sign, bumped = mul_monomials(mono, Monomial.jet(1))
                _accumulate(out, bumped, dc * sign)
            if coeff.has_extension_atoms():
                _accumulate(out, mul_monomials(mono, D_LOG_U1)[1], coeff.dlog())
        return _wrap(out)

    def du(self, s: int) -> "ThetaPoly":
        """Partial derivative in u^s; s = 0 differentiates the coefficients."""
        out: dict = {}
        if s == 0:
            for mono, coeff in self._terms.items():
                _accumulate(out, mono, coeff.ddu())
            return _wrap(out)
        for mono, coeff in self._terms.items():
            e = mono.even_exp(s)
            if e:
                _accumulate(out, mono.with_even(s, e - 1), coeff * e)
            if s == 1 and coeff.has_extension_atoms():
                # d/du1 log(u1) = 1/u1
                _accumulate(out, mono.with_even(1, e - 1), coeff.dlog())
        return _wrap(out)

    def dtheta(self, s: int) -> "ThetaPoly":
        """Left graded derivative in theta^s."""
        out: dict = {}
        for mono, coeff in self._terms.items():
            if mono.has_odd(s):
                sign, reduced = mono.without_odd(s)
                _accumulate(out, reduced, coeff * sign)
        return _wrap(out)

    def has_extension_atoms(self) -> bool:
        """Whether a term holds log(u1) or a negative power of u1."""
        return any(c.has_extension_atoms() or m.even_exp(1) < 0
                   for m, c in self._terms.items())

    # -- conversion -----------------------------------------------------------

    def as_coeff(self) -> CoeffExpr:
        """A jet-free, theta-free polynomial as a plain scalar expression."""
        out = CoeffExpr.zero()
        for mono, coeff in self._terms.items():
            if mono != _UNIT:
                raise ValueError("not a function of u alone: " + self.render())
            out = out + coeff
        return out

    def render(self, base_name: str = "u") -> str:
        from .parsing import render_poly
        return render_poly(self, base_name)


def sum_polys(parts: Iterable[ThetaPoly]) -> ThetaPoly:
    """The sum of the parts, accumulated into one dict."""
    out: dict = {}
    for part in parts:
        for m, c in part._terms.items():
            _accumulate(out, m, c)
    return _wrap(out)


def derivative_chain(seed: ThetaPoly):
    """s -> the s-th total derivative of seed, each computed once, on demand."""
    ders = [seed]

    def nth(s: int) -> ThetaPoly:
        while len(ders) <= s:
            ders.append(ders[-1].total_derivative())
        return ders[s]
    return nth


def _accumulate(store: dict, mono: Monomial, coeff: CoeffExpr):
    """Add coeff * mono to store."""
    if coeff.is_zero():
        return
    prev = store.get(mono)
    total = coeff if prev is None else prev + coeff
    if total.is_zero():
        store.pop(mono, None)
    else:
        store[mono] = total


def _wrap(terms: dict) -> ThetaPoly:
    poly = ThetaPoly.__new__(ThetaPoly)
    poly._terms = terms
    return poly


# -- basis enumeration ------------------------------------------------------

def _partitions(total: int, max_part: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Multisets of parts in [1, max_part] summing to total, as (part, mult)."""
    if total == 0:
        yield ()
        return
    if max_part < 1:
        return
    for part in range(min(total, max_part), 0, -1):
        for mult in range(total // part, 0, -1):
            for rest in _partitions(total - part * mult, part - 1):
                yield ((part, mult),) + rest


def _odd_subsets(budget: int, max_index: int, size: int | None) -> Iterator[tuple[int, ...]]:
    def rec(start: int, left: int, chosen: tuple[int, ...]):
        if size is None:
            yield chosen
        elif len(chosen) == size:
            yield chosen
            return
        for s in range(start, max_index + 1):
            if s > left:
                break
            yield from rec(s + 1, left - s, chosen + (s,))

    yield from rec(0, budget, ())


def monomial_basis(d: int, p: int | None = None,
                   max_jet: int | None = None) -> Iterator[Monomial]:
    """All monomials of standard degree d (and super degree p if given)
    with jet indices bounded by max_jet."""
    bound = d if max_jet is None else min(max_jet, d)
    for odds in _odd_subsets(d, bound, p):
        rest = d - sum(odds)
        for evens in _partitions(rest, min(bound, rest) if rest else 0):
            yield Monomial(tuple(sorted(evens)), odds)
