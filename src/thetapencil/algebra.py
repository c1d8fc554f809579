"""The graded algebra of differential polynomials with odd generators.

Elements are finite sums of monomials in the even jet variables u1, u2, ...
and the odd variables theta0, theta1, ... with `CoeffExpr` coefficients
(which carry the dependence on u = u0, lambda and eps).  Two gradations:
the standard degree d counts jet indices, the super degree p counts odd
factors.  The total derivative shifts every jet index up by one and acts
on coefficients through d/du against u1.

Coefficients may carry log(u1) and negative powers of u1, the extension
atoms of the logarithmic generator.  The mode is read off the
coefficients: a polynomial is extended when one of them holds such an
atom.  Each such term folds its own u1 power as it is stored, so that
either the monomial holds a nonnegative power or the coefficient holds a
negative one, never both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .coeff import CoeffExpr


@dataclass(frozen=True, slots=True)
class Monomial:
    """A signed-normalized monomial: thetas stored in increasing index order.
    The hash is computed once, at construction, and kept in a slot."""

    evens: tuple[tuple[int, int], ...] = ()   # sorted (jet index >= 1, exponent >= 1)
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
        if s < 1 or exp < 1:
            raise ValueError("jet index and exponent must be positive")
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
        """Copy with the u^s exponent set to exp (removed when exp == 0)."""
        items = [(t, e) for t, e in self.evens if t != s]
        if exp < 0:
            raise ValueError("negative jet exponent")
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
        parts = [f"u{s}^{e}" if e > 1 else f"u{s}" for s, e in self.evens]
        parts += [f"theta{s}" for s in self.odds]
        return "*".join(parts) if parts else "1"


_UNIT = Monomial((), ())


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
    return sign, Monomial(tuple(sorted(evens.items())), odds)


def lex_compare(a: Monomial, b: Monomial, u1a: int = 0, u1b: int = 0) -> int:
    """Lexicographic order via the multiindex (..., j1, i1, j0).

    The optional u1a/u1b shifts add coefficient-held u1 powers (extended
    mode) to the i1 entries.  Returns -1, 0 or 1.
    """
    top = max(a.max_jet(), b.max_jet(), 1)
    for s in range(top, 0, -1):
        ja, jb = a.has_odd(s), b.has_odd(s)
        if ja != jb:
            return 1 if ja else -1
        ia = a.even_exp(s) + (u1a if s == 1 else 0)
        ib = b.even_exp(s) + (u1b if s == 1 else 0)
        if ia != ib:
            return 1 if ia > ib else -1
    ja, jb = a.has_odd(0), b.has_odd(0)
    if ja != jb:
        return 1 if ja else -1
    return 0


def _fold_entry(mono: Monomial, coeff: CoeffExpr) -> Iterator[tuple[Monomial, CoeffExpr]]:
    """Split an extended-mode entry so u1 powers live in one place only."""
    e1 = mono.even_exp(1)
    for u1p, sub in coeff.split(5).items():
        total = e1 + u1p
        if total >= 0:
            yield mono.with_even(1, total), sub
        else:
            yield mono.with_even(1, 0), sub * CoeffExpr.u1_power(total)


class ThetaPoly:
    """Finite association monomial -> coefficient, canonically normalized.
    `extended` (u1 folding on) is set by a coefficient with an extension
    atom, and kept by arithmetic on such operands even where atoms cancel."""

    __slots__ = ("_terms", "extended")

    def __init__(self, terms=None):
        clean: dict[Monomial, CoeffExpr] = {}
        extended = False
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                atoms = coeff.has_extension_atoms()
                extended = extended or atoms
                _accumulate(clean, mono, coeff, atoms)
        self._terms = clean
        self.extended = extended

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
        ext = self.extended or other.extended
        out = dict(self._terms)
        for m, c in other._terms.items():
            _accumulate(out, m, c, ext)
        return _wrap(out, ext)

    def __sub__(self, other: "ThetaPoly") -> "ThetaPoly":
        return self + (-other)

    def __neg__(self) -> "ThetaPoly":
        return _wrap({m: -c for m, c in self._terms.items()}, self.extended)

    def __mul__(self, other) -> "ThetaPoly":
        if isinstance(other, (int, Fraction)):
            other = CoeffExpr.rational(other)
        if isinstance(other, CoeffExpr):
            out: dict[Monomial, CoeffExpr] = {}
            ext = self.extended or other.has_extension_atoms()
            for m, c in self._terms.items():
                _accumulate(out, m, c * other, ext)
            return _wrap(out, ext)
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        ext = self.extended or other.extended
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                sign, mono = mul_monomials(m1, m2)
                if mono is None:
                    continue
                c = c1 * c2
                _accumulate(out, mono, -c if sign < 0 else c, ext)
        return _wrap(out, ext)

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
        """Split into (d, p)-homogeneous parts; u1 powers held by the
        coefficient count toward d."""
        out: dict[tuple[int, int], dict] = {}
        for mono, coeff in self._terms.items():
            for key, term in coeff.single_terms():
                d = mono.degree_d() + key[5]
                bucket = out.setdefault((d, mono.degree_p()), {})
                _accumulate(bucket, mono, term, self.extended)
        return {dp: _wrap(t, self.extended) for dp, t in out.items()}

    def max_jet(self) -> int:
        """The largest jet index; log(u1) and u1 powers count as index 1."""
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
        ext = self.extended
        for mono, coeff in self._terms.items():
            # jet factors u^s -> u^{s+1}
            for s, e in mono.evens:
                lowered = mono.with_even(s, e - 1)
                sign, bumped = mul_monomials(lowered, Monomial.jet(s + 1))
                _accumulate(out, bumped, coeff * e * sign, ext)
            # theta^s -> theta^{s+1}
            for s in mono.odds:
                replaced = mono.replace_odd(s, s + 1)
                if replaced is not None:
                    _accumulate(out, replaced, coeff, ext)
            # chain rule through the coefficient's u dependence
            dc = coeff.ddu()
            if not dc.is_zero():
                sign, bumped = mul_monomials(mono, Monomial.jet(1))
                _accumulate(out, bumped, dc * sign, ext)
            # extension atoms: log(u1) and u1 powers differentiate to u2
            if ext:
                de = coeff.du1_atoms()
                if not de.is_zero():
                    sign, bumped = mul_monomials(mono, Monomial.jet(2))
                    _accumulate(out, bumped, de * sign, ext)
        return _wrap(out, ext)

    def du(self, s: int) -> "ThetaPoly":
        """Partial derivative in u^s; s = 0 differentiates the coefficients."""
        out: dict = {}
        if s == 0:
            for mono, coeff in self._terms.items():
                _accumulate(out, mono, coeff.ddu(), self.extended)
            return _wrap(out, self.extended)
        for mono, coeff in self._terms.items():
            e = mono.even_exp(s)
            if e:
                _accumulate(out, mono.with_even(s, e - 1), coeff * e, self.extended)
            if s == 1 and self.extended:
                de = coeff.du1_atoms()
                if not de.is_zero():
                    _accumulate(out, mono, de, self.extended)
        return _wrap(out, self.extended)

    def dtheta(self, s: int) -> "ThetaPoly":
        """Left graded derivative in theta^s."""
        out: dict = {}
        for mono, coeff in self._terms.items():
            if mono.has_odd(s):
                sign, reduced = mono.without_odd(s)
                _accumulate(out, reduced, coeff * sign, self.extended)
        return _wrap(out, self.extended)

    # -- mode ----------------------------------------------------------------

    def to_plain(self) -> "ThetaPoly":
        """The same polynomial, plain; raises ValueError unless every
        extension atom cancelled."""
        if self.has_extension_atoms():
            raise ValueError("extension atoms persist: " + self.render())
        return _wrap(self._terms, False)

    def has_extension_atoms(self) -> bool:
        return any(c.has_extension_atoms() for c in self._terms.values())

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
    """The sum of the parts, accumulated into one dict; extended when any
    part is."""
    out: dict = {}
    extended = False
    for part in parts:
        extended = extended or part.extended
        for m, c in part._terms.items():
            _accumulate(out, m, c, extended)
    return _wrap(out, extended)


def derivative_chain(seed: ThetaPoly):
    """s -> the s-th total derivative of seed, each computed once, on demand."""
    ders = [seed]

    def nth(s: int) -> ThetaPoly:
        while len(ders) <= s:
            ders.append(ders[-1].total_derivative())
        return ders[s]
    return nth


def _accumulate(store: dict, mono: Monomial, coeff: CoeffExpr, extended: bool):
    """Add coeff * mono to store, folding the term's u1 power when extended."""
    if coeff.is_zero():
        return
    for m, c in (_fold_entry(mono, coeff) if extended else ((mono, coeff),)):
        prev = store.get(m)
        total = c if prev is None else prev + c
        if total.is_zero():
            store.pop(m, None)
        else:
            store[m] = total


def _wrap(terms: dict, extended: bool) -> ThetaPoly:
    poly = ThetaPoly.__new__(ThetaPoly)
    poly.extended = extended
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
