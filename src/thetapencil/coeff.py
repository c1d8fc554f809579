"""Exact scalar expressions: the coefficient ring of the whole package.

A ``CoeffExpr`` is a finite sum of terms.  Each term is

    q * sqrt(r) * u^a * lambda^b * eps^c * log(u1)^d * prod F^(k)(u)^m

with q a nonzero rational number, r a positive squarefree integer, a an
integer, b, c, d nonnegative integers, and F ranging over formal function
symbols (g, c, user-declared).  The q of all terms are stored as integer
numerators over one positive common denominator, in lowest terms: no
numerator is zero, the gcd of the denominator and all numerators is 1, and
zero is no terms over 1.  So products and sums stay in ``int``, and equal
values are stored alike.  ``terms()`` yields each q as an ``int`` when it
is integral and as a ``Fraction`` otherwise.  Function symbols are never
expanded or evaluated; their derivatives F', F'', ... are independent
atoms linked only by d/du.

lambda and eps occur polynomially only.  log(u1), with u1 an opaque
positive quantity, is the one extension atom of the logarithmic deformation
generator; the powers of u1 it brings, negative ones included, are exponents
of the jet algebra's monomials, never atoms here.
Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, Mapping, Union

Rational = Union[int, Fraction]

# _squarefree_split trial-divides below this bound (at most 10^4 steps) and
# certifies cofactors below its cube.
_TRIAL_BOUND = 10_000


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s^2 * r and r squarefree, for n >= 1.

    Trial division stops at _TRIAL_BOUND.  The cofactor left then has no
    prime factor below the bound, so under the bound cubed it is p, p*q or
    p^2, and only p^2 is not squarefree.  A larger cofactor cannot be
    certified and raises ValueError.
    """
    s, r, d = 1, 1, 2
    while d * d <= n:
        if d == _TRIAL_BOUND:
            if n >= _TRIAL_BOUND ** 3:
                raise ValueError(f"radicand factor {n} has no prime factor below "
                                 f"{_TRIAL_BOUND} and is too large to certify")
            root = isqrt(n)
            if root * root == n:
                return s * root, r
            break
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            r *= d
        d += 1
    return s, r * n


# A term key: (radicand, u_pow, lam_pow, eps_pow, log_pow, 0, funcs)
# where funcs is a sorted tuple of ((name, order), exponent) with nonzero
# integer exponents.  Slot 5 is reserved and always 0 (powers of u1 live in
# the jet algebra's monomials); it keeps funcs at index 6, where the
# benchmark's tracer (bench/tracer.py) reads it, until both change together.
Key = tuple[int, int, int, int, int, int, tuple]

_ONE_KEY: Key = (1, 0, 0, 0, 0, 0, ())


def _mul_keys(k1: Key, k2: Key) -> tuple[Key, int]:
    """Multiply two term keys; returns the new key and an integer carry."""
    rad1, ua, l1, e1, lg1, _, f1 = k1
    rad2, ub, l2, e2, lg2, _, f2 = k2
    # Both radicands are squarefree: r1*r2 = g^2 * (r1/g) * (r2/g).
    carry = gcd(rad1, rad2)
    rad = (rad1 // carry) * (rad2 // carry)
    if not f1:
        funcs = f2
    elif not f2:
        funcs = f1
    else:
        merged: dict = dict(f1)
        for atom, exp in f2:
            new = merged.get(atom, 0) + exp
            if new == 0:
                merged.pop(atom)
            else:
                merged[atom] = new
        funcs = tuple(sorted(merged.items()))
    return (rad, ua + ub, l1 + l2, e1 + e2, lg1 + lg2, 0, funcs), carry


class CoeffExpr:
    """An exact scalar expression in canonical (expanded, collected) form:
    ``_terms`` maps each key to a nonzero integer numerator over the one
    positive denominator ``_den``, in lowest terms."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Key, Rational] | None = None):
        # int or Fraction values; their denominators are cleared by the lcm.
        terms = terms or {}
        den = lcm(*(q.denominator for q in terms.values()))
        canon = _canonical({k: q.numerator * (den // q.denominator)
                            for k, q in terms.items()}, den)
        self._terms, self._den = canon._terms, canon._den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "CoeffExpr":
        return _new({}, 1)

    @staticmethod
    def rational(p, q=1) -> "CoeffExpr":
        if q == 1 and type(p) is int:
            return _canonical({_ONE_KEY: p}, 1)
        val = Fraction(p, q)
        return _canonical({_ONE_KEY: val.numerator}, val.denominator)

    @staticmethod
    def one() -> "CoeffExpr":
        return _ONE

    @staticmethod
    def var_u(power: int = 1) -> "CoeffExpr":
        return _new({(1, power, 0, 0, 0, 0, ()): 1}, 1)

    @staticmethod
    def var_lambda() -> "CoeffExpr":
        return _new({(1, 0, 1, 0, 0, 0, ()): 1}, 1)

    @staticmethod
    def var_eps(power: int = 1) -> "CoeffExpr":
        return _new({(1, 0, 0, power, 0, 0, ()): 1}, 1)

    @staticmethod
    def sqrt(r) -> "CoeffExpr":
        """Exact square root of a positive rational."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("radicand must be a positive rational")
        # sqrt(p/q) = sqrt(p*q)/q
        n = r.numerator * r.denominator
        s, rad = _squarefree_split(n)
        return _canonical({(rad, 0, 0, 0, 0, 0, ()): s}, r.denominator)

    @staticmethod
    def func(name: str, order: int = 0, exponent: int = 1) -> "CoeffExpr":
        """The formal atom F^(order)(u) raised to an integer power."""
        if exponent == 0:
            return CoeffExpr.one()
        return _new({(1, 0, 0, 0, 0, 0, (((name, order), exponent),)): 1}, 1)

    @staticmethod
    def log_u1(power: int = 1) -> "CoeffExpr":
        """The extension atom log(u1)^power."""
        return _new({(1, 0, 0, 0, power, 0, ()): 1}, 1)

    # -- ring structure -----------------------------------------------

    def __add__(self, other) -> "CoeffExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        den, d2 = self._den, other._den
        if den == d2:
            terms = dict(self._terms)
            s2 = 1
        else:
            g = gcd(den, d2)
            s1, s2 = d2 // g, den // g
            terms = {k: n * s1 for k, n in self._terms.items()}
            den *= s1
        get = terms.get
        for key, n in other._terms.items():
            terms[key] = get(key, 0) + n * s2
        return _canonical(terms, den)

    __radd__ = __add__

    def __neg__(self) -> "CoeffExpr":
        return _new({k: -n for k, n in self._terms.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CoeffExpr":
        if not isinstance(other, CoeffExpr):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 1:
                return self
            p, q = other.numerator, other.denominator
            terms = {k: n * p for k, n in self._terms.items()}
            if p and q == 1 and self._den == 1:
                return _new(terms, 1)
            return _canonical(terms, self._den * q)
        a, b = self._terms, other._terms
        den = self._den * other._den
        if len(a) == 1 and len(b) == 1:
            (k1, n1), = a.items()
            (k2, n2), = b.items()
            key, carry = _mul_keys(k1, k2)
            n = n1 * n2 * carry
            if den != 1:
                g = gcd(n, den)
                n, den = n // g, den // g
            return _new({key: n}, den)
        terms: dict = {}
        get = terms.get
        for k1, n1 in a.items():
            for k2, n2 in b.items():
                key, carry = _mul_keys(k1, k2)
                terms[key] = get(key, 0) + n1 * n2 * carry
        return _canonical(terms, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CoeffExpr":
        if not isinstance(n, int):
            raise TypeError("only integer powers are defined")
        if n < 0:
            return self.inverse() ** (-n)
        # Repeated products beat squaring on a dense base: a t-term base
        # forms about t * sum |b^k| term products, while the last squaring
        # alone forms |b^(n/2)|^2.
        result = CoeffExpr.one()
        for _ in range(n):
            result = result * self
        return result

    def inverse(self) -> "CoeffExpr":
        """Invert a single-term expression; lambda/eps/log must be absent."""
        if len(self._terms) != 1:
            raise ValueError("can only invert a single-term expression")
        (key, n), = self._terms.items()
        rad, u_pow, lam, eps, log, _, funcs = key
        if lam or eps or log:
            raise ValueError("cannot invert lambda, eps or log atoms")
        # 1/sqrt(r) = sqrt(r)/r
        inv = Fraction(self._den, n * rad)
        inv_key = (rad, -u_pow, 0, 0, 0, 0,
                   tuple(sorted((atom, -e) for atom, e in funcs)))
        return _new({inv_key: inv.numerator}, inv.denominator)

    def __truediv__(self, other) -> "CoeffExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"CoeffExpr({self.render()})"

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Key, Rational]]:
        """(key, q) pairs, q an int when integral and a Fraction otherwise."""
        den = self._den
        if den == 1:
            return iter(self._terms.items())
        return ((k, n // den if n % den == 0 else Fraction(n, den))
                for k, n in self._terms.items())

    def split(self, slot: int) -> dict[int, "CoeffExpr"]:
        """The terms grouped by their exponent in key slot `slot`, which is
        set to 0 in each group."""
        groups: dict[int, dict] = {}
        for key, n in self._terms.items():
            groups.setdefault(key[slot], {})[key[:slot] + (0,) + key[slot + 1:]] = n
        if len(groups) == 1 and 0 in groups:
            return {0: self}
        return {e: _canonical(sub, self._den) for e, sub in groups.items()}

    def has_extension_atoms(self) -> bool:
        """Whether a term holds log(u1)."""
        for key in self._terms:
            if key[4]:
                return True
        return False

    def is_rational(self) -> bool:
        return all(k == _ONE_KEY for k in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("not a rational constant")
        return Fraction(self._terms[_ONE_KEY], self._den)

    def lambda_degree(self) -> int:
        return max((k[2] for k in self._terms), default=0)

    def eps_degree(self) -> int:
        return max((k[3] for k in self._terms), default=0)

    def lambda_coefficient(self, power: int) -> "CoeffExpr":
        """Coefficient of lambda^power, as a lambda-free expression."""
        return self.split(2).get(power, CoeffExpr.zero())

    def eps_coefficient(self, power: int) -> "CoeffExpr":
        return self.split(3).get(power, CoeffExpr.zero())

    # -- calculus ------------------------------------------------------

    def ddu(self) -> "CoeffExpr":
        """Formal d/du at fixed lambda; extension atoms are u-independent."""
        terms: dict = {}
        get = terms.get
        for key, n in self._terms.items():
            rad, u_pow, *mid, funcs = key
            if u_pow:
                k = (rad, u_pow - 1, *mid, funcs)
                terms[k] = get(k, 0) + n * u_pow
            for atom, exp in funcs:
                name, order = atom
                bumped: dict = dict(funcs)
                if exp == 1:
                    bumped.pop(atom)
                else:
                    bumped[atom] = exp - 1
                up = (name, order + 1)
                bumped[up] = bumped.get(up, 0) + 1
                if bumped[up] == 0:
                    bumped.pop(up)
                k = (rad, u_pow, *mid, tuple(sorted(bumped.items())))
                terms[k] = get(k, 0) + n * exp
        return _canonical(terms, self._den)

    def subst_lambda(self, value: "CoeffExpr") -> "CoeffExpr":
        """Replace lambda by a lambda-free expression."""
        if value.lambda_degree():
            raise ValueError("substitution value must be lambda-free")
        parts = self.split(2)
        out = CoeffExpr.zero()
        for power in sorted(parts):
            out = out + parts[power] * value ** power
        return out

    def dlog(self) -> "CoeffExpr":
        """d/dlog(u1): the derivative of each log(u1) power, which d/du1
        multiplies by 1/u1 and the total derivative by u2/u1."""
        terms = {}
        for key, n in self._terms.items():
            log = key[4]
            if log:
                terms[key[:4] + (log - 1,) + key[5:]] = n * log
        return _canonical(terms, self._den)

    # -- rendering -----------------------------------------------------

    def render(self, base_name: str = "u") -> str:
        from .parsing import render_coeff
        return render_coeff(self, base_name)


def _new(terms: dict, den: int) -> CoeffExpr:
    """An expression over storage that is already canonical."""
    e = object.__new__(CoeffExpr)
    e._terms = terms
    e._den = den
    return e


def _canonical(terms: dict, den: int) -> CoeffExpr:
    """The one normaliser: drops zero numerators and divides the gcd of
    the denominator and the numerators out; `den` must be positive."""
    if 0 in terms.values():
        terms = {k: n for k, n in terms.items() if n}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: n // g for k, n in terms.items()}
    return _new(terms, den)


_ONE = _new({_ONE_KEY: 1}, 1)

# The symbolic metric g(u) and central invariant c(u): the defaults of every
# function that takes g or c.
G = CoeffExpr.func("g")
C = CoeffExpr.func("c")


def _coerce(x) -> CoeffExpr:
    if isinstance(x, CoeffExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return CoeffExpr.rational(x)
    return NotImplemented


def qq(p, q=1) -> CoeffExpr:
    """Shorthand rational constructor."""
    return CoeffExpr.rational(p, q)


def sym(name: str, order: int = 0) -> CoeffExpr:
    """Shorthand formal function atom."""
    return CoeffExpr.func(name, order)

