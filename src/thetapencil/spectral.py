"""Filtration, page differentials, the U/V/W split and the homotopy.

The decreasing filtration of the degree-d slice is by top jet index:
level i collects the elements with max_jet <= d - i.  Page zero of the
induced spectral sequence sits at E0^{p,q} = (degree p+q, jets <= q
modulo jets <= q-1), with the differential d0 displayed below; page one
is spanned, for p >= 1 and q >= 2, by classes f * theta0 theta^q with f
of degree p and top jet exactly q-1, with differential

    d1(f theta0 theta^q) = (Dlambda(f)|_{lambda=u} + (q-2)/2 g theta1 f)
                           theta0 theta^q

computed modulo jets <= q-2.  As f is lambda-free, Dlambda(f)|_{lambda=u}
= sum_s P_s df/du^s + Q_s df/dtheta^s, with P_s and Q_s the prolongations
of Dlambda at lambda = u; `UVWSplit` builds each once, on first use, so
no lambda arithmetic touches the body.  Splitting d1 = theta1 U +
theta1 V + W with U diagonal in the half-integer weights makes theta1 U
an acyclic piece; the homological perturbation series

    h = sum_n (-1)^n (U^{-1} V)^n U^{-1} d/dtheta1

terminates because V strictly lowers the lexicographic order, and
contracts d1 away from bidegree (1,2).

Both maps are linear over functions of u: d/dtheta1, U^{-1} and V never
differentiate a coefficient, and the one d1 term that does, P_0 df/du,
vanishes, as P_0 = X_u|_{lambda=u} projects to zero (A = (u - lambda) g is
zero there, the theta0 part is dropped).  d1, V, U^{-1} and d/dtheta1 map
the bodies F with jets <= q-2 into F, so d1 and h act on classes in
E1 = bodies/F: they drop the input's terms below the top jet q-1 and
return the top-jet representative; U, U^{-1}, V and W act on whole
representatives.  `UVWSplit` tabulates the image row(m) of each top-jet
unit monomial once, and sum c_m m maps to sum c_m row(m).  d1's row is
the top-jet part of d1(m); W = d1 - theta1 U - theta1 V reads the whole
formula.  For the homotopy the table holds the resolvent R = sum_n
(-U^{-1} V)^n U^{-1}, and h is R after d/dtheta1.  From R = U^{-1} -
R V U^{-1}, a row is R(m) = s_m (m - R(top V m)) with s_m =
g^{-1}/eigenvalue(m); V strictly lowers the lex order, so a row needs
only the rows below it and the series is summed once per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, islice
from math import comb

from .coeff import G, CoeffExpr
from .algebra import Monomial, ThetaPoly, derivative_chain, monomial_basis, sum_polys
from .operators import _characteristics, _pencil_scalar, _prolong, dlambda_op


class ZeroWeightError(ArithmeticError):
    """U is not invertible on a weight-zero monomial (bidegree (1,2))."""


def _is_body(mono: Monomial, q: int) -> bool:
    """A page-one body monomial at column q: indices <= q-1 (no theta^q), no theta0."""
    return mono.max_jet() < q and not mono.has_odd(0)


def _top(body: ThetaPoly, q: int) -> ThetaPoly:
    """The representative modulo jets <= q-2: the terms with top jet q-1."""
    return ThetaPoly({m: c for m, c in body.terms() if m.max_jet() == q - 1})


def page_one_basis(p: int, q: int) -> tuple[Monomial, ...]:
    """The degree-p monomials of a page-one body at column q."""
    return tuple(m for m in monomial_basis(p, max_jet=q - 1) if _is_body(m, q))


@dataclass(frozen=True)
class E1Element:
    """A page-one class f * theta0 theta^q at (p, q), p >= 0, q >= 2, held by
    a representative f (jets <= q-1), checked where it enters a `UVWSplit`.
    The class is f modulo jets <= q-2; `reduce` returns its top-jet
    representative, which `UVWSplit.d1` and `homotopy` return too."""

    p: int
    q: int
    body: ThetaPoly

    def __post_init__(self):
        if self.q < 2 or self.p < 0:
            raise ValueError("page-one classes need p >= 0, q >= 2")

    def reduce(self) -> "E1Element":
        return E1Element(self.p, self.q, _top(self.body, self.q))

    def is_zero(self) -> bool:
        return self.body.is_zero()


def d0(a: ThetaPoly, p: int, q: int, g: CoeffExpr = G) -> ThetaPoly:
    """Page-zero differential on E0^{p,q}, reduced modulo jets <= q."""
    if a.is_zero():
        return a
    degrees = {m.degree_d() for m in a.monomials()}
    if degrees != {p + q} or a.max_jet() > q:
        raise ValueError(f"element does not represent a class in E0^({p},{q})")
    xu, xth = _characteristics(_pencil_scalar(g), q + 1)
    # every term of xu and xth holds a jet of index q + 1: nothing to drop
    return xu * a.du(q) + xth * a.dtheta(q)


def _project_body(raw: ThetaPoly, q: int) -> ThetaPoly:
    """Drop spectator-killed terms (theta0, theta^q) and the jets-q part."""
    return ThetaPoly({m: c for m, c in raw.terms() if _is_body(m, q)})


def _at_u(ders, q: int):
    """n -> the n-th of the derivatives ders, body-projected at lambda = u,
    each computed once.  The one projection: a product keeps each theta and
    the top jet of its factors, so products of bodies are bodies."""
    return cache(lambda n: _project_body(ders(n), q).subst_lambda(CoeffExpr.var_u()))


def _tabulated(rows: dict, build, body: ThetaPoly) -> ThetaPoly:
    """sum_m c_m rows[m] over the terms c_m m of body, added into one dict;
    a missing row is build(m)."""
    for mono in body.monomials():
        if mono not in rows:
            rows[mono] = build(mono)
    return ThetaPoly((m, c * k) for mono, k in body.terms() for m, c in rows[mono].terms())


@dataclass
class UVWSplit:
    """The decomposition d1 = theta1 U + theta1 V + W at one (q, g), q >= 2,
    with d1 and the homotopy.  Each public map takes an `E1Element`, whose
    body `_class_body` checks (`ValueError`), and returns one: U, U^{-1} and
    V keep p, d1 and W raise it by 1.  d1 and the homotopy act on the class
    and return its top-jet representative; U, U^{-1}, V and W act on the
    representative.  Construction builds `dlambda_op(g)` and refuses a
    nonzero projected P_0 (`ArithmeticError`).  The rest is built once, on
    first use: per s, P_s, Q_s and V's multipliers (V reads only the jets a
    body has), g^{-1}, and the tables, keyed by top-jet `Monomial`, of the
    d1 row and of the resolvent row R(m) of the module docstring.
    Evaluations at one (q, g) should share a split."""

    q: int
    g: CoeffExpr = G

    def __post_init__(self):
        q = self.q
        if q < 2:
            raise ValueError("the split needs q >= 2")
        op = dlambda_op(self.g)
        self._xu, self._xtheta = _at_u(op.xu_der, q), _at_u(op.xtheta_der, q)
        if not self._xu(0).is_zero():
            raise ArithmeticError("P_0 does not vanish: d1 is not linear over functions of u")
        # Per s, the sums over l of (s+2)/2 C(s,l) g^(l) u_{s-l}, which
        # multiplies d/du^s, and of (l-1)/2 C(s,l) A'^(s-l) theta_l, which
        # multiplies d/dtheta^s (l = 0 dies against theta0, l = 1 has
        # factor 0); D^l g with l <= q-2 is already a body.
        g_der = derivative_chain(ThetaPoly.from_coeff(self.g))
        dA = _at_u(derivative_chain(ThetaPoly.from_coeff(_pencil_scalar(self.g).ddu())), q)
        self._v_du = cache(lambda s: sum_polys(g_der(l) * ThetaPoly.jet(s - l)
                                               * (Fraction(s + 2, 2) * comb(s, l))
                                               for l in range(1, s)))
        self._v_dth = cache(lambda s: sum_polys(dA(s - l) * ThetaPoly.theta(l)
                                                * (Fraction(l - 1, 2) * comb(s, l))
                                                for l in range(2, s)))
        self._g_shift = self.g * Fraction(q - 2, 2)
        self._d1_rows: dict[Monomial, ThetaPoly] = {}
        self._r_rows: dict[Monomial, ThetaPoly] = {}
        self._pending: set[Monomial] = set()   # resolvent rows being built

    @cached_property
    def _ginv(self) -> CoeffExpr:
        return self.g.inverse()

    def _class_body(self, x: E1Element) -> ThetaPoly:
        """The one door: x.body, if every term is lambda-free, of degree x.p, `_is_body`."""
        if x.q != self.q:
            raise ValueError(f"a class at q = {x.q} given to the split at q = {self.q}")
        for mono, c in x.body.terms():
            if c.lambda_degree() or mono.degree_d() != x.p or not _is_body(mono, x.q):
                raise ValueError(f"{mono!r} is no lambda-free page-one term at {x.p, x.q}")
        return x.body

    def _d1_of(self, body: ThetaPoly) -> ThetaPoly:
        """Dlambda(f)|_{lambda=u} + (q-2)/2 g theta1 f."""
        g_term = (ThetaPoly.theta(1) * body) * self._g_shift
        return sum_polys(chain([g_term], _prolong(body, self._xu, self._xtheta)))

    def d1(self, x: E1Element) -> E1Element:
        """Page-one differential, landing at (p+1, q)."""
        q = self.q
        return E1Element(x.p + 1, q, _tabulated(
            self._d1_rows, lambda m: _top(self._d1_of(ThetaPoly.monomial(m)), q),
            _top(self._class_body(x), q)))

    def _resolvent(self, body: ThetaPoly) -> ThetaPoly:
        return _tabulated(self._r_rows, self._resolvent_row, body)

    def _resolvent_row(self, mono: Monomial) -> ThetaPoly:
        """R(m) = s_m (m - R(V m)).  The termination cap: a row may not
        revisit one still being built, and the chain of pending rows may not
        grow past 2 + |basis| (counted only as far as the chain is long)."""
        scale = self._u_scale(mono)
        pending = self._pending
        excess = len(pending) - 1   # the chain's length with m, less 2
        basis = monomial_basis(mono.degree_d(), max_jet=self.q - 1)
        if mono in pending or excess > len(list(islice(basis, max(excess, 0)))):
            raise RuntimeError("homotopy series exceeded its termination cap")
        pending.add(mono)
        try:
            unit = ThetaPoly.monomial(mono)
            return (unit - self._resolvent(_top(self._v(unit), self.q))) * scale
        finally:
            pending.discard(mono)

    def homotopy(self, x: E1Element) -> E1Element:
        """The perturbation-series contraction, landing at (p-1, q)."""
        return E1Element(x.p - 1, x.q,
                         self._resolvent(_top(self._class_body(x), x.q).dtheta(1)))

    def eigenvalue(self, mono: Monomial) -> Fraction:
        """U-weight of a body monomial, spectator thetas included."""
        return mono.weight() + Fraction(self.q - 2, 2)

    def _u_scale(self, mono: Monomial) -> CoeffExpr:
        ginv, eig = self._ginv, self.eigenvalue(mono)
        if eig == 0:
            raise ZeroWeightError(f"zero-weight division at {mono!r}")
        return ginv / eig

    def u_apply(self, x: E1Element) -> E1Element:
        return E1Element(x.p, x.q, ThetaPoly({mono: c * self.g * self.eigenvalue(mono)
                                              for mono, c in self._class_body(x).terms()}))

    def u_inverse(self, x: E1Element) -> E1Element:
        return E1Element(x.p, x.q, ThetaPoly({mono: c * self._u_scale(mono)
                                              for mono, c in self._class_body(x).terms()}))

    def _v(self, body: ThetaPoly) -> ThetaPoly:
        top = body.max_jet() + 1
        return sum_polys(chain((self._v_du(s) * body.du(s) for s in range(2, top)),
                               (self._v_dth(s) * body.dtheta(s) for s in range(3, top))))

    def v_apply(self, x: E1Element) -> E1Element:
        return E1Element(x.p, x.q, self._v(self._class_body(x)))

    def w_apply(self, x: E1Element) -> E1Element:
        body, th1 = self._class_body(x), ThetaPoly.theta(1)
        w = self._d1_of(body) - th1 * self.u_apply(x).body - th1 * self._v(body)
        return E1Element(x.p + 1, x.q, w)


def d1(x: E1Element, g: CoeffExpr = G) -> E1Element:
    """Page-one differential, landing at (p+1, q)."""
    return UVWSplit(x.q, g).d1(x)


def homotopy_h(x: E1Element, g: CoeffExpr = G) -> E1Element:
    """The perturbation-series contraction, landing at (p-1, q)."""
    return UVWSplit(x.q, g).homotopy(x)


@dataclass(frozen=True)
class LambdaIndependence:
    """Outcome of the lambda-independence classifier."""

    independent: bool
    value: CoeffExpr | None
    plus_recurrence: bool    # t_i' = +(i + 1/2) t_{i+1}
    minus_recurrence: bool   # t_i' = -(i + 1/2) t_{i+1}


def check_lambda_independence(ts: list[CoeffExpr]) -> LambdaIndependence:
    """Decide whether -(u - lambda) t' + t/2 is independent of lambda,
    for t = sum_i t_i (u - lambda)^i, by direct expansion; also report
    which sign of the first-order recurrence the coefficients satisfy."""
    shifted = CoeffExpr.var_u() - CoeffExpr.var_lambda()
    t = CoeffExpr.zero()
    for i, ti in enumerate(ts):
        if ti.lambda_degree():
            raise ValueError("the coefficients t_i must be lambda-free")
        t = t + ti * shifted ** i
    s = -shifted * t.ddu() + t * Fraction(1, 2)
    independent = not s.lambda_degree()
    if independent and s != (ts[0] if ts else CoeffExpr.zero()) * Fraction(1, 2):
        raise ArithmeticError("independent result must equal t_0/2")
    # t_i' against (i + 1/2) t_{i+1}, with t_{n} = 0 past the last
    rates = [(ti.ddu(), nxt * Fraction(2 * i + 1, 2))
             for i, (ti, nxt) in enumerate(zip(ts, [*ts[1:], CoeffExpr.zero()]))]
    return LambdaIndependence(independent, s if independent else None,
                              all(lhs == rate for lhs, rate in rates),
                              all(lhs == -rate for lhs, rate in rates))
