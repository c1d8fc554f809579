"""Filtration, page differentials, the U/V/W split and the homotopy.

The decreasing filtration of the degree-d slice is by top jet index:
level i collects the elements with max_jet <= d - i.  Page zero of the
induced spectral sequence sits at E0^{p,q} = (degree p+q, jets <= q
modulo jets <= q-1), with the differential d0 displayed below; page one
is spanned, for p >= 1 and q >= 2, by classes f * theta0 theta^q with f
of degree p and jets <= q-1, with differential

    d1(f theta0 theta^q) = (Dlambda(f)|_{lambda=u} + (q-2)/2 g theta1 f)
                           theta0 theta^q

computed modulo jets <= q-2.  As f is lambda-free, Dlambda(f)|_{lambda=u}
= sum_s P_s df/du^s + Q_s df/dtheta^s, with P_s and Q_s the prolongations
of Dlambda at lambda = u; `UVWSplit` owns them, so no lambda arithmetic
touches the body.  Splitting d1 = theta1 U + theta1 V + W with U diagonal
in the half-integer weights makes theta1 U an acyclic piece; the
homological perturbation series

    h = sum_n (-1)^n (U^{-1} V)^n U^{-1} d/dtheta1

terminates because V strictly lowers the lexicographic order, and
contracts d1 away from bidegree (1,2).

Both maps are linear over functions of u: d/dtheta1, U^{-1} and V never
differentiate a coefficient, and the one d1 term that does, P_0 df/du,
vanishes, as P_0 = X_u|_{lambda=u} projects to zero (A = (u - lambda) g is
zero there, the theta0 part is dropped).  So `UVWSplit` tabulates the image
row(m) of each unit monomial once, and sum c_m m maps to sum c_m row(m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb

from .coeff import CoeffExpr
from .algebra import Monomial, ThetaPoly, monomial_basis, sum_polys
from .operators import _characteristics, _prolong, dlambda_op


class ZeroWeightError(ArithmeticError):
    """U is not invertible on a weight-zero monomial (bidegree (1,2))."""


def filtration_level(a: ThetaPoly, d: int) -> int:
    """Largest filtration level containing a degree-d homogeneous element."""
    if a.is_zero():
        return d
    hom = a.is_homogeneous()
    if hom is None or hom[0] != d:
        raise ValueError(f"element is not homogeneous of degree {d}")
    return d - a.max_jet()


@dataclass(frozen=True)
class E1Element:
    """A page-one class f * theta0 theta^q at bidegree (p, q), p >= 1,
    q >= 2, stored through the full representative f (jets <= q-1); the
    quotient by jets <= q-2 is taken by `reduce`, never destructively."""

    p: int
    q: int
    body: ThetaPoly

    def __post_init__(self):
        if self.q < 2 or self.p < 0:
            raise ValueError("page-one classes need p >= 0, q >= 2")
        if self.body.lambda_degree():
            raise ValueError("page-one bodies are lambda-free")
        for mono in self.body.monomials():
            if mono.degree_d() != self.p:
                raise ValueError(f"body term {mono!r} is not of degree {self.p}")
            if mono.has_odd(0) or mono.has_odd(self.q):
                raise ValueError("body must not contain the spectator thetas")
            if mono.max_jet() > self.q - 1:
                raise ValueError(f"body term {mono!r} exceeds jets <= q-1")

    def reduce(self) -> "E1Element":
        """Representative modulo jets <= q-2: keep top-jet-(q-1) terms."""
        kept = {m: c for m, c in self.body.terms() if m.max_jet() == self.q - 1}
        return E1Element(self.p, self.q, ThetaPoly(kept))

    def equal_mod_reduction(self, other: "E1Element") -> bool:
        return (self.p, self.q) == (other.p, other.q) and \
            self.reduce().body == other.reduce().body

    def is_zero(self) -> bool:
        return self.body.is_zero()


def _pencil_scalar(g: CoeffExpr) -> CoeffExpr:
    return (CoeffExpr.var_u() - CoeffExpr.var_lambda()) * g


def d0(a: ThetaPoly, p: int, q: int, g: CoeffExpr | None = None) -> ThetaPoly:
    """Page-zero differential on E0^{p,q}, reduced modulo jets <= q."""
    g = CoeffExpr.func("g") if g is None else g
    if a.is_zero():
        return a
    degrees = {d for d, _p in a.bidegree_components()}
    if degrees != {p + q} or a.max_jet() > q:
        raise ValueError(f"element does not represent a class in E0^({p},{q})")
    xu, xth = _characteristics(_pencil_scalar(g), q + 1)
    # every term of xu and xth holds a jet of index q + 1: nothing to drop
    return xu * a.du(q) + xth * a.dtheta(q)


def _project_body(raw: ThetaPoly, q: int) -> ThetaPoly:
    """Drop spectator-killed terms (theta0, theta^q) and the jets-q part."""
    return ThetaPoly({m: c for m, c in raw.terms() if not m.has_odd(0)
                      and not m.has_odd(q) and m.max_jet() <= q - 1})


@dataclass
class UVWSplit:
    """The decomposition d1 = theta1 U + theta1 V + W at one (q, g), with
    d1 and the homotopy.  On first use the split builds, and then keeps,
    the prolongations P_s, Q_s of Dlambda at lambda = u, V's multipliers,
    g^{-1}, the U^{-1} scale of each monomial, and two tables keyed by
    `Monomial`: the d1 and h images of each unit monomial, built by the
    whole-body formulas.  The d1 table opens only once the projected P_0 is
    checked to vanish (else `ArithmeticError`).  Evaluations at one (q, g)
    should share a split."""

    q: int
    g: CoeffExpr

    def __post_init__(self):
        self._chains = {"g": [ThetaPoly.from_coeff(self.g)],
                        "dA": [ThetaPoly.from_coeff(_pencil_scalar(self.g).ddu())]}
        self._at_u: dict[tuple[str, int], ThetaPoly] = {}
        self._caps: dict[int, int] = {}   # homotopy termination cap per p
        self._g_shift = self.g * Fraction(self.q - 2, 2)
        self._h_rows: dict[Monomial, ThetaPoly] = {}
        self._u_scales: dict[Monomial, CoeffExpr] = {}   # g^{-1} / eigenvalue

    def _derivative(self, name: str, n: int) -> ThetaPoly:
        """d^n of a seed at lambda = u, body-projected (exact: a product keeps
        each theta and the top jet of its factors); xu, xtheta from Dlambda."""
        key = (name, n)
        if key not in self._at_u:
            if name not in self._chains:
                op = dlambda_op(self.g)
                self._chains.update(xu=[op.xu], xtheta=[op.xtheta])
            chain = self._chains[name]
            while len(chain) <= n:
                chain.append(chain[-1].total_derivative())
            self._at_u[key] = _project_body(chain[n], self.q).subst_lambda(CoeffExpr.var_u())
        return self._at_u[key]

    @cached_property
    def _d1_rows(self) -> dict[Monomial, ThetaPoly]:
        if not self._derivative("xu", 0).is_zero():
            raise ArithmeticError("P_0 does not vanish: d1 is not linear over functions of u")
        return {}

    @cached_property
    def _ginv(self) -> CoeffExpr:
        return self.g.inverse()

    @cached_property
    def _v_multipliers(self) -> tuple[dict[int, ThetaPoly], dict[int, ThetaPoly]]:
        """Per s, the sums over l of (s+2)/2 C(s,l) g^(l) u_{s-l}, which
        multiplies d/du^s, and of (l-1)/2 C(s,l) A'^(s-l) theta_l, which
        multiplies d/dtheta^s (l = 0 dies against theta0, l = 1 has factor 0)."""
        du = {s: sum_polys(self._derivative("g", l) * ThetaPoly.jet(s - l)
                           * (Fraction(s + 2, 2) * comb(s, l)) for l in range(1, s))
              for s in range(2, self.q)}
        dth = {s: sum_polys(self._derivative("dA", s - l) * ThetaPoly.theta(l)
                            * (Fraction(l - 1, 2) * comb(s, l)) for l in range(2, s))
               for s in range(3, self.q)}
        return du, dth

    def _tabulated(self, rows: dict, build, x: E1Element) -> ThetaPoly:
        """sum_m c_m rows[m] over the terms c_m m of x's body; a missing row
        is build(m) for the unit monomial m."""
        if x.q != self.q:
            raise ValueError(f"a class at q = {x.q} given to the split at q = {self.q}")
        for mono in x.body.monomials():
            if mono not in rows:
                rows[mono] = build(ThetaPoly.monomial(mono))
        return sum_polys(rows[mono] * c for mono, c in x.body.terms())

    def _d1_of(self, body: ThetaPoly) -> ThetaPoly:
        """Dlambda(f)|_{lambda=u} + (q-2)/2 g theta1 f, projected."""
        if body.lambda_degree():
            raise ValueError("page-one bodies are lambda-free")
        g_term = (ThetaPoly.theta(1) * body) * self._g_shift
        parts = _prolong(body, lambda s: self._derivative("xu", s),
                         lambda s: self._derivative("xtheta", s))
        return _project_body(sum_polys(chain([g_term], parts)), self.q)

    def d1(self, x: E1Element) -> E1Element:
        """Page-one differential, landing at (p+1, q)."""
        return E1Element(x.p + 1, x.q, self._tabulated(self._d1_rows, self._d1_of, x))

    def _homotopy_of(self, body: ThetaPoly, p: int) -> ThetaPoly:
        """The capped series sum_n (-1)^n (U^{-1} V)^n U^{-1} d/dtheta1 on a
        degree-p body, projected."""
        cur = self.u_inverse(body.dtheta(1))
        series = [cur]
        if p not in self._caps:
            self._caps[p] = 2 + sum(
                1 for _ in monomial_basis(max(p - 1, 0), max_jet=self.q - 1))
        while not cur.is_zero():
            if len(series) > self._caps[p]:
                raise RuntimeError("homotopy series exceeded its termination cap")
            cur = -self.u_inverse(self.v_apply(cur))
            series.append(cur)
        return _project_body(sum_polys(series), self.q)

    def homotopy(self, x: E1Element) -> E1Element:
        """The perturbation-series contraction, landing at (p-1, q)."""
        return E1Element(x.p - 1, x.q, self._tabulated(
            self._h_rows, lambda b: self._homotopy_of(b, x.p), x))

    def eigenvalue(self, mono: Monomial) -> Fraction:
        """U-weight of a body monomial, spectator thetas included."""
        return mono.weight() + Fraction(self.q - 2, 2)

    def u_apply(self, body: ThetaPoly) -> ThetaPoly:
        return ThetaPoly({mono: c * self.g * self.eigenvalue(mono)
                          for mono, c in body.terms()})

    def u_inverse(self, body: ThetaPoly) -> ThetaPoly:
        ginv = self._ginv
        for mono in body.monomials():
            if mono not in self._u_scales:
                if self.eigenvalue(mono) == 0:
                    raise ZeroWeightError(f"zero-weight division at {mono!r}")
                self._u_scales[mono] = ginv / self.eigenvalue(mono)
        return ThetaPoly({mono: c * self._u_scales[mono] for mono, c in body.terms()})

    def v_apply(self, body: ThetaPoly) -> ThetaPoly:
        du, dth = self._v_multipliers
        parts = chain((m * body.du(s) for s, m in du.items()),
                      (m * body.dtheta(s) for s, m in dth.items()))
        return _project_body(sum_polys(parts), self.q)

    def w_apply(self, body: ThetaPoly) -> ThetaPoly:
        full = self._d1_of(body)
        th1 = ThetaPoly.theta(1)
        return full - th1 * self.u_apply(body) - th1 * self.v_apply(body)


def split_uvw(q: int, g: CoeffExpr | None = None) -> UVWSplit:
    if q < 2:
        raise ValueError("the split needs q >= 2")
    return UVWSplit(q, CoeffExpr.func("g") if g is None else g)


def d1(x: E1Element, g: CoeffExpr | None = None) -> E1Element:
    """Page-one differential, landing at (p+1, q).

    The page itself lives at p >= 1; evaluating the formula on a p = 0
    body is still meaningful (the homotopy round trip passes through it).
    """
    return split_uvw(x.q, g).d1(x)


def homotopy_h(x: E1Element, g: CoeffExpr | None = None) -> E1Element:
    """The perturbation-series contraction, landing at (p-1, q)."""
    return split_uvw(x.q, g).homotopy(x)


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
    independent = all(s.lambda_coefficient(k).is_zero()
                      for k in range(1, s.lambda_degree() + 1))
    value = None
    if independent:
        value = s
        expected = (ts[0] if ts else CoeffExpr.zero()) * Fraction(1, 2)
        if value != expected:
            raise ArithmeticError("independent result must equal t_0/2")
    plus = minus = True
    for i in range(len(ts)):
        nxt = ts[i + 1] if i + 1 < len(ts) else CoeffExpr.zero()
        lhs = ts[i].ddu()
        rate = nxt * Fraction(2 * i + 1, 2)
        if lhs != rate:
            plus = False
        if lhs != -rate:
            minus = False
    return LambdaIndependence(independent, value, plus, minus)
