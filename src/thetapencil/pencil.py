"""Brackets in the delta-function formalism and their deformations.

A bracket {u(x), u(y)} = sum_e,k eps^e A_{e,k} delta^(k)(x-y) is stored
through its operator K = sum A_k d^k (eps kept inside the coefficients);
skewness means K conjugated by integration by parts equals -K.  The
correspondence with bivector densities is

    P = sum_{k>=1} A_k theta0 theta^k   <->   K = sum_k A_k d^k,

the delta^0 coefficient being recovered from skewness (for a hydrodynamic
bracket this is the familiar A_0 = (1/2) A_1').  Any p = 2 density P
gives its skew operator through delta P / delta theta = 2 K(theta); the
Euler operator discards the exact part of P, so the class fixes K.

Miura transformations w = F(u) act by K_u = L^{-1} K_w (L^adj)^{-1} with
L the linearization of F, inverted as a formal Neumann series in eps.
Lattice (shift-operator) brackets carry ``CoeffExpr`` coefficients whose
only atoms are the point values u(x + a eps), u(y + b eps), held as the
formal atoms F^(a)(u) with F = x or y (reserved names, so no user symbol
clashes with them; `parsing.parse_lattice_coeff` reads them).  They
expand on the support of the shifted delta: a(y) delta(x - y + s eps) =
a(x + s eps) delta(x - y + s eps) moves every point value to the x side,
where f(u)(x + c eps) = sum_m (c eps)^m / m! D^m f(u) Taylor-expands it
into x-jets (f = u unless a polynomial substitution is given), and
delta(x - y + s eps) = sum_j (s eps)^j / j! delta^(j)(x - y).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from .coeff import C, G, CoeffExpr
from .algebra import Monomial, ThetaPoly, derivative_chain, sum_polys
from .operators import (NotExact, _peel, _pencil_scalar, d1_op, d2_op, dlambda_op,
                        variational_derivative_theta, variational_derivative_u)
from .parsing import (check_coordinate, check_counts, parse_density, parse_lattice_coeff,
                      render_poly)

_U = CoeffExpr.var_u
_EPS = CoeffExpr.var_eps


def _eps_truncate(p: ThetaPoly, order: int) -> ThetaPoly:
    return ThetaPoly((mono, CoeffExpr({k: q for k, q in coeff.terms() if k[3] <= order}))
                     for mono, coeff in p.terms())


def _product(factors, order: int) -> ThetaPoly:
    """The product of the factors, truncated at eps^order after each one."""
    first, *rest = factors
    out = _eps_truncate(first, order)
    for f in rest:
        out = _eps_truncate(out * f, order)
    return out


# -- differential operators ---------------------------------------------------

class DiffOperator:
    """sum_k A_k d^k with differential-polynomial coefficients (p = 0)."""

    def __init__(self, coeffs: dict[int, ThetaPoly] | None = None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if not c.is_zero()}

    @staticmethod
    def identity() -> "DiffOperator":
        return DiffOperator({0: ThetaPoly.one()})

    def order(self) -> int:
        return max(self.coeffs, default=-1)

    def coefficient(self, k: int) -> ThetaPoly:
        return self.coeffs.get(k, ThetaPoly.zero())

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ThetaPoly.zero()) + c
        return DiffOperator(out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def __mul__(self, other) -> "DiffOperator":
        if isinstance(other, (int, Fraction, CoeffExpr)):
            return DiffOperator({k: c * other for k, c in self.coeffs.items()})
        out: dict[int, ThetaPoly] = {}
        chains = {j: derivative_chain(B) for j, B in other.coeffs.items()}
        for i, A in self.coeffs.items():
            for j, chain in chains.items():
                # d^i o (B d^j) = sum_m binom(i,m) d^{i-m}(B) d^{m+j}
                for m in range(i, -1, -1):
                    out[m + j] = out.get(m + j, ThetaPoly.zero()) \
                        + A * chain(i - m) * comb(i, m)
        return DiffOperator(out)

    __rmul__ = __mul__

    def adjoint(self) -> "DiffOperator":
        """sum_k (-d)^k o A_k, expanded to normal form."""
        out: dict[int, ThetaPoly] = {}
        for k, A in self.coeffs.items():
            chain = derivative_chain(A)
            sign = 1 if k % 2 == 0 else -1
            for j in range(k, -1, -1):
                out[j] = out.get(j, ThetaPoly.zero()) + chain(k - j) * (sign * comb(k, j))
        return DiffOperator(out)

    def truncate_eps(self, order: int) -> "DiffOperator":
        return DiffOperator({k: _eps_truncate(c, order) for k, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self) -> str:
        inner = " + ".join(f"({c.render()})*d^{k}" for k, c in sorted(self.coeffs.items()))
        return f"DiffOperator({inner or '0'})"


# -- delta brackets ------------------------------------------------------------

def _read_document(data, list_key: str, fields: dict, least=None) -> tuple[str, list]:
    """(coordinate, terms) of a bracket document, a term being its int `fields`
    in order, each at least `least` if given, then its coeff string; `fields`
    maps a name to its default, None if required.  Else raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get(list_key), list):
        raise ValueError(f"a bracket document is an object with a {list_key!r} list")
    coordinate = data.get("coordinate", "u")
    if not isinstance(coordinate, str):
        raise ValueError(f"bracket coordinate {coordinate!r} is not a string")
    check_coordinate(coordinate)
    rows = []
    for t in data[list_key]:
        row = isinstance(t, dict) and [t.get(k, default) for k, default in fields.items()]
        if not (row and isinstance(t.get("coeff"), str) and all(
                type(v) is int and (least is None or v >= least) for v in row)):
            bound = "" if least is None else f" >= {least}"
            raise ValueError(f"bracket term {t!r} needs a string coeff and integers "
                             + ", ".join(k + bound for k in fields))
        rows.append((*row, t["coeff"]))
    return coordinate, rows


def _load_json(path):
    """The JSON document in a file; one nested too deeply is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON document nested too deeply") from None


@dataclass
class DeltaBracket:
    """A bracket, stored through its operator; eps lives in the coefficients.

    Coefficients may carry lambda when the bracket is a pencil member.
    """

    coordinate: str
    op: DiffOperator

    def __post_init__(self):
        for poly in self.op.coeffs.values():
            if any(mono.degree_p() for mono in poly.monomials()):
                raise ValueError(f"bracket coefficient {poly.render()} holds a theta")
        check_coordinate(self.coordinate, {
            name for poly in self.op.coeffs.values()
            for _, key, _ in poly.flat_terms() for (name, _), _ in key[6]})

    @staticmethod
    def from_terms(coordinate: str, terms) -> "DeltaBracket":
        coeffs: dict[int, ThetaPoly] = {}
        for eps, der, coeff in terms:
            # eps^e delta^(k) has differential degree e + 1 - k, never negative
            if der > eps + 1:
                raise ValueError(f"bracket term eps^{eps} delta^({der}) has der > eps + 1")
            if isinstance(coeff, str):
                coeff = parse_density(coeff, coordinate=coordinate)
            if coeff.has_extension_atoms():
                raise ValueError(f"bracket coefficient {coeff.render()} holds an extension atom")
            piece = coeff * _EPS(eps) if eps else coeff
            coeffs[der] = coeffs.get(der, ThetaPoly.zero()) + piece
        return DeltaBracket(coordinate, DiffOperator(coeffs))

    def terms(self) -> list[tuple[int, int, ThetaPoly]]:
        return sorted(((e, der, part) for der, poly in self.op.coeffs.items()
                       for e, part in poly.eps_components().items()), key=lambda t: t[:2])

    def coefficient(self, eps: int, der: int) -> ThetaPoly:
        return self.op.coefficient(der).eps_coefficient(eps)

    def is_skew(self) -> bool:
        return (self.op.adjoint() + self.op).is_zero()

    def to_dict(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "terms": [{"eps": e, "der": k, "coeff": render_poly(part, self.coordinate)}
                      for e, k, part in self.terms()],
        }

    @staticmethod
    def from_dict(data) -> "DeltaBracket":
        """Read a bracket document; any other shape raises ValueError."""
        return DeltaBracket.from_terms(*_read_document(
            data, "terms", {"eps": None, "der": None}, least=0))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @staticmethod
    def load(path) -> "DeltaBracket":
        return DeltaBracket.from_dict(_load_json(path))


def hydrodynamic_bracket(metric: CoeffExpr) -> DeltaBracket:
    """g d'(x-y) + (1/2) g' u1 d(x-y) for a (possibly lambda-linear) metric."""
    lifted = ThetaPoly.from_coeff(metric)
    return DeltaBracket("u", DiffOperator({
        1: lifted,
        0: lifted.total_derivative() * Fraction(1, 2),
    }))


def _hydro_metric(b: DeltaBracket) -> CoeffExpr:
    """The scalar g of a hydrodynamic leading term g d' + (1/2) g' u1 d."""
    lead = b.op.truncate_eps(0)
    g = lead.coefficient(1).as_coeff()
    if lead != hydrodynamic_bracket(g).op:
        raise ValueError("dispersionless part is not g d' + 1/2 g' u1 d")
    return g


def theta_to_delta(p: ThetaPoly) -> DeltaBracket:
    """Bracket of a p = 2 density, read off its variational derivative.

    delta P / delta theta = 2 K(theta) for the skew operator K of the
    bracket, and the Euler operator kills the exact part of P, so K_k is
    half the theta^k coefficient of delta P / delta theta.
    """
    if any(mono.degree_p() != 2 for mono in p.monomials()):
        raise ValueError("not a bivector")
    half = variational_derivative_theta(p) * Fraction(1, 2)
    return DeltaBracket("u", DiffOperator(
        {k: half.dtheta(k) for k in range(half.max_jet() + 1)}))


def delta_to_theta(b: DeltaBracket) -> ThetaPoly:
    return sum_polys(ThetaPoly.monomial(Monomial((), (0, k))) * A
                     for k, A in b.op.coeffs.items() if k >= 1)


def central_invariant(b1: DeltaBracket, b2: DeltaBracket) -> CoeffExpr:
    """(Q2 - u Q1) / (3 g^2) from the eps^2 delta''' coefficients."""
    g1 = _hydro_metric(b1)
    g2 = _hydro_metric(b2)
    if g2 != _U() * g1:
        raise ValueError("not in canonical coordinate: g2 != u * g1")
    q1 = b1.coefficient(2, 3).as_coeff()
    q2 = b2.coefficient(2, 3).as_coeff()
    return (q2 - _U() * q1) / (g1 * g1 * 3)


# -- Miura transformations ------------------------------------------------------

@dataclass
class MiuraTransform:
    """A change of dependent variable w = u + sum_{e>=1} eps^e F_e(u,...,u^e)."""

    expr: ThetaPoly

    def __post_init__(self):
        if self.expr.has_extension_atoms():
            raise ValueError("transform holds an extension atom")
        if self.expr.eps_coefficient(0) != ThetaPoly.from_coeff(_U()):
            raise ValueError("leading term must be the identity")
        for e in range(1, self.expr.eps_degree() + 1):
            part = self.expr.eps_coefficient(e)
            for mono, coeff in part.terms():
                if mono.degree_p():
                    raise ValueError("transform must be even")
                if mono.max_jet() > e:
                    raise ValueError(f"order-{e} term uses jets beyond u^{e}")

    @staticmethod
    def parse(text: str) -> "MiuraTransform":
        return MiuraTransform(parse_density(text))

    def delta_part(self) -> ThetaPoly:
        return self.expr - ThetaPoly.from_coeff(_U())

    def linearization(self) -> DiffOperator:
        return DiffOperator({s: self.expr.du(s) for s in range(self.expr.max_jet() + 1)})


def substitute_coordinate(poly: ThetaPoly, f: MiuraTransform, order: int) -> ThetaPoly:
    """Reexpress a p = 0 polynomial in w-jets through u-jets, w = F(u).

    Jets map to total derivatives of F; the coefficient dependence on the
    base variable is Taylor-expanded along F - u (an eps >= 1 series).
    """
    delta = f.delta_part()
    jet_image = derivative_chain(f.expr)
    out = ThetaPoly.zero()
    for mono, coeff in poly.terms():
        taylor = ThetaPoly.from_coeff(coeff)
        power = ThetaPoly.one()
        der = coeff
        for j in range(1, order + 1):
            power = _eps_truncate(power * delta, order)
            der = der.ddu()
            taylor = taylor + power * der * Fraction(1, factorial(j))
        images = [jet_image(s) for s, e in mono.evens for _ in range(e)]
        out = out + _product([taylor] + images, order)
    return out


def _neumann_inverse(op: DiffOperator, order: int) -> DiffOperator:
    """(1 + N)^{-1} as a finite eps series; N must have eps degree >= 1."""
    n = op - DiffOperator.identity()
    acc = DiffOperator.identity()
    power = DiffOperator.identity()
    for k in range(1, order + 1):
        power = (power * n).truncate_eps(order)
        acc = acc + power * ((-1) ** k)
    return acc


def miura_transform(b: DeltaBracket, f: MiuraTransform, order: int,
                    new_coordinate: str = "u") -> DeltaBracket:
    """Push a bracket through w = F(u): K_u = L^{-1} K_w (L^adj)^{-1}."""
    check_counts(order=order)
    mid = DiffOperator({k: substitute_coordinate(c, f, order)
                        for k, c in b.op.coeffs.items()})
    lin = f.linearization().truncate_eps(order)
    linv = _neumann_inverse(lin, order)
    return DeltaBracket(new_coordinate, (linv * mid * linv.adjoint()).truncate_eps(order))


# -- lattice brackets -------------------------------------------------------------

@dataclass
class LatticeBracket:
    """A shift-operator bracket: terms C * delta(x - y + s eps) * eps^p."""

    coordinate: str
    shift_terms: list[tuple[int, int, CoeffExpr]]   # (shift, eps_power, coeff)

    @staticmethod
    def from_dict(data) -> "LatticeBracket":
        """Read a lattice document; any other shape raises ValueError."""
        coordinate, rows = _read_document(data, "shift_terms",
                                          {"shift": None, "eps_power": 0})
        return LatticeBracket(coordinate, [
            (shift, ep, parse_lattice_coeff(coeff, coordinate)) for shift, ep, coeff in rows])

    @staticmethod
    def load(path) -> "LatticeBracket":
        return LatticeBracket.from_dict(_load_json(path))


def _point(shift: int, chain, cap: int) -> ThetaPoly:
    """image(u(x + shift eps)) = sum_m (shift eps)^m / m! D^m(image(u)),
    through eps^cap, from the chain m -> D^m(image(u))."""
    return sum_polys(chain(m) * (_EPS(m) * Fraction(shift ** m, factorial(m)))
                     for m in range(cap + 1))


def expand_lattice_bracket(b: LatticeBracket, order: int = 2,
                           subst: CoeffExpr | None = None) -> DeltaBracket:
    """Expand shifted delta functions into a local eps-series bracket.

    On the support of delta(x - y + s eps), a(y) = a(x + s eps): a term with
    shift s sends each point u(y + b eps) to u(x + (s + b) eps).  Each point
    u(x + c eps) is Taylor-expanded into x-jets, and delta(x - y + s eps) =
    sum_j (s eps)^j / j! delta^(j)(x - y); every series stops at eps^order.
    With ``subst``, a polynomial f in the coordinate, each point value u is
    replaced by f(u) before the expansion.  Negative eps powers must cancel
    between the shift terms (checked).
    """
    check_counts(order=order)
    image = _U() if subst is None else subst
    for (rad, u_pow, *rest), _ in image.terms():
        if rad != 1 or u_pow < 0 or any(rest):
            raise ValueError("substitution must be a polynomial in the "
                             "coordinate")
    chain = derivative_chain(ThetaPoly.from_coeff(image))
    coeffs: dict[int, ThetaPoly] = {}
    for shift, ep, coeff in b.shift_terms:
        cap = order - ep
        terms = []
        for key, q in coeff.terms():
            factors = [ThetaPoly.one() * q]
            for (side, a), e in key[6]:
                factors += [_point(a + shift if side == "y" else a, chain, cap)] * e
            terms.append(_product(factors, cap))
        series = sum_polys(terms)
        for j in range(cap + 1):
            piece = series * (_EPS(j + ep) * Fraction(shift ** j, factorial(j)))
            coeffs[j] = coeffs.get(j, ThetaPoly.zero()) + _eps_truncate(piece, order)
    bad = sorted({(key[3], k) for k, poly in coeffs.items()
                  for _, key, _ in poly.flat_terms() if key[3] < 0})
    if bad:
        raise ValueError(f"negative eps powers did not cancel: {bad}")
    return DeltaBracket(b.coordinate, DiffOperator(coeffs))


# -- the order-eps^2 deformation ----------------------------------------------

def _tt(k: int) -> ThetaPoly:
    return ThetaPoly.monomial(Monomial((), (0, k)))


def deformation_order2(g: CoeffExpr = G, c: CoeffExpr = C) -> ThetaPoly:
    """The canonical order-eps^2 deformation of the pencil density
    (u - lambda) g theta0 theta1, with central invariant c."""
    gp, cp = g.ddu(), c.ddu()
    gpp = gp.ddu()
    lead = _tt(1) * _pencil_scalar(g)
    t3 = _tt(3) * (c * g * g * 6)
    t2 = ThetaPoly.jet(1) * _tt(2) * (c * g * gp * 9 + cp * g * g * 6)
    c1 = (-5) * c * gp * gp + cp * g * gp + 4 * c * g * gpp
    t1 = ThetaPoly.jet(1, 2) * _tt(1) * c1 + ThetaPoly.jet(2) * _tt(1) * (c * g * gp * 5)
    return lead + (t3 + t2 + t1) * (_EPS(2) * Fraction(1, 2))


@dataclass
class DeformationCheck:
    """Euler residuals of the pencil differential on the eps^2 density."""

    residual_u: ThetaPoly
    residual_theta: ThetaPoly

    @property
    def ok(self) -> bool:
        return self.residual_u.is_zero() and self.residual_theta.is_zero()


def verify_deformation(g: CoeffExpr = G, c: CoeffExpr = C,
                       density: ThetaPoly | None = None) -> DeformationCheck:
    """Check the eps^2 density is a cocycle for the pencil differential,
    i.e. both variational derivatives of Dlambda(density) vanish
    identically as lambda polynomials."""
    if density is None:
        density = deformation_order2(g, c).eps_coefficient(2)
    image = dlambda_op(g).apply(density)
    return DeformationCheck(variational_derivative_u(image),
                            variational_derivative_theta(image))


# -- the logarithmic generator ---------------------------------------------------

def _strip_extension(work: ThetaPoly) -> ThetaPoly:
    """Reduce a density with extension atoms, modulo exact terms, to a plain one.

    One peel undoes leading terms holding log(u1) or a negative u1 power,
    highest log power first; raises NotExact when it sets one aside.
    """
    _, rest = _peel(work, lambda mono, log: log or mono.even_exp(1) < 0)
    if rest.has_extension_atoms():
        raise NotExact(rest)
    return rest


# Overall scale relating the stripped generator to the closed-form density;
# derived once by comparing variational derivatives, asserted by the tests.
_DLZ_NORMALIZATION = Fraction(4)


def dlz_generator(g: CoeffExpr = G, c: CoeffExpr = C) -> ThetaPoly:
    """The eps^2 deformation class generated from logarithmic densities.

    Computes the first-structure image of (second-structure image of
    [c u1 log u1]) minus (first-structure image of [u c u1 log u1]),
    reduces the result modulo exact terms until every log(u1) and
    negative u1 power cancels, and returns the plain density, normalized
    to match the closed-form coefficient convention.
    """
    log = CoeffExpr.log_u1()
    rho = ThetaPoly.monomial(Monomial.jet(1), c * log)
    sigma = ThetaPoly.monomial(Monomial.jet(1), _U() * c * log)
    d1, d2 = d1_op(g), d2_op(g)
    raw = d1.apply(d2.apply(rho) - d1.apply(sigma))
    plain = _strip_extension(raw)
    return plain * _DLZ_NORMALIZATION
