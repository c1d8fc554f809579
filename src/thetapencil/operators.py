"""Evolutionary operators, variational derivatives and the exactness test.

An evolutionary operator is determined by its characteristics (X_u, X_theta)
and acts through the prolongation

    D = sum_s d^s(X_u) d/du^s  +  sum_s d^s(X_theta) d/dtheta^s

with d the total derivative, d/du^0 acting on coefficients through d/du,
and d/dtheta^s the left graded derivative.  The three operators of the
pencil family all arise from a single scalar A(u, lambda):

    X_u = A theta1 + (1/2) A' u1 theta0,   X_theta = (1/2) A' theta0 theta1

with A = g, A = u g and A = (u - lambda) g respectively.

Exactness (membership in the image of the total derivative) is decided by
the Euler operators sum (-d)^s d/du^s and sum (-d)^s d/dtheta^s.  With P_s
the s-th partial of the element and `top` its largest jet index, each is
evaluated in Horner form P_0 - d(P_1 - d(P_2 - ... - d(P_top))), which takes
`top` total derivatives instead of top(top+1)/2.  A witness is
reconstructed by one peel, `_peel`: undo, one leading term at a time (the
highest log(u1) power first, then lexicographically greatest), the jet
bump that created it.  A residual c(u) u1 is undone by `integrate_in_u`,
a sparse elimination over candidate antiderivatives.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import G, CoeffExpr
from .algebra import (D_LOG_U1, Monomial, ThetaPoly, derivative_chain, lex_compare,
                      sum_polys)


def _prolong(a: ThetaPoly, xu_der, xtheta_der):
    """The nonzero parts d^s(X_u) da/du^s and d^s(X_theta) da/dtheta^s of a
    prolongation, given the s-th derivatives of the characteristics."""
    for s in range(a.max_jet() + 1):
        da = a.du(s)
        if not da.is_zero():
            yield xu_der(s) * da
        dth = a.dtheta(s)
        if not dth.is_zero():
            yield xtheta_der(s) * dth


class EvolutionaryOp:
    """A derivation given by characteristics and prolonged by the total
    derivative.  Odd for all operators used here (they raise p by one)."""

    def __init__(self, xu: ThetaPoly, xtheta: ThetaPoly):
        self.xu = xu
        self.xtheta = xtheta
        self.xu_der = derivative_chain(xu)
        self.xtheta_der = derivative_chain(xtheta)

    def apply(self, a: ThetaPoly) -> ThetaPoly:
        return sum_polys(_prolong(a, self.xu_der, self.xtheta_der))

    def __call__(self, a: ThetaPoly) -> ThetaPoly:
        return self.apply(a)

    def __repr__(self) -> str:
        return f"EvolutionaryOp({self.xu.render()})"


def _characteristics(A: CoeffExpr, k: int) -> tuple[ThetaPoly, ThetaPoly]:
    """(X_u, X_theta) of the scalar A at jet index k: k = 1 gives the
    characteristics, k = q + 1 the index-(q+1) part of their q-th prolongation."""
    half_dA = A.ddu() * Fraction(1, 2)
    xu = ThetaPoly.theta(k) * A + ThetaPoly.monomial(
        Monomial(((k, 1),), (0,)), half_dA)
    xtheta = ThetaPoly.monomial(Monomial((), (0, k)), half_dA)
    return xu, xtheta


def pencil_operator(a_of_u_lambda: CoeffExpr) -> EvolutionaryOp:
    """The odd operator attached to the scalar A: see the module docstring."""
    return EvolutionaryOp(*_characteristics(a_of_u_lambda, 1))


def _pencil_scalar(g: CoeffExpr) -> CoeffExpr:
    """The pencil's scalar A = (u - lambda) g."""
    return (CoeffExpr.var_u() - CoeffExpr.var_lambda()) * g


def d1_op(g: CoeffExpr = G) -> EvolutionaryOp:
    return pencil_operator(g)


def d2_op(g: CoeffExpr = G) -> EvolutionaryOp:
    return pencil_operator(CoeffExpr.var_u() * g)


def dlambda_op(g: CoeffExpr = G) -> EvolutionaryOp:
    return pencil_operator(_pencil_scalar(g))


# -- variational derivatives -------------------------------------------------

def _euler(a: ThetaPoly, partial) -> ThetaPoly:
    """sum_s (-D)^s partial(a, s) for the partial derivative in u_s or
    theta_s, in the Horner form of the module docstring."""
    top = a.max_jet()
    out = partial(a, top)
    for s in range(top - 1, -1, -1):
        out = partial(a, s) - out.total_derivative()
    return out


def variational_derivative_u(a: ThetaPoly) -> ThetaPoly:
    return _euler(a, ThetaPoly.du)


def variational_derivative_theta(a: ThetaPoly) -> ThetaPoly:
    return _euler(a, ThetaPoly.dtheta)


# -- exactness ---------------------------------------------------------------

class NotExact(ValueError):
    """The element admits no witness in this ring."""


class IntegrationObstruction(NotExact):
    """A residual f(u) u1 whose coefficient has no ring antiderivative."""


class ConstantObstruction(ValueError):
    """A degree-zero component blocks the exactness question."""


def _lowerings(key):
    """`key` with one factor F^(k), k >= 1 and exponent > 0, made F^(k-1)."""
    *head, funcs = key
    for atom, exp in funcs:
        name, order = atom
        if order == 0 or exp < 0:
            continue
        lowered = dict(funcs)
        if exp == 1:
            lowered.pop(atom)
        else:
            lowered[atom] = exp - 1
        down = (name, order - 1)
        lowered[down] = lowered.get(down, 0) + 1
        if lowered[down] == 0:
            lowered.pop(down)
        yield (*head, tuple(sorted(lowered.items())))


# The closure stops growing at this many candidates: elimination costs about
# the cube of their count, and with negative exponents it may not be finite.
_MAX_CANDIDATES = 100


def integrate_in_u(c: CoeffExpr) -> CoeffExpr:
    """An antiderivative of c in the coefficient ring, by a linear ansatz.

    Candidate antiderivative terms are the terms of c raised in u or
    lowered by one function-derivative order, closed under lowering the
    terms of each candidate's d/du (so u g'' finds u g' - g, by repeated
    integration by parts); the linear system d/du(sum x_i cand_i) = c is
    then solved exactly, by sparse elimination.
    Raises IntegrationObstruction when no combination works (e.g. the
    integrand g(u)c(u), whose antiderivative exists only in the smooth
    closure of the ring).
    """
    candidates: dict = {}
    for key, _ in c.terms():
        rad, u_pow, *tail = key
        candidates[(rad, u_pow + 1, *tail)] = None
        candidates.update(dict.fromkeys(_lowerings(key)))
    # Gauss-Jordan on pairs (F, dF/du): each pivot's dF/du has coefficient 1
    # at its key and 0 at every other pivot's key.  The loop also visits the
    # candidates it appends.
    pivots: dict = {}
    order = list(candidates)
    for cand in order:
        F = CoeffExpr({cand: 1})
        dF = F.ddu()
        for key, _ in dF.terms():
            for low in _lowerings(key):
                if low not in candidates and len(order) < _MAX_CANDIDATES:
                    candidates[low] = None
                    order.append(low)
        F, dF = _eliminate(F, dF, pivots)
        if dF.is_zero():
            continue
        key, q = next(dF.terms())
        inv = Fraction(1) / q
        F, dF = F * inv, dF * inv
        for k, (P, dP) in pivots.items():
            r = dict(dP.terms()).get(key)
            if r:
                pivots[k] = (P - F * r, dP - dF * r)
        pivots[key] = (F, dF)
    # The remainder is c - d/du(result).
    minus_result, remainder = _eliminate(CoeffExpr.zero(), c, pivots)
    if not remainder.is_zero():
        raise IntegrationObstruction(f"no ring antiderivative of {c.render()}")
    return -minus_result


def _eliminate(F: CoeffExpr, dF: CoeffExpr, pivots: dict) -> tuple[CoeffExpr, CoeffExpr]:
    """(F, dF) less r times each pivot pair, r the coefficient of the
    pivot's key in dF; the pivots are reduced, so one pass clears them all."""
    coeffs = dict(dF.terms())
    for key, (P, dP) in pivots.items():
        r = coeffs.get(key)
        if r:
            F, dF = F - P * r, dF - dP * r
    return F, dF


def _leading(flat_terms):
    """The leading (monomial, coefficient) of (monomial, key, rational) terms,
    or None: highest log(u1) power first, then lex-greatest.  D(log(u1)^j w)
    = log(u1)^j D(w) + (lower log powers), so the top log stratum is exact
    on its own and peels before the rest."""
    groups: dict = {}
    for mono, key, q in flat_terms:
        groups.setdefault((key[4], mono), {})[key] = q
    best = None
    for log, mono in groups:
        if best is None or log > best[0] or (
                log == best[0] and lex_compare(mono, best[1]) > 0):
            best = (log, mono)
    if best is None:
        return None
    return best[1], CoeffExpr(groups[best])


def undo_top_bump(mono: Monomial, coeff: CoeffExpr) -> ThetaPoly:
    """The witness term whose total derivative restores coeff * mono as
    its lex-leading term.  Raises NotExact when the monomial cannot be a
    leading term of an exact element (mixed or nonlinear top factors,
    blocked undos)."""
    top = mono.max_jet()
    if top == 0:
        raise NotExact(f"degree-zero residual {mono!r}")
    if mono.has_odd(top):
        if mono.even_exp(top):
            raise NotExact(f"mixed top factors in {mono!r}")
        if mono.has_odd(top - 1):
            raise NotExact(f"blocked theta undo in {mono!r}")
        return ThetaPoly.monomial(mono.replace_odd(top, top - 1), coeff)
    if top >= 2:
        if mono.even_exp(top) != 1:
            raise NotExact(f"nonlinear top jet in {mono!r}")
        if mono.has_odd(top - 1):
            raise NotExact(f"blocked jet undo in {mono!r}")
        mult = mono.even_exp(top - 1) + 1
        if mult == 0:
            # c log(u1)^j u2/u1 = D(c log(u1)^(j+1)/(j+1)) when c is free of u
            # and nothing else multiplies it; else that witness leaves a term
            # c' u1 log(u1)^(j+1) with a higher log power, and no peel ends.
            if mono != D_LOG_U1 or not coeff.ddu().is_zero():
                raise IntegrationObstruction("logarithmic jet residue")
            j = next(coeff.terms())[0][4]
            return ThetaPoly.from_coeff(coeff * CoeffExpr.log_u1() * Fraction(1, j + 1))
        lowered = ThetaPoly.monomial(mono.with_even(top, 0), coeff / mult)
        return lowered * ThetaPoly.jet(top - 1)
    # top == 1, theta1 absent: only c(u) u1 can be undone, via d/du.
    if mono.even_exp(1) != 1 or mono.odds:
        raise NotExact(f"terminal residual {coeff.render()} * {mono!r}")
    return ThetaPoly.from_coeff(integrate_in_u(coeff))


# Steps of one peel before it is taken for a runaway.
_MAX_PEEL_STEPS = 10_000


def _peel(a: ThetaPoly, select=None) -> tuple[list[ThetaPoly], ThetaPoly]:
    """Undo the top bump of the leading term (see `_leading`), among the
    terms whose (monomial, key) passes `select` (all terms by default), until
    none is left.  Returns the witness parts and the rest a - d(sum of them).
    Raises NotExact when a leading term cannot be undone."""
    parts = []
    while True:
        terms = a.flat_terms()
        leading = _leading(terms if select is None
                           else (t for t in terms if select(t[0], t[1])))
        if leading is None:
            return parts, a
        if len(parts) == _MAX_PEEL_STEPS:
            raise RuntimeError("peel did not terminate")
        parts.append(undo_top_bump(*leading))
        a = a - parts[-1].total_derivative()


def exact_witness(a: ThetaPoly) -> ThetaPoly:
    """A witness w with dw = a, for a in the image of the total derivative.

    Greedy: the leading monomial of an exact element always arises from
    bumping the top jet factor of the leading monomial of its (unique,
    degree reasons) witness; undo that bump and iterate.  Raises NotExact
    when a leading term cannot be produced that way.
    """
    parts, _ = _peel(a)
    return sum_polys(parts)


def is_total_derivative(a: ThetaPoly) -> tuple[bool, ThetaPoly | None]:
    """Decide membership in the image of the total derivative.

    Truth is decided by the Euler criterion (valid over smooth functions
    of u); the witness is constructed in the ring when possible.  A d = 0
    component other than zero makes the question ill-posed here.
    """
    comps = a.bidegree_components()
    for (d, _p), comp in comps.items():
        if d == 0 and not comp.is_zero():
            raise ConstantObstruction("degree-zero term: " + comp.render())
    if not variational_derivative_u(a).is_zero():
        return False, None
    if not variational_derivative_theta(a).is_zero():
        return False, None
    try:
        parts = [exact_witness(comp) for _dp, comp in sorted(comps.items())]
    except IntegrationObstruction:
        return True, None
    return True, sum_polys(parts)
