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
a witness: one peel, `_peel`, a division modulo the total derivative,
undoes, one leading term at a time (the highest log(u1) power first, then
lex-greatest by `lex_key`), the jet bump that created it, or sets it aside
as remainder.  On u1 a leading term is one function-atom group of c(u), so
the division modulo d/du that undoes c(u) u1 runs in the same loop, under
one step cap, and the normal form is linear on c(u) u1; c log(u1)^j u2/u1
is still undone whole.  Only a remainder goes to the Euler operators
sum (-d)^s d/du^s and sum (-d)^s d/dtheta^s, so a non-exact input pays for
a peel first.  With P_s the s-th partial and `top` the largest jet index,
each is evaluated in Horner form P_0 - d(P_1 - d(P_2 - ... - d(P_top))),
which takes `top` total derivatives instead of top(top+1)/2.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import G, CoeffExpr
from .algebra import D_LOG_U1, Monomial, ThetaPoly, derivative_chain, lex_key, sum_polys


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

class NotExact(ArithmeticError):
    """The peel left a remainder that it cannot undo: no witness in this ring."""

    def __init__(self, remainder: ThetaPoly):
        super().__init__(remainder)
        self.remainder = remainder

    def __str__(self) -> str:
        return "the peel leaves " + self.remainder.render()


class ConstantObstruction(ArithmeticError):
    """A degree-zero component blocks the exactness question."""


# Steps of the division `_peel` before it is a runaway.
_MAX_PEEL_STEPS = 10_000

_U1 = Monomial.jet(1)


def _rank(funcs) -> list:
    """A group's rank: its atoms and exponents, highest (order, name) first."""
    return sorted((((order, name), exp) for (name, order), exp in funcs), reverse=True)


def _undo_group(funcs, group: dict) -> CoeffExpr | None:
    """The part whose d/du leads with `group`, the terms with atoms `funcs`,
    or None.  With no atoms, each u^a with a != -1 goes to u^(a+1)/(a+1),
    and None means all of the group is u^-1 (log u).  Else a top atom F^(k)
    of exponent 1, outranking all but F^(k-1), goes to one more power e of
    F^(k-1), over e; None for any other group (F'/F, g h', g(u)c(u))."""
    if not funcs:
        part = {(rad, u_pow + 1, *rest): Fraction(q, u_pow + 1)
                for (rad, u_pow, *rest), q in group.items() if u_pow != -1}
        return CoeffExpr(part) if part else None
    ((order, name), exp), *others = _rank(funcs)
    if exp != 1 or order == 0 or (others and others[0][0] > (order - 1, name)):
        return None
    lowered = dict(funcs)
    del lowered[(name, order)]
    mult = lowered[(name, order - 1)] = lowered.get((name, order - 1), 0) + 1
    if mult == 0:   # the antiderivative would be log F^(k-1)
        return None
    funcs = tuple(sorted(lowered.items()))
    return CoeffExpr({(*key[:6], funcs): Fraction(q, mult) for key, q in group.items()})


def _leading(a: ThetaPoly, select=None):
    """The leading (monomial, coefficient) of a among the terms whose
    (monomial, log(u1) power) passes `select`, or None: highest log(u1) power
    first, then lex-greatest by `lex_key`.  D(log(u1)^j w) = log(u1)^j D(w) +
    (lower log powers): the top log stratum is exact on its own and peels first.
    On u1 the coefficient is one group, the terms whose function atoms lead
    under `_rank`: D C = C' u1, and in C' the bump of C's leading group leads,
    so c(u) u1 divides modulo d/du one group at a time."""
    def strata():
        for mono, coeff in a.terms():
            by_log = coeff.split(4) if coeff.has_extension_atoms() else {0: coeff}
            for log, c in by_log.items():
                if select is None or select(mono, log):
                    yield log, mono, c

    best = max(strata(), key=lambda t: (t[0], lex_key(t[1])), default=None)
    if best is None:
        return None
    log, mono, c = best
    if mono == _U1:
        funcs = max((key[6] for key, _ in c.terms()), key=_rank)
        c = CoeffExpr({key: q for key, q in c.terms() if key[6] == funcs})
    return mono, (c * CoeffExpr.log_u1(log) if log else c)


def undo_top_bump(mono: Monomial, coeff: CoeffExpr) -> ThetaPoly | None:
    """The witness term whose total derivative has coeff * mono as its
    leading term, or None when no ring term does (degree zero, mixed or
    nonlinear top factors, a blocked undo, no antiderivative).  On u1,
    coeff is one group of `_leading`."""
    top = mono.max_jet()
    if top == 0:
        return None
    if mono.has_odd(top):
        if mono.even_exp(top) or mono.has_odd(top - 1):
            return None
        return ThetaPoly.monomial(mono.replace_odd(top, top - 1), coeff)
    if top >= 2:
        if mono.even_exp(top) != 1 or mono.has_odd(top - 1):
            return None
        mult = mono.even_exp(top - 1) + 1
        if mult:
            lowered = ThetaPoly.monomial(mono.with_even(top, 0), coeff / mult)
            return lowered * ThetaPoly.jet(top - 1)
        # c log(u1)^j u2/u1 = D(c log(u1)^(j+1)/(j+1)) when c is free of u
        # and nothing else multiplies it; else that witness leaves a term
        # c' u1 log(u1)^(j+1) with a higher log power, and no peel ends.
        if mono != D_LOG_U1 or not coeff.ddu().is_zero():
            return None
        j = next(coeff.terms())[0][4]
        return ThetaPoly.from_coeff(coeff * CoeffExpr.log_u1() * Fraction(1, j + 1))
    # top == 1, theta1 absent: only c(u) u1 can be undone, via d/du.
    if mono != _U1:
        return None
    group = dict(coeff.terms())
    part = _undo_group(next(iter(group))[6], group)
    return None if part is None else ThetaPoly.from_coeff(part)


def _peel(a: ThetaPoly, select=None) -> tuple[list[ThetaPoly], ThetaPoly]:
    """Divide a modulo the total derivative: undo the top bump of the
    leading term (see `_leading`) among the terms whose (monomial, log(u1)
    power) passes `select` (all terms by default), or set it aside when
    `undo_top_bump` cannot, until no such term is left.  Returns the witness
    parts and the rest a - d(sum of them), the normal form of a when all
    terms are selected."""
    parts, kept = [], []
    for _ in range(_MAX_PEEL_STEPS):
        leading = _leading(a, select)
        if leading is None:
            return parts, sum_polys([a, *kept])
        part = undo_top_bump(*leading)
        if part is None:
            kept.append(ThetaPoly.monomial(*leading))
            a = a - kept[-1]
        else:
            parts.append(part)
            a = a - part.total_derivative()
    raise RuntimeError("division did not terminate")


def exact_witness(a: ThetaPoly) -> ThetaPoly:
    """A witness w with dw = a, the parts of the peel: the leading monomial
    of an exact element is the top jet bump of its witness's leading one.
    Raises NotExact, carrying the remainder, when the peel leaves one."""
    parts, rest = _peel(a)
    if not rest.is_zero():
        raise NotExact(rest)
    return sum_polys(parts)


# c(u) u1 and c log(u1)^j u2/u1 are exact over smooth functions of u, but
# the ring may lack their antiderivatives.
_RING_GAP = frozenset((_U1, D_LOG_U1))


def is_total_derivative(a: ThetaPoly) -> tuple[bool, ThetaPoly | None]:
    """Decide membership in the image of the total derivative.

    The peel's witness w (dw = a by construction) decides; only a remainder
    meets the Euler criterion, valid over smooth functions of u, so a
    non-exact input pays for a peel first.  A remainder in `_RING_GAP` that
    the criterion accepts is exact with no witness in the ring; any other
    is a fault of the peel, whose NotExact propagates.  A d = 0 component
    other than zero makes the question ill-posed here.
    """
    for (d, _p), comp in a.bidegree_components().items():
        if d == 0:
            raise ConstantObstruction("degree-zero term: " + comp.render())
    try:
        return True, exact_witness(a)
    except NotExact as exc:
        if not (variational_derivative_u(a).is_zero()
                and variational_derivative_theta(a).is_zero()):
            return False, None
        if not _RING_GAP.issuperset(exc.remainder.monomials()):
            raise
        return True, None
