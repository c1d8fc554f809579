"""Properties of the operator and exactness layers on random elements.

`integrate_in_u`, the peel restricted to c(u) u1 (`peel_helpers`), is
checked on random coefficients F (rationals, powers of u, sqrt(2), lambda,
eps, log(u1), and g, h, c of orders 0-3 to the powers -1, 1 and 2), on F'
and on F' + G: on F' it returns F less its u-free part, every result
differentiates back, and it finds every antiderivative that the
Gauss-Jordan ansatz it replaced finds (`reference_integrate_in_u`, with
its 100-candidate stop), and the same one.  `is_total_derivative` is
checked on total derivatives D a of random densities: the witness it returns
differentiates back to D a.  On 2,000 seeded densities it decides as the
Euler-first order it replaced (`reference_is_total_derivative`), witness and
exception type included.  The operator of a random scalar A(u, lambda)
commutes with the total derivative.

`_peel` is a division modulo the total derivative, and its rest NF(a) the
normal form.  On any density, log(u1) and negative u1 powers included,
a = D(sum of the parts) + NF(a), NF is idempotent and NF(D w) = 0.  On the
polynomial slices (coefficients r u^k, p <= 3, d <= 6) NF is linear, and
NF(a) = 0 exactly when both Euler operators vanish on a.  On densities of
degree 1-2 whose coefficients mix u^-2..u^3, g, g', c, g c and u g', NF is
additive: c(u) u1 is divided one function-atom group at a time.
"""

import operator
import random
import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.algebra import (D_LOG_U1, ThetaPoly, monomial_basis,  # noqa: E402
                                 sum_polys)
from thetapencil.coeff import CoeffExpr, sym  # noqa: E402
from thetapencil.operators import (_RING_GAP, ConstantObstruction,  # noqa: E402
                                   NotExact, _peel, exact_witness,
                                   is_total_derivative, pencil_operator,
                                   variational_derivative_theta,
                                   variational_derivative_u)
from peel_helpers import integrate_in_u  # noqa: E402

ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(CoeffExpr.var_u, st.integers(-2, 3)),
    st.just(CoeffExpr.sqrt(2)),
    st.builds(CoeffExpr.func, st.sampled_from(["g", "h", "c"]), st.integers(0, 3),
              st.sampled_from([-1, 1, 2])),
    st.builds(CoeffExpr.var_eps, st.integers(0, 2)),
    st.just(CoeffExpr.var_lambda()),
    st.just(CoeffExpr.log_u1()),
)
EXPRS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(st.builds(operator.add, inner, inner),
                            st.builds(operator.mul, inner, inner)),
    max_leaves=6)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


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


def _eliminate(F, dF, pivots):
    """(F, dF) less r times each pivot pair, r the coefficient of the
    pivot's key in dF; the pivots are reduced, so one pass clears them all."""
    coeffs = dict(dF.terms())
    for key, (P, dP) in pivots.items():
        r = coeffs.get(key)
        if r:
            F, dF = F - P * r, dF - dP * r
    return F, dF


# The reference's closure stops growing at this many candidates.
REFERENCE_CANDIDATES = 100


def reference_integrate_in_u(c):
    """The ansatz that `integrate_in_u` replaced: candidate antiderivative
    terms are c's terms raised in u or lowered by one derivative order,
    closed under lowering the terms of each candidate's d/du up to
    `REFERENCE_CANDIDATES`, and d/du(sum x_i cand_i) = c is solved by
    Gauss-Jordan on (F, dF/du) pairs.  None when no combination works."""
    candidates: dict = {}
    for key, _ in c.terms():
        rad, u_pow, *tail = key
        candidates[(rad, u_pow + 1, *tail)] = None
        candidates.update(dict.fromkeys(_lowerings(key)))
    pivots: dict = {}
    order = list(candidates)
    for cand in order:
        F = CoeffExpr({cand: 1})
        dF = F.ddu()
        for key, _ in dF.terms():
            for low in _lowerings(key):
                if low not in candidates and len(order) < REFERENCE_CANDIDATES:
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
    minus_result, remainder = _eliminate(CoeffExpr.zero(), c, pivots)
    return -minus_result if remainder.is_zero() else None


def u_free_part(F: CoeffExpr) -> CoeffExpr:
    """The terms of F with neither u nor a function atom, which d/du kills."""
    return CoeffExpr({key: q for key, q in F.terms() if key[1] == 0 and not key[6]})


@SETTINGS
@given(EXPRS)
def test_integrate_in_u_inverts_ddu(F):
    assert integrate_in_u(F.ddu()) == F - u_free_part(F)


INTEGRANDS = st.one_of(EXPRS, EXPRS.map(CoeffExpr.ddu),
                       st.builds(lambda F, G: F.ddu() + G, EXPRS, ATOMS))


@SETTINGS
@given(INTEGRANDS)
def test_integrate_in_u_finds_what_the_reference_ansatz_finds(c):
    antiderivative = integrate_in_u(c)
    reference = reference_integrate_in_u(c)
    if reference is not None:
        assert antiderivative == reference
    if antiderivative is not None:
        assert antiderivative.ddu() == c


def test_integrate_in_u_needs_repeated_parts():
    u, g = CoeffExpr.var_u(), sym("g")
    assert integrate_in_u((u * g.ddu() - g).ddu()).ddu() == u * g.ddu().ddu()


COEFF_ATOMS = st.one_of(
    st.builds(CoeffExpr.rational, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(CoeffExpr.var_u, st.integers(-1, 2)),
    st.builds(CoeffExpr.func, st.sampled_from(["g", "h"]), st.integers(0, 1)),
    st.just(CoeffExpr.var_lambda()),
)
COEFFS = st.builds(lambda x, y, z: x * y + z, COEFF_ATOMS, COEFF_ATOMS, COEFF_ATOMS)
MONOMIALS = st.sampled_from([m for d in range(4) for m in monomial_basis(d, max_jet=3)])
POLYS = st.lists(st.tuples(MONOMIALS, COEFFS), min_size=1, max_size=3).map(
    lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(POLYS)
def test_witness_round_trip(a):
    da = a.total_derivative()
    ok, witness = is_total_derivative(da)
    assert ok and witness is not None
    assert witness.total_derivative() == da


@SETTINGS
@given(COEFFS, POLYS)
def test_pencil_operator_commutes_with_total_derivative(A, a):
    op = pencil_operator(A)
    assert op(a.total_derivative()) == op(a).total_derivative()


def normal_form(a: ThetaPoly) -> ThetaPoly:
    return _peel(a)[1]


# u1 lowered by up to 2, and log(u1)^j with j <= 2, on the random densities.
EXT_POLYS = st.lists(st.tuples(MONOMIALS, st.integers(0, 2), COEFFS, st.integers(0, 2)),
                     min_size=1, max_size=3).map(
    lambda terms: sum((ThetaPoly.monomial(m.with_even(1, m.even_exp(1) - k),
                                          c * CoeffExpr.log_u1(j))
                       for m, k, c, j in terms), ThetaPoly.zero()))


@SETTINGS
@given(EXT_POLYS)
def test_peel_divides_modulo_the_total_derivative(a):
    parts, rest = _peel(a)
    assert a == sum_polys(parts).total_derivative() + rest


@SETTINGS
@given(EXT_POLYS)
def test_normal_form_is_idempotent(a):
    rest = normal_form(a)
    assert normal_form(rest) == rest


@SETTINGS
@given(EXT_POLYS)
def test_normal_form_of_a_total_derivative_is_zero(w):
    assert normal_form(w.total_derivative()).is_zero()


# Extension-free densities of degree 1-2 whose coefficients mix groups that
# the peel undoes (u^k, k != -1, g', u g') with groups it sets aside (u^-1,
# g, c, g c): NF is additive across them.
NF_COEFFS = [*(CoeffExpr.var_u(k) for k in range(-2, 4)), sym("g"), sym("g", 1), sym("c"),
             sym("g") * sym("c"), CoeffExpr.var_u() * sym("g", 1)]
NF_POLYS = st.lists(st.tuples(st.sampled_from([m for d in (1, 2)
                                               for m in monomial_basis(d, max_jet=3)]),
                              st.sampled_from(NF_COEFFS), st.integers(-3, 3).filter(bool)),
                    min_size=1, max_size=4).map(
    lambda terms: sum((ThetaPoly.monomial(m, c * r) for m, c, r in terms), ThetaPoly.zero()))


@SETTINGS
@given(NF_POLYS, NF_POLYS)
def test_normal_form_is_additive(a, b):
    assert normal_form(a + b) == normal_form(a) + normal_form(b)


SLICES = [(d, p) for d in range(1, 7) for p in range(4)
          if any(True for _ in monomial_basis(d, p=p))]
U_POWERS = st.builds(lambda r, k: CoeffExpr.rational(r) * CoeffExpr.var_u(k),
                     st.integers(-3, 3).filter(bool), st.integers(0, 3))


def slice_polys(d, p):
    """Densities of one (d, p) slice with coefficients r u^k."""
    basis = list(monomial_basis(d, p=p))
    if not basis:
        return st.just(ThetaPoly.zero())
    return st.lists(st.tuples(st.sampled_from(basis), U_POWERS), max_size=4).map(
        lambda terms: sum((ThetaPoly.monomial(m, c) for m, c in terms), ThetaPoly.zero()))


@SETTINGS
@given(st.sampled_from(SLICES).flatmap(lambda dp: st.tuples(
    slice_polys(*dp), slice_polys(*dp), st.integers(-3, 3), st.integers(-3, 3))))
def test_normal_form_is_linear_on_polynomial_slices(case):
    a, b, x, y = case
    assert normal_form(a * x + b * y) == normal_form(a) * x + normal_form(b) * y


@SETTINGS
@given(st.sampled_from(SLICES).flatmap(lambda dp: st.tuples(
    slice_polys(dp[0] - 1, dp[1]), st.one_of(st.just(ThetaPoly.zero()), slice_polys(*dp)))))
def test_normal_form_vanishes_exactly_on_the_euler_kernel(case):
    w, r = case
    a = w.total_derivative() + r
    euler_zero = (variational_derivative_u(a).is_zero()
                  and variational_derivative_theta(a).is_zero())
    assert normal_form(a).is_zero() == euler_zero


def reference_is_total_derivative(a):
    """The order that the peel-first `is_total_derivative` replaced: the
    Euler pair decides, and the peel then builds the witness."""
    comps = a.bidegree_components()
    for (d, _p), comp in comps.items():
        if d == 0 and not comp.is_zero():
            raise ConstantObstruction("degree-zero term: " + comp.render())
    if not (variational_derivative_u(a).is_zero()
            and variational_derivative_theta(a).is_zero()):
        return False, None
    try:
        parts = [exact_witness(comp) for _dp, comp in sorted(comps.items())]
    except NotExact as exc:
        if not _RING_GAP.issuperset(exc.remainder.monomials()):
            raise
        return True, None
    return True, sum_polys(parts)


# Monomials of degree <= 3 and jets <= 3, each also with u1 lowered by 1 and 2.
GATE_MONOS = sorted({m.with_even(1, m.even_exp(1) - k) for d in range(4)
                     for m in monomial_basis(d, max_jet=3) for k in (0, 1, 2)}, key=repr)
GATE_ATOMS = [CoeffExpr.rational(1, 2), CoeffExpr.rational(-3), CoeffExpr.var_u(),
              CoeffExpr.var_u(2), sym("f"), sym("g"), sym("c"), sym("g", 1), sym("c", 1),
              CoeffExpr.log_u1(), CoeffExpr.log_u1(2)]
# Remainders that the peel leaves and the Euler pair must decide: g c u1 and
# f c u1 are exact with no ring witness; c log(u1)^j u2/u1 (c' != 0) is not exact.
GAP_TERMS = [ThetaPoly.jet(1) * (sym("g") * sym("c")), ThetaPoly.jet(1) * (sym("f") * sym("c")),
             ThetaPoly.monomial(D_LOG_U1, sym("c") * CoeffExpr.log_u1()),
             ThetaPoly.monomial(D_LOG_U1, sym("c") * CoeffExpr.log_u1(2))]


def _gate_density(rng, kind):
    """A density of one of five kinds: D w, any, D w plus a ring-gap term,
    any plus a ring-gap term, and D w plus a degree-zero term."""
    def poly():
        return sum_polys(ThetaPoly.monomial(rng.choice(GATE_MONOS),
                                            rng.choice(GATE_ATOMS) * rng.choice(GATE_ATOMS)
                                            * rng.choice((1, -2, 3)))
                         for _ in range(rng.randint(1, 3)))
    exact = poly().total_derivative()
    if kind == 0:
        return exact
    if kind == 1:
        return poly()
    if kind in (2, 3):
        return (exact if kind == 2 else poly()) + rng.choice(GAP_TERMS)
    return exact + ThetaPoly.from_coeff(rng.choice(GATE_ATOMS[:9]))


def _outcome(decide, a):
    try:
        return decide(a)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def test_peel_first_decides_as_the_euler_first_reference():
    rng = random.Random(26)
    seen = set()
    for n in range(2000):
        a = _gate_density(rng, n % 5)
        start = time.perf_counter()
        got = _outcome(is_total_derivative, a)
        assert time.perf_counter() - start < 0.5, a.render()
        assert got == _outcome(reference_is_total_derivative, a), a.render()
        seen.add(got if isinstance(got, type) else (got[0], got[1] is not None))
    assert {(True, True), (False, False), (True, False), ConstantObstruction} <= seen
