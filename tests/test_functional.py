"""Local functionals: densities modulo total derivatives.

Two densities give the same functional when their difference is a total
derivative, and the pencil operators descend to functionals because they
commute with the total derivative.  Each statement is made directly on
`is_total_derivative` and `EvolutionaryOp.apply`.
"""

import random

from thetapencil.coeff import CoeffExpr, sym
from thetapencil.algebra import Monomial, ThetaPoly, monomial_basis
from thetapencil.operators import d1_op, d2_op, dlambda_op, is_total_derivative
from thetapencil.pencil import deformation_order2

U = CoeffExpr.var_u()
LAM = CoeffExpr.var_lambda()


def th(s):
    return ThetaPoly.theta(s)


def exact(a):
    return is_total_derivative(a)[0]


def test_class_equal_modulo_exact_terms():
    tt1 = th(0) * th(1)
    shifted = tt1 + (ThetaPoly.jet(1) * th(0) * th(2)).total_derivative()
    assert exact(shifted - tt1)
    assert not exact(tt1)
    assert exact((th(0) * th(2) * sym("f")).total_derivative())


def test_class_witness_is_explicit():
    tt1 = th(0) * th(1)
    w = ThetaPoly.jet(1) * th(0) * th(2)
    ok, witness = is_total_derivative(tt1 + w.total_derivative() - tt1)
    assert ok and witness is not None
    assert witness.total_derivative() == w.total_derivative()


def test_pencil_bivector_is_closed_in_the_quotient():
    pencil = ThetaPoly.monomial(Monomial((), (0, 1)), (U - LAM) * sym("g"))
    assert exact(dlambda_op().apply(pencil))


def test_induced_operator_is_representative_independent():
    D1 = d1_op()
    base = th(0) * th(1) * sym("h")
    shift = (ThetaPoly.jet(1) * th(0) * th(2)).total_derivative()
    assert exact(D1.apply(base + shift) - D1.apply(base))


def test_induced_pencil_linearity_on_classes():
    D1, D2, DL = d1_op(), d2_op(), dlambda_op()
    rng = random.Random(17)
    pool = [m for d in range(1, 4) for m in monomial_basis(d, max_jet=3)]
    for _ in range(10):
        a = ThetaPoly.monomial(rng.choice(pool), sym("f"))
        combo = D2.apply(a) - D1.apply(a) * LAM - DL.apply(a)
        assert combo.is_zero()


def test_induced_differentials_are_nilpotent_on_classes():
    D1, D2 = d1_op(), d2_op()
    rng = random.Random(18)
    pool = [m for d in range(1, 5) for m in monomial_basis(d, max_jet=4)]
    for _ in range(12):
        a = ThetaPoly.monomial(rng.choice(pool), sym("f"))
        for op in (D1, D2):
            assert exact(op.apply(op.apply(a)))
        assert exact(D1.apply(D2.apply(a)) + D2.apply(D1.apply(a)))


def test_bh_cocycle_zero_and_coboundary_zero():
    zero = ThetaPoly.zero()
    assert exact(d1_op().apply(zero)) and exact(d2_op().apply(zero))
    assert exact(zero - d1_op().apply(d2_op().apply(zero)))


def test_bh_cocycle_of_point_density():
    # a = f(u) theta0 at (d, p) = (0, 1): closed iff the first-structure
    # image is exact; for generic f it is not.
    a = th(0) * sym("f")
    assert not (exact(d1_op().apply(a)) and exact(d2_op().apply(a)))


def test_deformation_density_is_a_pencil_cocycle_class():
    density = deformation_order2().eps_coefficient(2)
    assert exact(dlambda_op().apply(density))


def test_coboundary_example():
    # A representative of the class of D1 D2 y, shifted by an exact term,
    # is a coboundary: at (d, p) = (1, 0) + (2, 2).
    D1, D2 = d1_op(), d2_op()
    y = ThetaPoly.jet(1) * sym("h")
    image = D1.apply(D2.apply(y))
    assert not image.is_zero()
    shifted = image + (th(0) * th(2) * sym("f")).total_derivative()
    assert set(shifted.bidegree_components()) == {(3, 2)}
    assert exact(shifted - image)
