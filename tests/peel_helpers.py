"""The antiderivative in u, as a test helper over the one division `_peel`."""

from thetapencil.algebra import Monomial, ThetaPoly, sum_polys
from thetapencil.coeff import CoeffExpr
from thetapencil.operators import _peel

U1 = Monomial.jet(1)


def integrate_in_u(c: CoeffExpr) -> CoeffExpr | None:
    """The antiderivative of c with no u-free part, or None when the ring
    has none: `_peel` on c u1, restricted to the u1 monomial, undoes c one
    function-atom group at a time, and None when u1 is left in the rest
    (u^-1 and F'/F, whose antiderivatives are logarithms, g h' or g(u)c(u))."""
    parts, rest = _peel(ThetaPoly.monomial(U1, c), lambda mono, _log: mono == U1)
    return None if U1 in rest.monomials() else sum_polys(parts).as_coeff()
