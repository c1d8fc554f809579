"""Built-in bracket data for the worked examples and the canonical form.

The expected values here are transcriptions of closed-form displays; the
verification suites recompute the same objects through the conversion and
expansion machinery and compare exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import C, G, CoeffExpr
from .algebra import ThetaPoly
from .pencil import DeltaBracket, LatticeBracket, MiuraTransform


def kdv_brackets() -> tuple[DeltaBracket, DeltaBracket]:
    b1 = DeltaBracket.from_terms("u", [(0, 1, "1")])
    b2 = DeltaBracket.from_terms("u", [(0, 1, "u"), (0, 0, "1/2*u1"),
                                       (2, 3, "1/8")])
    return b1, b2


def camassa_holm_brackets() -> tuple[DeltaBracket, DeltaBracket]:
    b1 = DeltaBracket.from_terms("w", [(0, 1, "1"), (2, 3, "-1/8")])
    b2 = DeltaBracket.from_terms("w", [(0, 1, "w"), (0, 0, "1/2*w1")])
    return b1, b2


def camassa_holm_transform() -> MiuraTransform:
    return MiuraTransform.parse("u + eps/(2*sqrt(2))*u1")


def camassa_holm_expected_u() -> tuple[DeltaBracket, DeltaBracket]:
    """The transformed pair in the new coordinate, transcribed."""
    b1 = DeltaBracket.from_terms("u", [(0, 1, "1")])
    b2 = DeltaBracket.from_terms("u", [
        (0, 1, "u"), (0, 0, "1/2*u1"),
        (2, 3, "1/8*u"), (2, 2, "3/16*u1"), (2, 1, "1/16*u2"),
    ])
    return b1, b2


def volterra_lattice() -> tuple[LatticeBracket, LatticeBracket]:
    b1 = LatticeBracket.from_dict({"coordinate": "u", "shift_terms": [
        {"shift": 1, "eps_power": -1, "coeff": "u(x)*u(y)"},
        {"shift": -1, "eps_power": -1, "coeff": "-u(x)*u(y)"},
    ]})
    b2 = LatticeBracket.from_dict({"coordinate": "u", "shift_terms": [
        {"shift": 1, "eps_power": -1, "coeff": "1/4*u(x)*u(y)*(u(x)+u(y))"},
        {"shift": -1, "eps_power": -1, "coeff": "-1/4*u(x)*u(y)*(u(x)+u(y))"},
        {"shift": 2, "eps_power": -1, "coeff": "1/4*u(x)*u(y)*u(x+eps)"},
        {"shift": -2, "eps_power": -1, "coeff": "-1/4*u(x)*u(y)*u(y+eps)"},
    ]})
    return b1, b2


def canonical_form_eps2(g: CoeffExpr = G, c: CoeffExpr = C) -> dict[str, ThetaPoly]:
    """The transcribed eps^2 coefficient blocks of the canonical second
    bracket: delta''' and the two P blocks as displayed, and the
    delta'' coefficient both as derived here (u1 factor) and in the
    printed variant (u2 factor, inconsistent with the degree count)."""
    gp, gpp, gppp = g.ddu(), g.ddu().ddu(), g.ddu().ddu().ddu()
    cp, cpp = c.ddu(), c.ddu().ddu()
    u1, u2, u3 = ThetaPoly.jet(1), ThetaPoly.jet(2), ThetaPoly.jet(3)
    u1sq = ThetaPoly.jet(1, 2)
    half = Fraction(1, 2)
    delta3 = ThetaPoly.from_coeff(c * g * g * 3)
    delta2_coeff = g * g * cp * Fraction(9, 2) + g * gp * c * 9
    p21 = u1sq * (g * gp * cp * 8 + gp * gp * c * 2
                  + g * gpp * c * Fraction(13, 2) + g * g * cpp * Fraction(3, 2)) \
        + u2 * (g * g * cp * Fraction(3, 2) + g * gp * c * 7)
    p20 = (u1 * u1sq) * (gp * gp * cp * half + g * gp * cpp
                         + g * gpp * cp * Fraction(11, 4)
                         + gp * gpp * c * Fraction(3, 4)
                         + g * gppp * c * Fraction(7, 4)) \
        + (u1 * u2) * (g * gp * cp * 4 + gp * gp * c
                       + g * gpp * c * Fraction(11, 2)) \
        + u3 * (g * gp * c * 2)
    return {
        "delta3": delta3,
        "delta2_derived": u1 * delta2_coeff,
        "delta2_printed": ThetaPoly.from_coeff(g * g * cp * Fraction(9, 2))
        * u1 + u2 * (g * gp * c * 9),
        "P21": p21,
        "P20": p20,
    }
