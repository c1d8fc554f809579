"""A text fuzzer for the grammars of `parsing`.

Strings are drawn from a token alphabet: names, jets, thetas, primes,
D[g,k], sqrt(...), the lattice point atoms, operators, parentheses, large
and negative exponents and division by zero.  Each string goes to
`parse_coeff`, to `parse_density` with the coordinates u and w, to
`parse_lattice_coeff` and to the CLI's `_scalar_arg`.  Each call returns or
raises ValueError (ParseError included), and within a time bound: bad text
is bad input, never a traceback or a hang.
"""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.cli import _scalar_arg  # noqa: E402
from thetapencil.parsing import (parse_coeff, parse_density,  # noqa: E402
                                 parse_lattice_coeff)

TOKENS = [
    # names, reserved or not
    "u", "w", "g", "f", "h_2", "lambda", "eps", "x", "y", "log", "sqrt", "D",
    # jets and thetas
    "u1", "u2", "ux", "uxx", "w1", "w3", "u0", "theta0", "theta1", "theta3", "theta",
    # primes and calls
    "'", "''", "g(u)", "f'(u)", "h''(w)", "D[g,2]", "D[f,0](u)", "sqrt(", "sqrt(2)",
    "sqrt(-3)", "sqrt(2/9)", "log(u1)",
    # lattice point atoms
    "u(x)", "u(y)", "u(x+eps)", "u(y-2*eps)", "w(x)",
    # numbers, operators and parentheses
    "0", "1", "7", "2/3", "+", "-", "*", "/", "^", ",", "[", "]", "(", ")", " ",
    "^100", "^(-3)", "^-1", "/0", "#", ".",
]
TEXTS = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)
SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)
BOUND_S = 0.5

ENTRIES = [
    ("parse_coeff", parse_coeff),
    ("parse_density(u)", parse_density),
    ("parse_density(w)", lambda text: parse_density(text, "w")),
    ("parse_lattice_coeff", parse_lattice_coeff),
    ("_scalar_arg", _scalar_arg),
]


def returns_or_refuses_in_time(text):
    for name, parse in ENTRIES:
        start = time.perf_counter()
        try:
            parse(text)
        except ValueError:
            pass
        elapsed = time.perf_counter() - start
        assert elapsed < BOUND_S, (name, text, elapsed)


@SETTINGS
@given(TEXTS)
def test_every_entry_returns_or_refuses_in_time(text):
    returns_or_refuses_in_time(text)


@pytest.mark.parametrize("text", [
    "(u+1)^100*(u+1)^100", "(u1+u2)^100", "u^100^100", "((((((((u))))))))^(-3)",
    "sqrt(99999999999999999999999)", "D[g,2](u)^100/0", "u(x+eps)^100*u(y-2*eps)^100",
    "(u1+u2+1)^61",
])
def test_large_and_refused_inputs_in_time(text):
    returns_or_refuses_in_time(text)
