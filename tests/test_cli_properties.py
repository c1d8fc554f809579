"""A JSON fuzzer for the bracket files that the CLI reads.

Documents hold terms with `eps` and `der` in 0..6 and a `coeff` drawn from
a pool of valid and invalid strings, or take a malformed shape: another
top-level value, a `terms` that is not a list, or terms with missing,
extra or mistyped fields.  Each goes to `central-invariant` and to
`miura`.  Each call ends with exit 0, 1 or 2, prints at most one `error:`
line and no traceback, and finishes within a time bound: a bracket file is
read, refused as bad input or checked, never crashed on or hung on.
"""

import contextlib
import io
import json
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thetapencil.cli import main  # noqa: E402

VALID = ["1", "0", "u", "u^2", "1/u", "-1/8", "1/2*u1", "u*u2", "u1^3", "g(u)",
         "f'(u)*u1^2", "D[g,2](u)*u3", "sqrt(2)*u", "lambda*u", "lambda^2", "1/(24*u)",
         "u^2+1"]
# valid in the coordinate w only, or refused
INVALID = ["w", "w1", "", "(", "theta1", "log(u1)", "u1^-1", "eps", "u/0", "u(x)",
           "D[g,2]", "u^100", "1e5", "x", "sqrt(-1)"]
COEFFS = st.one_of(st.sampled_from(VALID), st.sampled_from(INVALID))
TERMS = st.fixed_dictionaries({"eps": st.integers(0, 6), "der": st.integers(0, 6),
                               "coeff": COEFFS})
DOCUMENTS = st.fixed_dictionaries(
    {"terms": st.lists(TERMS, max_size=4)},
    optional={"coordinate": st.sampled_from(["u", "w", "g", "lambda", "u1", "", 7, None])})
VALUES = st.one_of(st.integers(-2, 6), st.booleans(), st.none(), COEFFS,
                   st.floats(allow_nan=False), st.lists(st.integers(0, 2), max_size=2))
LOOSE_TERMS = st.one_of(
    st.dictionaries(st.sampled_from(["eps", "der", "coeff", "shift"]), VALUES, max_size=4),
    VALUES)
MALFORMED = st.one_of(
    VALUES,
    st.fixed_dictionaries({"terms": st.one_of(VALUES, st.lists(LOOSE_TERMS, max_size=3))}),
    st.fixed_dictionaries({"shift_terms": st.lists(TERMS, max_size=2)}))
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
BOUND_S = 0.5

# the second bracket of the KdV pair, u d' + 1/2 u1 d
SECOND = {"terms": [{"eps": 0, "der": 1, "coeff": "u"},
                    {"eps": 0, "der": 0, "coeff": "1/2*u1"}]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "second.json").write_text(json.dumps(SECOND))
    return folder / "doc.json", folder / "second.json"


def ends_as_documented(document, files):
    doc, second = files
    doc.write_text(json.dumps(document))
    for argv in (["central-invariant", str(doc), str(second)],
                 ["miura", "--bracket", str(doc), "--transform", "u+eps*u1",
                  "--order", "2"]):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2), (argv[0], document, code, err.getvalue())
        assert err.getvalue().count("error:") <= 1, (argv[0], document, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert elapsed < BOUND_S, (argv[0], document, elapsed)


@SETTINGS
@given(DOCUMENTS)
def test_a_bracket_document_ends_as_documented(files, document):
    ends_as_documented(document, files)


@SETTINGS
@given(MALFORMED)
def test_a_malformed_document_ends_as_documented(files, document):
    ends_as_documented(document, files)
