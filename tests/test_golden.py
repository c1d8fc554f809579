"""Golden gate: the canonical --json output of the CLI commands must stay
byte-identical.  Each file under tests/golden/ holds the standard output
of one command run through `cli.main` in-process, from a directory that
holds the bracket files in BRACKETS.

To record a golden file again after a deliberate change of output, run
the command with --json and save its standard output under the name below.
"""

from pathlib import Path

import pytest

from thetapencil import checks
from thetapencil.cli import main
from thetapencil.fixtures import camassa_holm_brackets, kdv_brackets

GOLDEN = Path(__file__).parent / "golden"

BRACKETS = {
    "kdv1.json": kdv_brackets()[0],
    "kdv2.json": kdv_brackets()[1],
    "ch2.json": camassa_holm_brackets()[1],
}

CASES = {
    "verify_spectral_seed0": ["verify", "spectral", "--seed", "0"],
    "verify_homotopy_p2_q2": ["verify", "homotopy", "--p", "2", "--q", "2",
                              "--samples", "20", "--seed", "0"],
    "verify_homotopy_p3_q4": ["verify", "homotopy", "--p", "3", "--q", "4",
                              "--samples", "20", "--seed", "0"],
    "verify_homotopy_p1_q2": ["verify", "homotopy", "--p", "1", "--q", "2"],
    "verify_operators_d3_j4": ["verify", "operators", "--max-degree", "3",
                               "--max-jet", "4"],
    "verify_deformation": ["verify", "deformation", "--g", "g", "--c", "c"],
    "verify_lambda_independence": ["verify", "lambda-independence"],
    "example_kdv": ["example", "kdv"],
    "example_camassa_holm": ["example", "camassa-holm"],
    "example_volterra": ["example", "volterra"],
    "deform_delta_dlz": ["deform", "--g", "g", "--c", "c", "--format", "delta",
                         "--construct", "dlz"],
    "central_invariant_kdv": ["central-invariant", "kdv1.json", "kdv2.json"],
    "miura_ch2": ["miura", "--bracket", "ch2.json",
                  "--transform", "u + eps/(2*sqrt(2))*u1", "--order", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, capsys, tmp_path, monkeypatch):
    for file_name, bracket in BRACKETS.items():
        bracket.save(tmp_path / file_name)
    monkeypatch.chdir(tmp_path)
    code = main(CASES[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


SPLIT_CASES = sorted(n for n in CASES if n.startswith(("verify_spectral", "verify_homotopy")))


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_reports_sharing_splits_match_golden_cold_and_warm(name, capsys, tmp_path,
                                                           monkeypatch):
    """Reports at one q share a split: each matches its golden from cleared
    splits, and again after other reports have filled the same splits."""
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / f"{name}.json").read_text()
    assert main(CASES[name] + ["--json"]) == 0
    assert capsys.readouterr().out == expected
    assert checks.verify_spectral_report(5, 10, 50).ok
    for q in range(2, 6):
        for p in range(2, 5):
            assert checks.verify_homotopy_report(p, q, 5, 7).ok
    for other in SPLIT_CASES:
        assert main(CASES[other] + ["--json"]) == 0
    capsys.readouterr()
    assert main(CASES[name] + ["--json"]) == 0
    assert capsys.readouterr().out == expected
