"""Golden gate: the canonical --json output of the CLI commands must stay
byte-identical.  Each file under tests/golden/ holds the standard output
of one command run through `cli.main` in-process.

To record a golden file again after a deliberate change of output, run
the command with --json and save its standard output under the name below.
"""

from pathlib import Path

import pytest

from thetapencil.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, capsys):
    code = main(CASES[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
