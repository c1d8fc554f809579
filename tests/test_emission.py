"""Emission gate: what `deform` and `miura` print and write, and the help
of every command, must stay byte-identical.  Each file under
tests/golden/emission/ holds one output of `cli.main` run in-process, from
a directory that holds the bracket files of `test_golden.BRACKETS`:

- `<name>.txt`: the standard output, with the wall times "(0.00s)" dropped;
- `<name>.out.json`: the file that `--out` wrote;
- `help_<command>.txt`: the `--help` text at 80 columns.

To record a file again after a deliberate change of output, save that
output under the name below.
"""

import re
from pathlib import Path

import pytest

from thetapencil.cli import main
from test_golden import BRACKETS

EMISSION = Path(__file__).parent / "golden" / "emission"

MIURA = ["miura", "--bracket", "ch2.json", "--transform", "u + eps/(2*sqrt(2))*u1",
         "--order", "2"]

OUTPUTS = {
    "deform_theta_json": ["deform", "--g", "g", "--c", "c", "--json"],
    "deform_theta": ["deform", "--g", "g", "--c", "c"],
    "deform_delta_dlz": ["deform", "--g", "g", "--c", "c", "--format", "delta",
                         "--construct", "dlz"],
    "miura_ch2": MIURA,
    "miura_ch2_coordinate_w": MIURA + ["--coordinate", "w"],
}

# Each of these also writes `<name>.out.json` through --out.
WRITTEN = {
    "deform_delta_out": ["deform", "--g", "g", "--c", "c", "--format", "delta"],
    "deform_delta_out_json": ["deform", "--g", "h", "--c", "2*k(u)", "--format", "delta",
                              "--json"],
    "miura_ch2_out": MIURA,
    "miura_ch2_out_json": MIURA + ["--json"],
}

HELP = [(), ("verify",), ("verify", "operators"), ("verify", "homotopy"),
        ("verify", "spectral"), ("verify", "deformation"),
        ("verify", "lambda-independence"), ("central-invariant",), ("example",),
        ("deform",), ("miura",)]


def _run(argv, capsys, tmp_path, monkeypatch):
    for file_name, bracket in BRACKETS.items():
        bracket.save(tmp_path / file_name)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert code == 0
    return re.sub(r"\(\d+\.\d+s\)", "", capsys.readouterr().out)   # drop wall times


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_golden(name, capsys, tmp_path, monkeypatch):
    out = _run(OUTPUTS[name], capsys, tmp_path, monkeypatch)
    assert out == (EMISSION / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_file_matches_golden(name, capsys, tmp_path, monkeypatch):
    out = _run(WRITTEN[name] + ["--out", "written.json"], capsys, tmp_path, monkeypatch)
    assert out == (EMISSION / f"{name}.txt").read_text()
    assert (tmp_path / "written.json").read_text() == \
        (EMISSION / f"{name}.out.json").read_text()


@pytest.mark.parametrize("command", HELP, ids=lambda c: "_".join(c) or "thetapencil")
def test_help_matches_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(list(command) + ["--help"])
    assert exit_info.value.code == 0
    name = "help_" + ("_".join(command) or "thetapencil")
    assert capsys.readouterr().out == (EMISSION / f"{name}.txt").read_text()
