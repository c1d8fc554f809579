"""Self-tests of the benchmark harness, on reduced workloads.

    python3 bench/selftest.py

They check that inputs are a function of the seed, that a wrong answer is
counted, that tracing changes no verdict, that per-layer counts repeat
exactly, that the null predictions of bench/README.md hold, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

run._import_package()

import workloads  # noqa: E402  (needs the package path set up above)

PENCIL_KEYS = ("theta_to_delta", "dlz_generator", "verify_deformation",
               "deformation_order2", "miura_transform", "expand_lattice_bracket",
               "central_invariant", "diffop")
SPECTRAL_KEYS = ("d0", "d1", "homotopy_h", "u_inverse", "v_apply", "w_apply")


def _build(name: str, seed: int, tmp: str):
    return workloads.build(name, seed, Path(tmp), small=True)


def _comparable(items, tmp: str):
    return [(i.kind, tuple(str(a).replace(tmp, "<dir>") for a in i.args),
             sorted(i.answer.items())) for i in items]


class SelfTest(unittest.TestCase):
    traced: dict = {}

    @classmethod
    def setUpClass(cls):
        """Two traced runs of each reduced workload."""
        for name in workloads.WORKLOADS:
            with run._scratch_dir() as tmp:
                items = _build(name, 7, tmp)
                cls.traced[name] = [run.measure_traced(name, 7, items) for _ in range(2)]

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with run._scratch_dir() as a, run._scratch_dir() as b:
                first, second = _build(name, 3, a), _build(name, 3, b)
                self.assertEqual(_comparable(first, a), _comparable(second, b))
                self.assertEqual(
                    {p.name: p.read_text() for p in Path(a).iterdir()},
                    {p.name: p.read_text() for p in Path(b).iterdir()})
        with run._scratch_dir() as a, run._scratch_dir() as b:
            self.assertNotEqual(_comparable(_build("brackets", 3, a), a),
                                _comparable(_build("brackets", 4, b), b))

    def test_corrupted_answer_is_failed_and_wrong(self):
        item = workloads.Item("cli", ("example", "kdv", "--json"),
                              {"check": "example", "name": "kdv"})
        outcome = item.run()
        self.assertFalse(workloads.judge(item, outcome).failed)
        corrupted = {"kdv": [("central_invariant", "u", "1/25")]}
        with mock.patch.dict(workloads.EXAMPLE_ANSWERS, corrupted):
            verdict = workloads.judge(item, outcome)
        self.assertTrue(verdict.failed)
        self.assertTrue(verdict.wrong)

    def test_known_defects_give_no_wrong_answer(self):
        """The known-defect jobs may fail, but never with a wrong answer."""
        with run._scratch_dir() as tmp:
            items = workloads.known_defects(5, Path(tmp))
            verdicts = [workloads.judge(item, item.run()) for item in items]
        for item, verdict in zip(items, verdicts):
            self.assertFalse(verdict.wrong, item.args)
        failing = sum(v.failed for v in verdicts)
        print(f"\nknown defects: {failing} of {len(items)} jobs still fail",
              file=sys.stderr)

    def test_evaluator(self):
        self.assertTrue(workloads.same_value("1/24*u^(-1)", "1/(24*u)"))
        self.assertFalse(workloads.same_value("1/25", "1/24"))
        self.assertTrue(workloads.same_value("-1/32*sqrt(2)*u1", "(-u1)/(2*sqrt(2))^3"))
        self.assertTrue(workloads.same_value("1/24*w", "w/24", "w"))
        self.assertTrue(workloads.same_value("3*c(u)*g(u)^2 - lambda*g'(u)",
                                             "3*(c(u))*(g(u))^2 - g'(u)*lambda"))
        self.assertFalse(workloads.same_value("g'(u)", "g''(u)"))

    def test_tracing_keeps_verdicts(self):
        for name, runs in self.traced.items():
            for _metrics, tally, same in runs:
                self.assertTrue(same, name)
                self.assertEqual(tally.wrong, 0, name)

    def test_counts_repeat_exactly(self):
        for name, ((first, _, _), (second, _, _)) in self.traced.items():
            counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "ratio")
                       and k != "trace.overhead_frac"} for m in (first, second)]
            self.assertEqual(counts[0], counts[1], name)

    def test_null_predictions(self):
        m = {name: runs[0][0] for name, runs in self.traced.items()}

        def value(name, key):
            return m[name][key][0]

        for name in ("sweep", "contraction"):
            for key in PENCIL_KEYS:
                self.assertEqual(value(name, f"pencil.{key}.calls"), 0, (name, key))
            self.assertEqual(value(name, "operators.exact_witness.calls"), 0, name)
            self.assertEqual(value(name, "parsing.parse.calls"), 0, name)
            self.assertEqual(value(name, "pencil.self_s"), 0, name)
        for name in ("sweep", "brackets"):
            for key in SPECTRAL_KEYS:
                self.assertEqual(value(name, f"spectral.{key}.calls"), 0, (name, key))
            self.assertEqual(value(name, "coeff.subst_lambda.calls"), 0, name)
        for name, key in [("sweep", "coeff.self_s"), ("sweep", "algebra.self_s"),
                          ("sweep", "operators.apply.self_s"),
                          ("contraction", "spectral.self_s"),
                          ("contraction", "coeff.subst_lambda.self_s"),
                          ("contraction", "operators.pencil_operator.calls"),
                          ("brackets", "operators.exact_witness.self_s"),
                          ("brackets", "pencil.self_s"), ("brackets", "parsing.self_s"),
                          ("brackets", "driver.self_s"),
                          ("brackets", "report.to_json.self_s")]:
            self.assertGreater(value(name, key), 0, (name, key))
        self.assertEqual(value("sweep", "coeff.mul.radicand_ratio"), 0)
        self.assertGreater(value("brackets", "coeff.mul.radicand_ratio"), 0)

    def test_refuses_without_package_source(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_tmp_") as tmp:
            shutil.copytree(Path(__file__).parent, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "brackets", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
