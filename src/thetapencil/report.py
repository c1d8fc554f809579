"""Machine- and human-readable verification reports.

A report is a list of named checks, each carrying pass/fail, the rendered
symbolic residual when there is one, and an optional witness.  The body
of `Report.timed` fills the yielded CheckResult, through `expect` for one
value and `sweep` for lazy (label, residual) cases up to the first failure.

The JSON form is canonical (checks sorted by name, wall times omitted) so
that two runs with the same flags and seed produce identical bytes; wall
times are shown in the human rendering only.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: str | None = None
    witness: str | None = None
    detail: str | None = None
    wall_time: float = 0.0

    def expect(self, got, expected=None) -> None:
        """Pass when got - expected (got alone without an expected value)
        is zero; on failure keep the rendered difference as the residual."""
        diff = got if expected is None else got - expected
        self.passed = diff.is_zero()
        if not self.passed:
            self.residual = diff.render() if hasattr(diff, "render") else repr(diff)

    def sweep(self, cases, done) -> None:
        """Pass when every residual of the lazy (label, residual) cases is
        zero, with detail done(n) after n cases; stop at the first failure."""
        n = 0
        for label, residual in cases:
            n += 1
            self.expect(residual)
            if not self.passed:
                self.detail = f"first failure at {label} after {n} cases"
                return
        self.passed = True
        self.detail = done(n)


@dataclass
class Report:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    @contextmanager
    def timed(self, name: str):
        """Collect a check with its wall time: yield the CheckResult the
        body fills."""
        check = CheckResult(name, False)
        start = time.perf_counter()
        yield check
        check.wall_time = time.perf_counter() - start
        self.checks.append(check)

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_dict(self) -> dict:
        """The canonical payload: checks sorted by name, wall times omitted."""
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {k: v for k, v in (
                    ("name", c.name), ("passed", c.passed),
                    ("residual", c.residual), ("witness", c.witness),
                    ("detail", c.detail)) if v is not None}
                for c in self.sorted_checks()
            ],
        }

    def to_json(self, **extra) -> str:
        return json.dumps({**self.to_dict(), **extra}, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [self.title]
        for c in self.sorted_checks():
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}  ({c.wall_time:.2f}s)")
            if c.detail:
                lines.append(f"         {c.detail}")
            if c.residual is not None:
                lines.append(f"         residual: {c.residual}")
            if c.witness is not None:
                lines.append(f"         witness: {c.witness}")
        lines.append("result: " + ("all checks passed" if self.ok else "FAILURES present"))
        return "\n".join(lines) + "\n"
