"""The thetapencil benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep|contraction|brackets \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the workload runs in
passes (each pass runs every item once) for about ``--seconds`` and at
least MIN_PASSES passes, and the end-to-end metrics are printed.  With
``--trace 1`` a traced pass runs between two untraced ones, whatever
``--seconds`` says; the per-layer metrics are printed, and the spans and
per-item counts are written to ``.bench_out/``.  Every outcome is judged
against its known answer.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60


def _import_package():
    """Import thetapencil from this checkout's src/, or exit 2."""
    if not (SRC / "thetapencil" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'thetapencil'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import thetapencil
    if Path(thetapencil.__file__).resolve().parent != SRC / "thetapencil":
        print(f"error: thetapencil imported from {thetapencil.__file__}", file=sys.stderr)
        sys.exit(2)


def _scratch_dir():
    return tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT)


def _setup_once(workload: str, seed: int) -> float:
    """Import the package and build the inputs; the child's side of setup_s."""
    start = time.perf_counter()
    _import_package()
    import workloads
    with _scratch_dir() as tmp:
        workloads.build(workload, seed, Path(tmp))
        return time.perf_counter() - start


def _measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode or 1)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(items, tracer=None):
    """Run every item once; return (wall_s, latencies_s, outcomes)."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.begin_item(index, item.kind)
        t0 = time.perf_counter()
        try:
            outcome = item.run()
        except Exception as exc:    # a raising item is judged as failed
            outcome = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_item()
        outcomes.append(outcome)
    return time.perf_counter() - start, latencies, outcomes


class Tally:
    """Verdict counts over passes; failures are kept once per item."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.failures: dict[int, str] = {}

    def add(self, items, outcomes):
        import workloads
        verdicts = [workloads.judge(item, out) for item, out in zip(items, outcomes)]
        for index, verdict in enumerate(verdicts):
            self.attempted += 1
            self.failed += verdict.failed
            self.wrong += verdict.wrong
            if verdict.failed:
                self.failures.setdefault(index, verdict.note)
        return verdicts


def _percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(seconds: float, items):
    """Untraced passes for about `seconds`; the end-to-end metrics and the
    verdict tally.  A pass starts only if it should end within half a pass of
    the deadline.  A shared host's speed can drift in phases of tens of
    seconds, so each time is a mean over the run's passes, which weighs every phase by
    its length, rather than a median, which follows whichever phase held
    most passes."""
    walls, p50s, p90s, tally = [], [], [], Tally()
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or \
            time.perf_counter() - start + walls[-1] / 2 < seconds:
        wall, lat, outcomes = run_pass(items)
        walls.append(wall)
        p50s.append(statistics.median(lat))
        p90s.append(_percentile(lat, 0.9))
        tally.add(items, outcomes)
    metrics = {
        "wall_s": (statistics.mean(walls), "s"),
        "item_p50_ms": (statistics.mean(p50s) * 1000, "ms"),
        "item_p90_ms": (statistics.mean(p90s) * 1000, "ms"),
        "peak_rss_mib": (_peak_rss_mib(), "MiB"),
    }
    info = {"passes": len(walls), "items_per_pass": len(items),
            "pass_walls_s": [round(w, 3) for w in walls], **items[0].sizes}
    return metrics, tally, info


def measure_traced(workload: str, seed: int, items):
    """A traced pass between two untraced ones; the per-layer metrics, the
    verdict tally of the traced pass, and whether its verdicts match the
    untraced ones.  The overhead compares the traced pass with the mean of
    the untraced passes around it, so a steady drift in host speed cancels."""
    from tracer import Tracer
    before, _, plain_outcomes = run_pass(items)
    plain = Tally().add(items, plain_outcomes)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, traced_outcomes = run_pass(items, tracer)
    finally:
        tracer.remove()
    tally = Tally()
    traced = tally.add(items, traced_outcomes)
    after = run_pass(items)[0]
    plain_wall = (before + after) / 2
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    same = [a.fingerprint for a in plain] == [b.fingerprint for b in traced]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps({
        "workload": workload, "seed": seed,
        "items": [{"kind": item.kind, "args": list(map(str, item.args)),
                   "counts": per_item} for item, per_item in zip(items, tracer.items)],
        "spans": tracer.spans,
    }))
    return metrics, tally, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one import and input build (for setup_s)")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(repr(_setup_once(args.workload, args.seed)))
        return 0

    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    setup_s = None if args.trace else _measure_setup(args.workload, args.seed)
    with _scratch_dir() as tmp:
        items = workloads.build(args.workload, args.seed, Path(tmp))
        if args.trace:
            metrics, tally, same = measure_traced(args.workload, args.seed, items)
            info = {"verdicts_match_untraced": same}
        else:
            metrics, tally, info = measure(args.seconds, items)
            metrics["setup_s"] = (setup_s, "s")
            same = True
    for index, note in sorted(tally.failures.items()):
        item = items[index]
        print(f"failed: {item.kind} {' '.join(map(str, item.args))}: {note}")
    print(f"{args.workload} seed {args.seed}: {json.dumps(info)}; "
          f"fail_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}; wrong answers {tally.wrong}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0 and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
