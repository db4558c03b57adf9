"""Benchmark of the cgybe proof engine: one workload per process.

    python3 bench/run.py --workload ybe_twisted --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The untraced run (``--trace 0``) reports the end-to-end metrics:

* ``wall_s``      median over passes of the time from the first check
                  call to the last report of one pass over the workload;
* ``setup_s``     median over fresh interpreters of the time from process
                  start through ``import cgybe`` and building the
                  workload's operators;
* ``peak_rss_mb`` ``ru_maxrss`` of this process after the passes.

Both times are in reference seconds (see ``ReferenceClock``): each
measured step is scaled by how fast a fixed calibration job ran just
before and after it, so that a shared machine slowing down for minutes at
a time does not read as a regression.  The raw wall-clock samples are kept
in the result file.

The traced run (``--trace 1``) reports the per-layer metrics of
``tracing.PER_LAYER_UNITS``.  It repeats rounds of three passes: one
untraced, one under spans (operators rebuilt inside the trace) and one
under ``cProfile``.  Per-layer values are medians over rounds, and counts
must repeat exactly between rounds.

Every pass is checked against ``expected.json``; an outcome that differs
counts as a failed operation.  The last line of standard output is the
JSON result; the same result, with provenance, is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUPS_PER_PASS = 2

# A wall second counts REFERENCE_CALIBRATION_S / c reference seconds while
# the calibration job takes c seconds.  0.030 is about the job's median on
# a 2-core x86-64 VM with Python 3.11, where the two units roughly agree.
REFERENCE_CALIBRATION_S = 0.030

os.environ.pop("CGYBE_WORKERS", None)
if not (SRC / "cgybe" / "__init__.py").is_file():
    sys.exit(f"error: no cgybe sources under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> unit of every end-to-end metric, in report order.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The setup child reports the monotonic clock once the operators exist;
# CLOCK_MONOTONIC is shared by every process of the machine.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path[:0] = {paths!r}\n"
    "import workloads\n"
    "workloads.setup({name!r}, {seed!r})\n"
    "sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("CGYBE_WORKERS", "PYTHONPATH")}


def time_setup(name: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter to its operators existing."""
    code = SETUP_CHILD.format(paths=[str(SRC), str(BENCH_DIR)], name=name, seed=seed)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout) - started


def calibration_job() -> dict:
    """Fixed work close to the engine's inner loop, independent of cgybe:
    tuple-keyed dict accumulation of Fraction products."""
    acc: dict = {}
    for i in range(60):
        for j in range(60):
            key = ((i % 7, j % 5), (i, j))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i + 1, j + 1) * Fraction(j + 2, 3)
    return acc


class ReferenceClock:
    """Scales measured steps to reference seconds.

    The calibration job is timed once at the start and again after every
    step.  A step of ``t`` wall seconds takes ``t * REFERENCE_CALIBRATION_S
    / c`` reference seconds, where ``c`` is the mean of the calibration
    times just before and after it.  On a host shared with other tenants
    the machine's speed drifts by tens of percent over minutes; the job
    slows down with the step, so the scaled time stays put.
    """

    def __init__(self):
        self.calibration = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        started = time.perf_counter()
        calibration_job()
        return time.perf_counter() - started

    def scale(self, seconds: float) -> float:
        """Reference seconds of a step that just took ``seconds``."""
        after = self._calibrate()
        speed = REFERENCE_CALIBRATION_S / ((self.calibration + after) / 2)
        self.calibration = after
        return seconds * speed


def provenance(seed: int) -> dict:
    """Where a result came from; ``commit`` is None outside a git checkout."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "cgybe").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "seed": seed,
    }


class Gate:
    """Counts outcomes attempted and mismatched across every pass of a run."""

    def __init__(self, name: str, expected: dict):
        self.name = name
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, results) -> None:
        attempted, mismatches = workloads.gate(self.name, results, self.expected)
        self.attempted += attempted
        self.failures += mismatches

    def require(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def timed_pass(checks) -> tuple[float, list]:
    started = time.perf_counter()
    results = workloads.run(checks)
    return time.perf_counter() - started, results


def repeat_within(seconds: float, step) -> None:
    """Call step() once, then again while one more call, as long as the
    longest so far, still ends within ``seconds`` of the start."""
    started = time.perf_counter()
    longest = 0.0
    while True:
        step_started = time.perf_counter()
        step()
        now = time.perf_counter()
        longest = max(longest, now - step_started)
        if now - started + longest > seconds:
            return


def untraced(args, gate: Gate) -> tuple[dict, dict]:
    checks = workloads.setup(args.workload, args.seed)
    clock = ReferenceClock()
    raw = {"wall_s": [], "setup_s": []}
    ref = {"wall_s": [], "setup_s": []}

    def step():
        # setup samples are spread over the run so both metrics see the
        # same machine conditions
        for _ in range(SETUPS_PER_PASS):
            seconds = time_setup(args.workload, args.seed)
            raw["setup_s"].append(seconds)
            ref["setup_s"].append(clock.scale(seconds))
        results, wall, wall_ref = [], 0.0, 0.0
        for check in checks:
            started = time.perf_counter()
            results += workloads.run([check])
            seconds = time.perf_counter() - started
            wall += seconds
            wall_ref += clock.scale(seconds)
        raw["wall_s"].append(wall)
        ref["wall_s"].append(wall_ref)
        gate.check(results)

    repeat_within(args.seconds, step)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {name: statistics.median(values) for name, values in ref.items()}
    metrics["peak_rss_mb"] = peak_kb / 1024
    return metrics, {"reference_s": ref, "raw_s": raw}


def traced(args, gate: Gate) -> tuple[dict, dict]:
    checks = workloads.setup(args.workload, args.seed)
    rounds, traces = [], []

    def step():
        wall, results = timed_pass(checks)
        gate.check(results)

        tracer = tracing.Tracer()
        with tracer.installed():
            traced_checks = workloads.setup(args.workload, args.seed)
            traced_wall, results = timed_pass(traced_checks)
        gate.check(results)
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_out"] = sum(
            len(raw.stdout.encode())
            for _, raw in results
            if isinstance(raw, workloads.CliRun)
        )

        profile = cProfile.Profile()
        profile.enable()
        try:
            results = workloads.run(checks)
        finally:
            profile.disable()
        gate.check(results)
        profiled, self_s_by_file = tracing.profile_metrics(profile)
        metrics.update(profiled)

        metrics["wall_s"], metrics["traced_wall_s"] = wall, traced_wall
        rounds.append(metrics)
        traces.append({"spans": tracer.to_json_obj(), "self_s_by_file": self_s_by_file})

    repeat_within(args.seconds, step)
    for name in tracing.COUNT_METRICS:
        values = {r[name] for r in rounds}
        gate.require(len(values) == 1, f"{name} differs between rounds: {sorted(values)}")
    per_layer = {
        name: rounds[0][name] if name in tracing.COUNT_METRICS else statistics.median(
            r[name] for r in rounds
        )
        for name in tracing.PER_LAYER_UNITS
        if name != "trace.overhead_ratio"
    }
    per_layer["trace.overhead_ratio"] = statistics.median(
        r["traced_wall_s"] for r in rounds
    ) / statistics.median(r["wall_s"] for r in rounds)
    detail = {"rounds": rounds, "first_round": traces[0]}
    return per_layer, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    gate = Gate(args.workload, workloads.load_expected())
    if args.trace:
        values, detail = traced(args, gate)
        units = tracing.PER_LAYER_UNITS
    else:
        values, detail = untraced(args, gate)
        units = END_TO_END_UNITS

    failed = len(gate.failures)
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **provenance(args.seed),
        **result,
        "fail_share": failed / gate.attempted,
        "failures": gate.failures,
        "detail": detail,
    }
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in gate.failures[:20]:
        sys.stderr.write(f"mismatch: {message}\n")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"fail_share={failed}/{gate.attempted} -> {out_path.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
