"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize(("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = run_bench("--workload", "g_relations", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert printed == declared


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.load_expected()) == set(workloads.WORKLOADS)


def _rational_point_results(check_ids):
    checks = [c for c in workloads.setup("rational_point", 0) if c[0] in check_ids]
    return workloads.run(checks)


def _fail_share(results, expected):
    attempted, mismatches = workloads.gate("rational_point", results, expected)
    return len(mismatches) / attempted


@pytest.fixture(scope="module")
def negative_controls():
    """Results of the failing CLI verify and the gen digest, plus expectations cut to them."""
    ids = ("cli_verify_cg2_n5", "cli_gen_cg2_n16")
    expected = workloads.load_expected()
    kept = {k: v for k, v in expected["rational_point"].items() if k.split(".")[0] in ids}
    return _rational_point_results(ids), {"rational_point": kept}


def test_recorded_outcomes_pass(negative_controls):
    results, expected = negative_controls
    assert _fail_share(results, expected) == 0


@pytest.mark.parametrize(
    ("outcome", "field", "value"),
    [
        ("cli_verify_cg2_n5.compat", "witness", {"input": [1, 1, 2], "output": [1, 2, 1]}),
        ("cli_verify_cg2_n5.mixed", "passed", True),
        ("cli_verify_cg2_n5.exit", "exit", 0),
        ("cli_gen_cg2_n16", "sha256", "0" * 64),
        ("cli_verify_cg2_n5.ybe", "sha256", "0" * 64),
    ],
)
def test_tampered_expectation_raises_fail_share(negative_controls, outcome, field, value):
    results, expected = negative_controls
    tampered = copy.deepcopy(expected)
    tampered["rational_point"][outcome][field] = value
    assert _fail_share(results, tampered) > 0


def test_missing_or_raising_check_counts_as_failed(negative_controls):
    results, expected = negative_controls
    assert _fail_share(results[:1], expected) > 0
    broken = [(check_id, RuntimeError("boom")) for check_id, _ in results]
    assert _fail_share(broken, expected) == 1


def _result(workload, metrics):
    return {
        "workload": workload,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }


def test_compare_gives_one_row_per_metric_and_workload(tmp_path):
    metrics = {"wall_s": 2.0, "setup_s": 0.1, "peak_rss_mb": 40.0}
    for side, scale in (("base", 1.0), ("new", 0.5)):
        (tmp_path / side).mkdir()
        for workload in ("ybe_twisted", "oracles_window"):
            path = tmp_path / side / f"{workload}-seed1-trace0.json"
            scaled = {k: v * scale for k, v in metrics.items()}
            path.write_text(json.dumps(_result(workload, scaled)))
    rows = compare.compare(
        compare.load_results(tmp_path / "base"), compare.load_results(tmp_path / "new")
    )
    keys = [(r["metric"], r["workload"]) for r in rows]
    assert len(keys) == len(set(keys)) == 6
    assert all(r["change"] == pytest.approx(-0.5) for r in rows)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = run_bench("--workload", "g_relations", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
