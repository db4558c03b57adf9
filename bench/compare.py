"""Compare two sets of benchmark result files, one row per (metric, workload).

    python3 bench/compare.py BASE NEW

BASE and NEW are each a result file written by ``run.py`` or a directory
of them (``bench/out`` of two checkouts, say).  Runs of the same workload
and trace mode on one side are pooled: each row gives the median of each
side, the relative change of the medians and the number of runs behind
each.  A metric present on only one side shows a blank on the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _pool(results: list[dict]) -> dict[tuple[str, str], tuple[str, list[float]]]:
    pooled: dict[tuple[str, str], tuple[str, list[float]]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            key = (name, result["workload"])
            pooled.setdefault(key, (metric["unit"], []))[1].append(metric["value"])
    return pooled


def compare(base: list[dict], new: list[dict]) -> list[dict]:
    """Rows sorted by (workload, metric)."""
    base_pool, new_pool = _pool(base), _pool(new)
    rows = []
    for key in sorted(set(base_pool) | set(new_pool), key=lambda k: (k[1], k[0])):
        unit = (base_pool.get(key) or new_pool[key])[0]
        row = {"workload": key[1], "metric": key[0], "unit": unit}
        for side, pool in (("base", base_pool), ("new", new_pool)):
            values = pool.get(key, (unit, []))[1]
            row[side] = statistics.median(values) if values else None
            row[f"{side}_runs"] = len(values)
        if row["base"] and row["new"] is not None:
            row["change"] = row["new"] / row["base"] - 1
        else:
            row["change"] = None
        rows.append(row)
    return rows


def _cell(value) -> str:
    return "" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_results(args.base), load_results(args.new))
    print("| workload | metric | unit | base | new | change | runs |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        change = "" if r["change"] is None else f"{r['change']:+.1%}"
        print(
            f"| {r['workload']} | {r['metric']} | {r['unit']} | {_cell(r['base'])} "
            f"| {_cell(r['new'])} | {change} | {r['base_runs']}/{r['new_runs']} |"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
