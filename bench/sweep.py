"""One-shot scaling sweep of check_ybe(cg_twisted_op(n)) by phase.

    python3 bench/sweep.py

Runs the Yang-Baxter check of the two-parameter matrix at n = 8, 10 and
12 under spans (no cProfile) and prints the phase table: c12∘c23, then
∘c12 (the left side), the right side c23∘c12∘c23 (both composes), the
difference with its witness search, and the nonzero count of the left
side.  It is not a gated workload: it takes about half a minute at n=12
and exists to regenerate the table on any machine.  The nonzero counts
are exact and checked; the run exits 1 if one differs.  The table and the
spans are also written to ``bench/out/sweep.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from cgybe import model, verify  # noqa: E402

import tracing  # noqa: E402

# nnz of the left side c12∘c23∘c12, a property of the operator, not the code.
LHS_NNZ = {8: 7484, 10: 22018, 12: 53582}


def phases(n: int) -> tuple[dict, list]:
    op = model.cg_twisted_op(n)
    tracer = tracing.Tracer()
    with tracer.installed():
        report = verify.check_ybe(op)
    if not report.passed:
        raise RuntimeError(f"check_ybe failed at n={n}: {report.witness}")
    composes = [s for s in tracer.spans if s.name == "tensor.compose"]
    (diff,) = [s for s in tracer.spans if s.name == "tensor.diff"]
    row = {
        "n": n,
        "c12c23_s": composes[0].seconds,
        "then_c12_s": composes[1].seconds,
        "rhs_s": composes[2].seconds + composes[3].seconds,
        "diff_s": diff.seconds,
        "lhs_nnz": composes[1].counts["nnz"],
    }
    return row, tracer.to_json_obj()


def main() -> int:
    rows, spans = [], {}
    print("| n | c12∘c23 | ∘c12 | rhs (both) | diff | nnz of lhs |")
    print("|---|---|---|---|---|---|")
    for n in sorted(LHS_NNZ):
        row, spans[n] = phases(n)
        rows.append(row)
        nnz = f"{row['lhs_nnz']:,}".replace(",", " ")
        print(
            f"| {n} | {row['c12c23_s']:.2f} s | {row['then_c12_s']:.2f} s "
            f"| {row['rhs_s']:.2f} s | {row['diff_s']:.2f} s | {nnz} |",
            flush=True,
        )
    wrong = [r for r in rows if r["lhs_nnz"] != LHS_NNZ[r["n"]]]
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "sweep.json").write_text(
        json.dumps({"rows": rows, "spans": spans}, indent=1) + "\n", encoding="utf-8"
    )
    for r in wrong:
        want = LHS_NNZ[r["n"]]
        sys.stderr.write(f"error: nnz of lhs at n={r['n']} is {r['lhs_nnz']}, want {want}\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
