#!/usr/bin/env python3
"""Numeric specialization: exact rational evaluation of the symbolic matrices.

Evaluating every coefficient at rational (q, p) gives an exact numeric
matrix; the Yang-Baxter check re-runs unchanged on it.  The point q = p
is the n = 2 member of the one-parameter specialization family.
"""

import sys
from fractions import Fraction

from cgybe import cg_op, cg_twisted_op, check_ybe, export, hecke_parameters

print("=" * 60)
print("Numeric evaluation at rational points")
print("=" * 60)

twisted = cg_twisted_op(2)
for qv, pv in [(Fraction(2), Fraction(2)), (Fraction(3, 2), Fraction(5))]:
    numeric = twisted.eval_at(qv, pv)
    report = check_ybe(numeric)
    mark = "PASS" if report.passed else "FAIL"
    print(f"\nq = {qv}, p = {pv}:  numeric YBE {mark}")
    print("dense matrix (rows = input pairs, cols = output pairs):")
    for row in numeric.to_numeric_rows():
        print("   " + "  ".join(f"{str(cell):>6s}" for cell in row))

print("\nAt q = p = 1 the one-parameter matrix collapses to the flip")
alpha, beta = hecke_parameters()
collapsed = cg_op(3, alpha, beta).eval_at(1, 1)
print(f"(beta evaluates to {beta.eval(1, 1)}):")
print("\nCSV export of the collapsed matrix:")
export.write(sys.stdout, "csv", collapsed)
print()
