#!/usr/bin/env python3
"""Symbolic verification: the Yang-Baxter equation and its companions.

Each check tests that the difference of the two sides of its equation
has no entries at all, applying the words of the equation to one input
basis vector at a time.  A failing check reports the smallest
counterexample entry.
"""

from cgybe import (
    LaurentQP,
    TensorOp,
    cg_op,
    cg_twisted_op,
    compose_sum,
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_mixed_conditions,
    check_quadratic,
    check_ybe,
    g_op,
    hecke_parameters,
    permutation_op,
    p,
    q,
)


def show(report):
    status = "PASS" if report.passed else "FAIL"
    print(f"  {status}  {report.name:10s} ({report.elapsed * 1000:7.1f} ms)")
    if report.witness is not None:
        inp, out, diff = report.witness
        print(f"        smallest witness: input {inp} output {out} diff {diff}")


print("=" * 60)
print("Yang-Baxter and friends, fully symbolic in q and p")
print("=" * 60)

alpha, beta = hecke_parameters()
for n in (2, 3, 4):
    print(f"\nn = {n}:")
    show(check_ybe(cg_op(n, alpha, beta), name="ybe"))
    show(check_ybe(cg_twisted_op(n), name="ybe_qp"))
    show(check_ybe(g_op(n), name="ybe_g"))
    show(check_compatibility(g_op(n)))
    show(check_mixed_conditions(permutation_op(n), g_op(n)))
    show(check_hecke(cg_op(n, alpha, beta), alpha))
    show(check_gp_relations(n))
    show(check_quadratic(n, alpha, beta))

print("\nThe linear combination q*P + p*g with two independent symbols:")
show(check_ybe(compose_sum([(q, permutation_op(3)), (p, g_op(3))]), name="ybe_ind"))

print("\nAnd a deliberate failure, to see a counterexample witness:")
show(check_compatibility(TensorOp.identity(2), name="compat_id"))
show(check_hecke(cg_op(2, q, LaurentQP.one()), q, name="hecke_b1"))
