#!/usr/bin/env python3
"""Building the operators: the flip P, the shift operator g, and the
one- and two-parameter Cremmer-Gervais R-matrices.

Operators are sparse endomorphisms of V⊗V with Laurent-polynomial
entries, printed here through their action on basis vectors e_i⊗e_j.
"""

import sys

from cgybe import cg_op, cg_twisted_op, eta, export, g_op, hecke_parameters, permutation_op

n = 3


def show_action(label, op):
    print(f"\n{label}:")
    for i in range(1, op.n + 1):
        for j in range(1, op.n + 1):
            image = op.apply(i, j)
            if not image:
                print(f"  e{i}⊗e{j} -> 0")
                continue
            terms = " + ".join(
                f"({coeff}) e{a}⊗e{b}" for (a, b), coeff in sorted(image.items())
            )
            print(f"  e{i}⊗e{j} -> {terms}")


print("=" * 60)
print(f"Operators on V⊗V, rank n = {n}")
print("=" * 60)

print("\nThe interval indicator eta(i,j,k) driving everything:")
for (i, j) in [(1, 3), (3, 1), (2, 2)]:
    row = [eta(i, j, k) for k in range(1, n + 1)]
    print(f"  eta({i},{j},k) for k=1..{n}: {row}")

P = permutation_op(n)
g = g_op(n)
show_action("flip P", P)
show_action("shift operator g", g)

alpha, beta = hecke_parameters()
c = cg_op(n, alpha, beta)
show_action(f"R-matrix alpha*P + beta*g with alpha={alpha}, beta={beta}", c)

c2 = cg_twisted_op(2)
show_action("two-parameter matrix (n=2), note the p-powers", c2)

print("\nLaTeX rendering of the n=2 two-parameter matrix")
print("(rows flatten input pairs, columns output pairs):\n")
export.write(sys.stdout, "latex", c2)
print()
