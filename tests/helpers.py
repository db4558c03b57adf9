"""Independent oracles for the test suite.

Everything here recomputes results by a different route than the package:
dense matrix products over lists of LaurentQP, naive nested-loop
applications of lifted operators, piecewise case-by-case constructions of
the R-matrices, and wide-range integer sums.  Tests compare the sparse production paths
against these.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from cgybe import LaurentQP, TensorOp, q
from cgybe.laurent import p as p_sym


# ----------------------------------------------------------------------
# dense matrix oracle


def flat_index(tpl: tuple[int, ...], n: int) -> int:
    """Row-major 0-based index of a 1-based basis tuple."""
    idx = 0
    for t in tpl:
        idx = idx * n + (t - 1)
    return idx


def to_dense(op: TensorOp) -> list[list[LaurentQP]]:
    """Dense matrix M[out][in] of LaurentQP coefficients, as a list of rows."""
    size = op.n**op.arity
    mat = [[LaurentQP.zero()] * size for _ in range(size)]
    for (out, inp), coeff in op.entries.items():
        mat[flat_index(out, op.n)][flat_index(inp, op.n)] = coeff
    return mat


def from_dense(mat: list[list[LaurentQP]], n: int, arity: int) -> TensorOp:
    basis = list(itertools.product(range(1, n + 1), repeat=arity))
    entries = {}
    for r, out in enumerate(basis):
        for c, inp in enumerate(basis):
            coeff = mat[r][c]
            if not coeff.is_zero():
                entries[(out, inp)] = coeff
    return TensorOp(n, arity, entries)


def dense_compose(f: TensorOp, g: TensorOp) -> TensorOp:
    """f∘g computed by dense matrix multiplication, row by column."""
    a, b = to_dense(f), to_dense(g)
    product = [
        [sum((x * y for x, y in zip(row, column)), LaurentQP.zero()) for column in zip(*b)]
        for row in a
    ]
    return from_dense(product, f.n, f.arity)


# ----------------------------------------------------------------------
# naive nested-loop application of lift12(f) ∘ lift23(h)


def naive_lift12_lift23_apply(f: TensorOp, h: TensorOp, i: int, j: int, k: int):
    """Image of e_i⊗e_j⊗e_k under (f⊗Id)∘(Id⊗h), via pair applications only."""
    acc: dict[tuple[int, int, int], LaurentQP] = {}
    for (b, c), ch in h.apply(j, k).items():
        for (a2, b2), cf in f.apply(i, b).items():
            key = (a2, b2, c)
            acc[key] = acc.get(key, LaurentQP.zero()) + cf * ch
    return {key: coeff for key, coeff in acc.items() if not coeff.is_zero()}


# ----------------------------------------------------------------------
# independent eta and the triple-sum expansion of the cubic combination


def naive_eta(i: int, j: int, k: int) -> int:
    """eta recomputed through range membership instead of chained compares."""
    if k in range(i, j):
        return 1
    if k in range(j, i):
        return -1
    return 0


def dl_triple_sum_apply(n: int, i: int, j: int, k: int):
    """Image of e_i⊗e_j⊗e_k under g12 g23 P12 + g12 P23 g12 + P12 g23 g12,
    expanded as three explicit double sums over intermediate indices."""
    acc: dict[tuple[int, int, int], int] = {}

    def add(out, val):
        if val and all(1 <= t <= n for t in out):
            acc[out] = acc.get(out, 0) + val

    for s in range(1, n + 1):
        for t in range(1, n + 1):
            add((s, j + t - s, i + k - t), naive_eta(i, k, t) * naive_eta(j, t, s))
            add((t, s + k - t, i + j - s), naive_eta(i, j, s) * naive_eta(s, k, t))
            add(
                (t, s, i + j + k - s - t),
                naive_eta(i, j, s) * naive_eta(i + j - s, k, t),
            )
    return {out: val for out, val in acc.items() if val}


# ----------------------------------------------------------------------
# case-by-case R-matrix constructions (cross-validation targets)


def cg_case_display(n: int) -> TensorOp:
    """The one-parameter matrix assembled from its three-case description."""
    qinv = q**-1
    qdiff = q - qinv
    acc: dict = {}

    def add(out, inp, coeff):
        key = (out, inp)
        acc[key] = acc[key] + coeff if key in acc else coeff

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                add((i, i), (i, i), q)
            elif i < j:
                add((j, i), (i, j), q)
                for k in range(i, j):
                    add((k, i + j - k), (i, j), qdiff)
            else:
                add((j, i), (i, j), qinv)
                for k in range(j + 1, i):
                    add((k, i + j - k), (i, j), -qdiff)
    return TensorOp(n, 2, acc)


def cg_twisted_case_display(n: int) -> TensorOp:
    """The two-parameter matrix assembled from its three-case description."""
    qinv = q**-1
    qdiff = q - qinv
    acc: dict = {}

    def add(out, inp, coeff):
        key = (out, inp)
        acc[key] = acc[key] + coeff if key in acc else coeff

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                add((i, i), (i, i), q)
            elif i < j:
                add((j, i), (i, j), q * p_sym ** (i - j))
                for k in range(i, j):
                    add((k, i + j - k), (i, j), qdiff * p_sym ** (i - k))
            else:
                add((j, i), (i, j), qinv * p_sym ** (i - j))
                for k in range(j + 1, i):
                    add((k, i + j - k), (i, j), -qdiff * p_sym ** (i - k))
    return TensorOp(n, 2, acc)


# ----------------------------------------------------------------------
# randomized inputs


def holds_int_columns(op: TensorOp) -> bool:
    """True iff op is stored in the constant form: an int common
    denominator and an int value in every column, no LaurentQP."""
    return type(op._den) is int and all(
        type(value) is int for column in op._columns.values() for value in column.values()
    )


def fresh(op: TensorOp) -> TensorOp:
    """op with an empty cache: the same columns, nothing packed or read."""
    return TensorOp._trusted(op.n, op.arity, op._den, op._columns)


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if value or not nonzero:
            return value


def random_int(rng: random.Random) -> int:
    return rng.randint(-6, 6)


def random_proper_fraction(rng: random.Random) -> Fraction:
    """A Fraction that is not an integer, so it stays a Fraction when stored."""
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(2, 6))
        if value.denominator > 1:
            return value


def random_laurent(rng: random.Random, max_terms: int = 3, coeff=random_fraction) -> LaurentQP:
    """Up to max_terms terms with coefficients drawn by ``coeff(rng)``."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = coeff(rng)
    return LaurentQP(terms)


def random_op(
    rng: random.Random, n: int, arity: int = 2, density: float = 0.4, coeff=random_fraction
) -> TensorOp:
    entries = {}
    basis = list(itertools.product(range(1, n + 1), repeat=arity))
    for out in basis:
        for inp in basis:
            if rng.random() < density:
                entries[(out, inp)] = random_laurent(rng, coeff=coeff)
    return TensorOp(n, arity, entries)


# ----------------------------------------------------------------------
# frozen regression fixture: a weight-preserving {0,±1} operator at n=2
# that fails the Yang-Baxter check.  Found by exhaustive dense-matrix
# search over all 3^6 weight-preserving candidates (first failure in
# lexicographic coefficient order); the witness below was recomputed by
# the same standalone dense search.

YBE_FAIL_FIXTURE_ENTRIES = {
    ((1, 1), (1, 1)): -1,
    ((1, 2), (1, 2)): -1,
    ((1, 2), (2, 1)): -1,
    ((2, 1), (1, 2)): -1,
    ((2, 1), (2, 1)): -1,
    ((2, 2), (2, 2)): -1,
}
YBE_FAIL_FIXTURE_WITNESS = ((1, 1, 2), (1, 1, 2), 1)
