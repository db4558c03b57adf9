"""Sparse operators: application, composition, lifts, equality witnesses.

Composition and lifted application are cross-checked against independent
dense and nested-loop oracles from helpers.py.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from cgybe import LaurentQP, TensorOp, compose_sum, endo_eq, g_op, lift12, lift23
from cgybe import cg_twisted_op, check_ybe, export, kronecker, permutation_op, q, tensor
from cgybe.laurent import as_laurent, rational_to_str

from helpers import (
    dense_compose,
    dl_triple_sum_apply,
    holds_int_columns,
    naive_lift12_lift23_apply,
    random_fraction,
    random_int,
    random_laurent,
    random_op,
    random_proper_fraction,
)


def test_apply_flip():
    P = permutation_op(2)
    assert P.apply(1, 2) == {(2, 1): LaurentQP.one()}


def test_apply_g_diagonal_is_zero():
    g = g_op(4)
    for i in range(1, 5):
        assert g.apply(i, i) == {}


def test_apply_g_spread():
    g = g_op(3)
    assert g.apply(1, 3) == {(1, 3): LaurentQP.one(), (2, 2): LaurentQP.one()}


def test_apply_index_out_of_range():
    P = permutation_op(2)
    with pytest.raises(ValueError):
        P.apply(0, 1)
    with pytest.raises(ValueError):
        P.apply(1, 3)


@pytest.mark.parametrize("indices", [(1.0, 3), (1, Fraction(2)), ("1", 2), (True, 2)])
def test_apply_non_int_index_rejected(indices):
    with pytest.raises(TypeError):
        g_op(3).apply(*indices)


def test_mutating_an_applied_image_leaves_the_operator_unchanged():
    # the image is a fresh dict, not the stored column
    for op in (permutation_op(3), cg_twisted_op(3)):
        entries, obj = dict(op.entries), op.to_json_obj()
        image = op.apply(1, 2)
        image[(1, 1)] = q
        image[(2, 1)] = LaurentQP.const(5)
        image.clear()
        assert dict(op.entries) == entries
        assert op.to_json_obj() == obj
        assert check_ybe(op).passed


def test_eval_at_rejects_float_point():
    with pytest.raises(TypeError):
        (q * g_op(2)).eval_at(0.1, 1)
    assert (q * g_op(2)).eval_at(Fraction("0.1"), 1) == g_op(2).scale(Fraction(1, 10))


def test_compose_flip_squares_to_identity():
    P = permutation_op(3)
    assert P @ P == TensorOp.identity(3)


def test_compose_g_idempotent():
    g = g_op(3)
    assert g @ g == g


def test_compose_g_after_flip():
    g = g_op(3)
    P = permutation_op(3)
    assert g @ P == g.scale(-1)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        permutation_op(2).compose(permutation_op(3))
    # a number is no operator: not equal to one, and not composable with one
    assert (permutation_op(2) == 3) is False
    with pytest.raises(TypeError):
        permutation_op(2) @ 3


def test_linear_combination_matches_display():
    P = permutation_op(2)
    g = g_op(2)
    c = compose_sum([(q, P), (q - q**-1, g)])
    assert c.apply(1, 2) == {(2, 1): q, (1, 2): q - q**-1}


def test_linear_combination_degenerate():
    f = random_op(random.Random(5), 3)
    g = random_op(random.Random(6), 3)
    assert compose_sum([(1, f), (0, g)]) == f
    assert compose_sum([(1, g), (-1, g)]).is_zero()


def test_lift12_flip():
    L = lift12(permutation_op(3))
    assert L.apply(1, 2, 3) == {(2, 1, 3): LaurentQP.one()}
    with pytest.raises(ValueError, match="arity-2"):
        lift12(L)


def test_lift23_flip():
    L = lift23(permutation_op(3))
    assert L.apply(1, 2, 3) == {(1, 3, 2): LaurentQP.one()}
    with pytest.raises(ValueError, match="arity-2"):
        lift23(L)


def test_lift_identity_is_identity():
    I2 = TensorOp.identity(3)
    assert lift12(I2) == TensorOp.identity(3, 3)
    assert lift23(I2) == TensorOp.identity(3, 3)


def test_lift12_g_spread():
    L = lift12(g_op(3))
    assert L.apply(1, 3, 2) == {(1, 3, 2): LaurentQP.one(), (2, 2, 2): LaurentQP.one()}


def test_lift23_g_spread():
    L = lift23(g_op(3))
    assert L.apply(2, 1, 3) == {(2, 1, 3): LaurentQP.one(), (2, 2, 2): LaurentQP.one()}


def test_compose3_flip_lifts():
    # f @ g applies g first, so P12 @ P23 sends [1,2,3] -> [1,3,2] -> [3,1,2];
    # the opposite order gives [2,3,1].
    P12 = lift12(permutation_op(3))
    P23 = lift23(permutation_op(3))
    assert P12 @ P12 == TensorOp.identity(3, 3)
    assert (P12 @ P23).apply(1, 2, 3) == {(3, 1, 2): LaurentQP.one()}
    assert (P23 @ P12).apply(1, 2, 3) == {(2, 3, 1): LaurentQP.one()}


def test_triple_sum_expansion_matches_composition():
    # g12 g23 P12 + g12 P23 g12 + P12 g23 g12, entry by entry against the
    # naive double-sum expansion over intermediate indices.
    n = 3
    g = g_op(n)
    P = permutation_op(n)
    g12, g23 = lift12(g), lift23(g)
    p12, p23 = lift12(P), lift23(P)
    dl = g12 @ g23 @ p12 + g12 @ p23 @ g12 + p12 @ g23 @ g12
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                expected = {
                    out: LaurentQP.const(val)
                    for out, val in dl_triple_sum_apply(n, i, j, k).items()
                }
                assert dl.apply(i, j, k) == expected, (i, j, k)


def test_endo_eq_reports_first_difference():
    P = permutation_op(2)
    equal, witness = endo_eq(P, TensorOp.identity(2))
    assert not equal
    inp, out, diff = witness
    assert inp == (1, 2)
    assert out == (1, 2)
    assert diff == LaurentQP.const(-1)


def test_first_entry_is_smallest_input_then_output():
    assert TensorOp.zero(2).first_entry() is None
    op = TensorOp(2, 2, {((2, 1), (1, 2)): 3, ((1, 2), (1, 2)): q, ((1, 1), (2, 2)): 1})
    assert op.first_entry() == ((1, 2), (1, 2), q)


def test_compose_sum_shapes():
    with pytest.raises(ValueError):
        compose_sum([])
    with pytest.raises(ValueError):
        compose_sum([(1, permutation_op(2), permutation_op(2)), (1, permutation_op(3))])
    with pytest.raises(ValueError):
        compose_sum([(1, TensorOp.identity(2)), (1, permutation_op(2), TensorOp.identity(2, 3))])
    P = permutation_op(3)
    # a lone operator, an operator in the scalar slot (the old pair (f, g)),
    # a scalar or malformed factor, an empty word, a float scalar
    for bad in (
        [P],
        [(P, P)],
        [(P, q)],
        [(P, 2)],
        [(P,)],
        [(1, P, q)],
        [(1, (P, 12.0))],
        [(1, (P,))],
        [()],
        [(1.5, P)],
    ):
        with pytest.raises(TypeError):
            compose_sum(bad)
    # the old pair (f, g) of two operators is refused as a word, by name
    with pytest.raises(TypeError, match="word is a tuple"):
        compose_sum([(P, P)])
    assert compose_sum([(1, P, P)]) == P @ P
    assert compose_sum([(1, P)]) == P
    assert compose_sum([(1, P, P), (-1,)]).is_zero()
    assert compose_sum([(1, P, P), (-1, TensorOp.identity(3))]).is_zero()
    assert compose_sum([(2, P), (-1,)]) == P + P - TensorOp.identity(3)
    assert compose_sum([(q, P), (Fraction(1, 2), P)]).apply(1, 2) == {
        (2, 1): q + LaurentQP.const(Fraction(1, 2))
    }


def test_bool_scalar_refused():
    # a bool is not the scalar 1, in a word or in a scalar multiple
    P = permutation_op(2)
    for bad in ([(True, P)], [(1, P), (False,)]):
        with pytest.raises(TypeError, match="word is a tuple"):
            compose_sum(bad)
    with pytest.raises(TypeError):
        True * P
    with pytest.raises(TypeError):
        P.scale(True)
    with pytest.raises(TypeError):
        TensorOp(2, 2, {((1, 2), (2, 1)): True})
    assert 2 * P == P + P and Fraction(1, 2) * P == P.scale(Fraction(1, 2))
    assert q * P == compose_sum([(q, P)])


def test_four_factor_word_refused_before_any_packing():
    # the word's shape is checked with the word, before the sum multiplies
    # denominators or packs a factor of any earlier word
    P = permutation_op(2)
    with mock.patch.object(tensor, "_factor", side_effect=AssertionError("packed")):
        for words in ([(1, P, P, P, P)], [(1, P), (1, P, P, P, P)]):
            with pytest.raises(ValueError, match="at most three factors"):
                compose_sum(words)
            with pytest.raises(ValueError, match="at most three factors"):
                tensor._witness(words)


def test_endo_eq_g_idempotent():
    assert endo_eq(g_op(4) @ g_op(4), g_op(4)) == (True, None)


def test_endo_eq_pg_relation():
    n = 3
    g, P = g_op(n), permutation_op(n)
    combo = g + P - TensorOp.identity(n)
    assert endo_eq(P @ g, combo) == (True, None)


def test_compose_matches_dense_oracle():
    rng = random.Random(20240811)
    for n in (2, 3):
        for arity in (2, 3):
            if n == 3 and arity == 3:
                density = 0.1
            else:
                density = 0.4
            f = random_op(rng, n, arity, density)
            g = random_op(rng, n, arity, density)
            assert f @ g == dense_compose(f, g), (n, arity)


def test_lifts_are_algebra_homomorphisms():
    rng = random.Random(7)
    for _ in range(5):
        f = random_op(rng, 3)
        g = random_op(rng, 3)
        for lift in (lift12, lift23):
            assert lift(f @ g) == lift(f) @ lift(g)
            assert lift(f + g) == lift(f) + lift(g)


def test_lift12_lift23_against_nested_loop_oracle():
    rng = random.Random(99)
    f = random_op(rng, 3)
    h = random_op(rng, 3)
    composed = lift12(f) @ lift23(h)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert composed.apply(i, j, k) == naive_lift12_lift23_apply(
                    f, h, i, j, k
                ), (i, j, k)


def test_apply_distributes_over_sum():
    rng = random.Random(3)
    f = random_op(rng, 3)
    g = random_op(rng, 3)
    total = f + g
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = total.apply(i, j)
            fa, ga = f.apply(i, j), g.apply(i, j)
            rhs = {}
            for out in set(fa) | set(ga):
                coeff = fa.get(out, LaurentQP.zero()) + ga.get(out, LaurentQP.zero())
                if not coeff.is_zero():
                    rhs[out] = coeff
            assert lhs == rhs


def test_scale_by_laurent_and_int():
    g = g_op(3)
    assert 2 * g == g + g
    assert (q * g).apply(1, 2) == {(1, 2): q}


def test_json_round_trip_and_sorting():
    op = compose_sum([(q, permutation_op(2)), (q - q**-1, g_op(2))])
    obj = op.to_json_obj()
    assert obj["n"] == 2 and obj["arity"] == 2
    keys = [(tuple(e["in"]), tuple(e["out"])) for e in obj["entries"]]
    assert keys == sorted(keys)
    assert TensorOp.from_json_obj(obj) == op


def _dense_by_apply(op, cell):
    """Reference dense rows: one apply call per input tuple."""
    basis = op.basis_tuples()
    return [
        [cell(op.apply(*inp).get(out, LaurentQP.zero())) for out in basis] for inp in basis
    ]


def _written(fmt, op):
    """The text ``export.write`` gives ``op`` as ``fmt``."""
    handle = io.StringIO()
    export.write(handle, fmt, op)
    return handle.getvalue()


@given(
    st.integers(0, 2**32),
    st.sampled_from([(1, 2), (2, 2), (3, 2), (2, 3)]),
    st.sampled_from([0.0, 0.1, 0.4]),
)
def test_dense_export_matches_per_input_apply(seed, shape, density):
    op = random_op(random.Random(seed), *shape, density)
    rows = _dense_by_apply(op, LaurentQP.to_latex)
    body = " \\\\\n".join(" & ".join(row) for row in rows)
    assert _written("latex", op) == "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"
    numeric = op.eval_at(2, Fraction(3, 2))
    rows = _dense_by_apply(numeric, LaurentQP.constant_value)
    assert numeric.to_numeric_rows() == rows
    csv = "\n".join(",".join(rational_to_str(cell) for cell in row) for row in rows) + "\n"
    assert _written("csv", numeric) == csv


def test_dense_numeric_export_rejects_symbolic_entries():
    with pytest.raises(ValueError, match="not a constant"):
        (q * g_op(2)).to_numeric_rows()
    with pytest.raises(ValueError, match="not a constant"):
        _written("csv", q * g_op(2))


def test_entry_validation():
    with pytest.raises(ValueError):
        TensorOp(2, 2, {((1, 3), (1, 1)): 1})
    with pytest.raises(ValueError):
        TensorOp(2, 2, {((1, 1, 1), (1, 1, 1)): 1})
    with pytest.raises(ValueError):
        TensorOp(0, 2)
    # a zero coefficient is dropped only after its key is checked
    for key in (((5, 5), (1, 1)), ((1, 1, 1), (1, 1, 1))):
        for zero in (0, LaurentQP.zero()):
            with pytest.raises(ValueError):
                TensorOp(2, 2, {key: zero})
    obj = {"n": 2, "arity": 2, "entries": [{"out": [9, 9], "in": [1, 1], "coeff": []}]}
    with pytest.raises(ValueError):
        TensorOp.from_json_obj(obj)


@pytest.mark.parametrize(
    "n, arity, entries",
    [
        (2, 2, {((1.0, 2), (2, 1)): 1}),
        (2, 2, {((1, 2), (2, Fraction(1))): 1}),
        (2.0, 2, {}),
        (2, 2.0, {}),
        (2, 2, {((True, 2), (2, 1)): 1}),
        (True, 2, {}),
        (2, True, {}),
        (2, 2, {((1.0, 2), (2, 1)): 0}),
        (2, 2, {((1, 2), (True, 1)): LaurentQP.zero()}),
    ],
)
def test_non_int_index_or_shape_rejected(n, arity, entries):
    # A float index would be stored as given and printed as 1.0 by gen, a
    # bool one as true.
    with pytest.raises(TypeError):
        TensorOp(n, arity, entries)


def test_json_repeated_entry_rejected():
    # the last of two entries at (1,2) <- (2,1) used to win, reading 5
    def entry(coeff):
        return {"out": [1, 2], "in": [2, 1], "coeff": [{"q": 0, "p": 0, "coeff": coeff}]}

    obj = {"n": 2, "arity": 2, "entries": [entry(1), entry(5)]}
    with pytest.raises(ValueError, match="repeated"):
        TensorOp.from_json_obj(obj)
    obj["entries"] = [entry(1), {"out": [2, 1], "in": [1, 2], "coeff": []}, entry(1)]
    with pytest.raises(ValueError, match="repeated"):
        TensorOp.from_json_obj(obj)
    obj["entries"] = [entry(5)]
    assert TensorOp.from_json_obj(obj).apply(2, 1) == {(1, 2): LaurentQP.const(5)}


def test_json_float_index_rejected():
    # a JSON true would be written back as "in": [true, ...]
    for index in (1.0, True):
        for coeff in (None, []):  # as written, or the zero coefficient
            obj = permutation_op(2).to_json_obj()
            obj["entries"][0]["in"][0] = index
            if coeff is not None:
                obj["entries"][0]["coeff"] = coeff
            with pytest.raises(TypeError):
                TensorOp.from_json_obj(obj)


def test_zero_coefficients_dropped():
    op = TensorOp(2, 2, {((1, 1), (1, 1)): LaurentQP.zero(), ((2, 2), (2, 2)): 0})
    assert op.is_zero()
    rng = random.Random(1)
    x = random_laurent(rng)
    cancel = TensorOp(2, 2, {((1, 2), (2, 1)): x}) - TensorOp(
        2, 2, {((1, 2), (2, 1)): x}
    )
    assert cancel.is_zero()


# ----------------------------------------------------------------------
# the multiply-accumulate kernel against a naive reference that only uses
# the public LaurentQP * and +


def _naive_sum(f, g, a, b):
    """Entries of a*f + b*g, zero entries dropped."""
    acc = {}
    for scalar, op in ((a, f), (b, g)):
        for key, coeff in op.entries.items():
            acc[key] = acc.get(key, LaurentQP.zero()) + scalar * coeff
    return {key: coeff for key, coeff in acc.items() if not coeff.is_zero()}


def _naive_compose(f, g):
    acc = {}
    g_entries = g.entries  # built on each read, so read once
    for (out, mid), x in f.entries.items():
        for (mid2, inp), y in g_entries.items():
            if mid == mid2:
                acc[(out, inp)] = acc.get((out, inp), LaurentQP.zero()) + x * y
    return {key: coeff for key, coeff in acc.items() if not coeff.is_zero()}


def _assert_canonical(op):
    for coeff in op.entries.values():
        assert not coeff.is_zero()
        for _, c in coeff:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _with_cancellation(rng, f, g):
    """(f2, g2) whose product cancels exactly in some entries.

    Column m2 of f2 repeats column m1 of f and row m2 of g2 is minus row m1
    of g, so the products through m1 and m2 sum to zero in every entry they
    reach; g2 also holds -f on a random subset of keys, so f2 + g2 cancels.
    """
    basis = f.basis_tuples()
    m1, m2 = rng.sample(basis, 2)
    f_entries = {k: c for k, c in f.entries.items() if k[1] != m2}
    f_entries.update({(out, m2): c for (out, mid), c in f.entries.items() if mid == m1})
    g_entries = {k: c for k, c in g.entries.items() if k[0] != m2}
    g_entries.update({(m2, inp): -c for (mid, inp), c in g.entries.items() if mid == m1})
    g_entries.update({k: -c for k, c in f_entries.items() if rng.random() < 0.5})
    return TensorOp(f.n, f.arity, f_entries), TensorOp(f.n, f.arity, g_entries)


COEFF_KINDS = {
    "int": random_int,
    "fraction": random_proper_fraction,
    "mixed": random_fraction,
}


@given(
    st.integers(0, 2**32),
    st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]),
    st.sampled_from(sorted(COEFF_KINDS)),
    st.booleans(),
)
def test_kernel_matches_naive_reference(seed, shape, kind, cancel):
    rng = random.Random(seed)
    n, arity = shape
    density = 0.1 if (n, arity) == (3, 3) else 0.4
    coeff = COEFF_KINDS[kind]
    f = random_op(rng, n, arity, density, coeff=coeff)
    g = random_op(rng, n, arity, density, coeff=coeff)
    if cancel and n > 1:
        f, g = _with_cancellation(rng, f, g)
    laurent, constant = random_laurent(rng, coeff=coeff), coeff(rng)
    cases = [
        (f @ g, _naive_compose(f, g)),
        (f + g, _naive_sum(f, g, 1, 1)),
        (f - g, _naive_sum(f, g, 1, -1)),
        (g - f, _naive_sum(f, g, -1, 1)),
        (f - f, {}),
        (-f, _naive_sum(f, g, -1, 0)),
        (f.scale(laurent), _naive_sum(f, g, laurent, 0)),
        (f.scale(constant), _naive_sum(f, g, constant, 0)),
    ]
    for result, expected in cases:
        _assert_canonical(result)
        assert (result.n, result.arity) == (n, arity)
        assert dict(result.entries) == expected


def _words(terms):
    """The flat signed words of pairs (f, g): (1, f, g) for an operator f,
    (f, g) for a scalar f."""
    return [(1, f, g) if isinstance(f, TensorOp) else (f, g) for f, g in terms]


def _naive_compose_sum(terms):
    """Entries of the sum of the pairs (f, g), f∘g for an operator f and
    f·g for a scalar f, from the naive products, LaurentQP + and *."""
    acc = {}
    for f, g in terms:
        if isinstance(f, TensorOp):
            entries = _naive_compose(f, g)
        else:
            entries = {key: coeff * f for key, coeff in g.entries.items()}
        for key, coeff in entries.items():
            acc[key] = acc.get(key, LaurentQP.zero()) + coeff
    return {key: coeff for key, coeff in acc.items() if not coeff.is_zero()}


@given(
    st.integers(0, 2**32),
    st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]),
    st.sampled_from(sorted(COEFF_KINDS)),
    st.lists(st.sampled_from(["pair", "scalar"]), min_size=1, max_size=4),
    st.booleans(),
)
def test_compose_sum_matches_naive_sum(seed, shape, kind, kinds, cancel):
    rng = random.Random(seed)
    n, arity = shape
    density = 0.1 if (n, arity) == (3, 3) else 0.4
    coeff = COEFF_KINDS[kind]
    f = random_op(rng, n, arity, density, coeff=coeff)
    g = random_op(rng, n, arity, density, coeff=coeff)
    if cancel and n > 1:
        f, g = _with_cancellation(rng, f, g)
    pool = [f, g, -f, -g]
    laurent = random_laurent(rng, coeff=coeff)
    scalars = [1, -1, random_int(rng), random_proper_fraction(rng), laurent]
    terms = []
    for kind_of_term in kinds:
        left = rng.choice(pool if kind_of_term == "pair" else scalars)
        terms.append((left, rng.choice(pool)))
    if cancel:
        # the negated copy of a term cancels it exactly
        first, second = terms[0]
        terms.append((-first, second))
    result = compose_sum(_words(terms))
    _assert_canonical(result)
    assert (result.n, result.arity) == (n, arity)
    assert dict(result.entries) == _naive_compose_sum(terms)
    if cancel:
        assert dict(result.entries) == _naive_compose_sum(terms[1:-1])


# ----------------------------------------------------------------------
# the constant-coefficient path of compose_sum against the same naive
# reference: operators whose every entry is an int or a Fraction


def _random_half(rng):
    """An odd multiple of 1/2: two of them may sum to an int, 1/2 + 1/2 = 1."""
    return Fraction(rng.choice([-3, -1, 1, 3]), 2)


def _random_prime_fraction(rng):
    """k/7, k/11, k/13 or k/17: pairwise coprime denominators, so the common
    denominator of a sum grows with every term that brings a new one."""
    return Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([7, 11, 13, 17]))


CONSTANT_KINDS = {**COEFF_KINDS, "half": _random_half, "prime": _random_prime_fraction}


def _constant_op(rng, n, arity, density, coeff):
    basis = list(itertools.product(range(1, n + 1), repeat=arity))
    entries = {(out, inp): coeff(rng) for out in basis for inp in basis if rng.random() < density}
    return TensorOp(n, arity, entries)


def _assert_same_operator(result, expected):
    """``result`` has the canonical ``expected`` entries, and the same
    witness, witness JSON and JSON as the operator built from them; the
    witness is read first, before anything builds the entries."""
    reference = TensorOp(result.n, result.arity, expected)
    witness = result.first_entry()
    assert witness == reference.first_entry()
    if witness is not None:
        assert witness[2].to_json_obj() == reference.first_entry()[2].to_json_obj()
    _assert_canonical(result)
    assert dict(result.entries) == expected
    assert result.to_json_obj() == reference.to_json_obj()


@given(
    st.integers(0, 2**32),
    st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]),
    st.sampled_from(sorted(CONSTANT_KINDS)),
    st.lists(st.sampled_from(["pair", "scalar"]), min_size=1, max_size=4),
    st.booleans(),
    st.sampled_from([None, "operator", "scalar"]),
)
def test_constant_path_matches_naive_sum(seed, shape, kind, kinds, cancel, symbolic):
    rng = random.Random(seed)
    n, arity = shape
    density = 0.15 if (n, arity) == (3, 3) else 0.5
    coeff = CONSTANT_KINDS[kind]
    f = _constant_op(rng, n, arity, density, coeff)
    g = _constant_op(rng, n, arity, density, coeff)
    if cancel and n > 1:
        f, g = _with_cancellation(rng, f, g)
    pool = [f, g, -f, -g, TensorOp.zero(n, arity)]
    scalars = [
        1,
        -1,
        random_int(rng),
        random_proper_fraction(rng),
        LaurentQP.const(random_fraction(rng)),
    ]
    terms = []
    for kind_of_term in kinds:
        left = rng.choice(pool if kind_of_term == "pair" else scalars)
        terms.append((left, rng.choice(pool)))
    if cancel:
        first, second = terms[0]
        terms.append((-first, second))
    if symbolic == "operator":
        # random_op has q and p exponents in -2..2, so q^3 cannot cancel
        symbolic_op = random_op(rng, n, arity, density) + q**3 * TensorOp.identity(n, arity)
        terms.append((rng.choice(pool), symbolic_op))
    elif symbolic == "scalar":
        terms.append((q + random_int(rng), rng.choice(pool)))
    # the reference sums constant terms as Fractions, symbolic ones as LaurentQP
    read = LaurentQP.constant_value if symbolic is None else as_laurent
    expected = _grouped_compose_sum(terms, read)
    with _recording_sums() as sums:
        result = compose_sum(_words(terms))
    # constants take the q form at width zero, its least q exponent 0; a
    # scalar in q alone over constant operators takes the q form too
    assert len(sums) == 1
    if symbolic is None:
        assert (sums[0].base, sums[0].digits[1]) == (None, 0)
    if symbolic == "scalar":
        assert sums[0].digits is not None
    assert (result.n, result.arity) == (n, arity)
    _assert_same_operator(result, expected)
    if cancel and symbolic is None:
        assert dict(result.entries) == _grouped_compose_sum(terms[1:-1])


def test_constant_path_demotes_integral_sums_and_drops_zeros():
    a = TensorOp(2, 2, {((1, 2), (2, 1)): Fraction(1, 2), ((1, 1), (1, 1)): Fraction(1, 3)})
    b = TensorOp(2, 2, {((1, 2), (2, 1)): Fraction(1, 2), ((1, 1), (1, 1)): Fraction(-1, 3)})
    total = compose_sum([(1, a), (1, b)])  # 1/2 + 1/2 = 1 and 1/3 - 1/3 = 0
    ((key, coeff),) = total.entries.items()
    assert key == ((1, 2), (2, 1))
    assert coeff.terms() == {(0, 0): 1} and type(coeff.terms()[(0, 0)]) is int
    assert total.first_entry() == ((2, 1), (1, 2), LaurentQP.one())
    assert total.to_json_obj()["entries"] == [
        {"out": [1, 2], "in": [2, 1], "coeff": [{"q": 0, "p": 0, "coeff": "1/1"}]}
    ]
    assert compose_sum([(1, a), (LaurentQP.const(-1), a)]).is_zero()


@given(
    st.integers(0, 2**32),
    st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]),
    st.sampled_from(sorted(CONSTANT_KINDS)),
    st.booleans(),
)
def test_chained_constant_sums_match_naive_sum(seed, shape, kind, cancel):
    # the result of one compose_sum is a factor of a second one, which reads
    # the columns the first was summed in, over the first's denominator
    rng = random.Random(seed)
    n, arity = shape
    density = 0.15 if (n, arity) == (3, 3) else 0.5
    coeff = CONSTANT_KINDS[kind]
    f = _constant_op(rng, n, arity, density, coeff)
    g = _constant_op(rng, n, arity, density, coeff)
    if cancel and n > 1:
        f, g = _with_cancellation(rng, f, g)
    first_terms = [(f, g), (random_proper_fraction(rng), f)]
    first = compose_sum(_words(first_terms))
    # a proper Fraction scalar makes the carried denominator at least 2
    assert first._den > 1
    scalar = LaurentQP.const(_random_prime_fraction(rng))
    second = compose_sum([(1, first, g), (1, f, first), (scalar, first), (-1, g)])
    reference = TensorOp(n, arity, _grouped_compose_sum(first_terms))
    _assert_same_operator(
        second,
        _grouped_compose_sum([(reference, g), (f, reference), (scalar, reference), (-1, g)]),
    )
    _assert_same_operator(first, dict(reference.entries))


def _grouped_compose_sum(terms, read=LaurentQP.constant_value):
    """The entries :func:`_naive_compose_sum` gives, with each right
    factor's entries grouped by mid.  Each coefficient is summed as
    ``read(coeff)``: by default in plain ``Fraction`` arithmetic, which
    needs constant terms; ``read`` may also keep the LaurentQP."""
    acc = {}
    for f, g in terms:
        g_by_mid = {}
        for (mid, inp), coeff in g.entries.items():
            g_by_mid.setdefault(mid, []).append((inp, read(coeff)))
        if isinstance(f, TensorOp):
            left = [(out, mid, read(coeff)) for (out, mid), coeff in f.entries.items()]
        else:
            left = [(mid, mid, read(as_laurent(f))) for mid in g_by_mid]
        for out, mid, x in left:
            for inp, y in g_by_mid.get(mid, ()):
                acc[(out, inp)] = acc.get((out, inp), 0) + x * y
    return {key: as_laurent(value) for key, value in acc.items() if value}


@given(st.integers(0, 2**32), st.sampled_from(sorted(CONSTANT_KINDS)))
def test_constant_lifts_match_entry_lifts(seed, kind):
    rng = random.Random(seed)
    f = _constant_op(rng, 3, 2, 0.5, CONSTANT_KINDS[kind])
    for lift, place in ((lift12, lambda t, m: (*t, m)), (lift23, lambda t, m: (m, *t))):
        lifted = lift(f)
        # a constant lift holds int columns, with no LaurentQP built
        assert holds_int_columns(lifted)
        expected = {
            (place(out, m), place(inp, m)): coeff
            for (out, inp), coeff in f.entries.items()
            for m in range(1, 4)
        }
        _assert_same_operator(lifted, expected)


def test_constant_path_stores_integral_sum_over_common_denominator_as_int():
    a = TensorOp(2, 2, {((1, 2), (2, 1)): Fraction(1, 3), ((2, 2), (2, 1)): Fraction(1, 5)})
    b = TensorOp(2, 2, {((1, 2), (2, 1)): Fraction(2, 3)})
    # 1/3 + 2/3 = 1 over the denominator 15: a sum of constants is the q form
    # at width zero, and its ints are stored as they are, none read back
    with _recording_sums() as sums, mock.patch.object(kronecker, "decode") as decode:
        total = compose_sum([(1, a), (1, b)])
    assert [s.digits[1:] for s in sums] == [(0, 15)] and decode.call_count == 0
    den, columns = total._den, total._columns
    assert den == 15
    assert {
        (inp, out): Fraction(value, den)
        for inp, column in columns.items()
        for out, value in column.items()
    } == {((2, 1), (1, 2)): 1, ((2, 1), (2, 2)): Fraction(1, 5)}
    assert total.first_entry() == ((2, 1), (1, 2), LaurentQP.one())
    assert type(total.first_entry()[2].terms()[(0, 0)]) is int
    coeff = total.entries[((1, 2), (2, 1))]
    assert coeff.terms() == {(0, 0): 1} and type(coeff.terms()[(0, 0)]) is int
    assert total.entries[((2, 2), (2, 1))] == LaurentQP.const(Fraction(1, 5))
    # equality compares coefficients, not the ints stored over each denominator
    reduced = TensorOp(2, 2, {((1, 2), (2, 1)): 1, ((2, 2), (2, 1)): Fraction(1, 5)})
    assert reduced._den == 5 and total == reduced


def test_laurent_sum_with_constant_values_is_stored_as_ints():
    # q·P − q·P + g carries q in its terms, so it is summed in the q form;
    # every value of the result is constant, so it is stored as ints and a
    # check on it runs on the constants' kernel: the q form at q^0, over 1
    P, g = permutation_op(3), g_op(3)
    with _recording_sums() as sums:
        combo = compose_sum([(q, P), (-q, P), (1, g)])
    assert [(s.base, s.digits is not None) for s in sums] == [(None, True)]
    assert holds_int_columns(combo)
    assert combo == g
    with _recording_sums() as sums:
        assert check_ybe(combo).passed
    assert [(s.base, s.digits[1:]) for s in sums] == [(None, (0, 1))]
    # (q^-1 + 1)·P − q^-1·P sums at least exponent −1, so each int is the
    # digit 1 at q^0, 2^k, read back before it is stored as an int
    with _recording_sums() as sums:
        combo = compose_sum([(q**-1 + 1, P), (-(q**-1), P)])
    assert [s.digits[1] for s in sums] == [-1]
    assert holds_int_columns(combo) and combo._den == 1
    assert combo == P


@pytest.mark.parametrize("scalar", [q, q**-1, 1 - q, q - 1, q + q**-1], ids=str)
def test_q_form_values_that_are_not_one_digit_at_q0_stay_laurent(scalar):
    # an int of the q form is stored as it is only when the least q exponent
    # is 0 and the int is one balanced digit; q is one digit at q^1, q^-1 one
    # at least exponent -1, and 1 - q, q - 1 are two digits at q^0
    P = permutation_op(3)
    with _recording_sums() as sums:
        result = compose_sum([(scalar, P)])
    assert [s.digits is not None for s in sums] == [True]
    assert result._den is None
    assert all(type(v) is LaurentQP for column in result._columns.values() for v in column.values())
    assert result == TensorOp(3, 2, {key: scalar for key in P.entries})


@contextlib.contextmanager
def _recording_sums():
    """Every tensor._Sum built inside the block, in order."""
    sums = []
    kernel = tensor._Sum

    def recording(*args):
        sums.append(kernel(*args))
        return sums[-1]

    with mock.patch.object(tensor, "_Sum", side_effect=recording):
        yield sums
