"""Constructors: eta/step/delta values, P, g, the R-matrices, the inverse.

The structurally built matrices are cross-validated entry by entry against
independent case-by-case constructions in helpers.py.
"""

import itertools
from fractions import Fraction

import pytest

from cgybe import model
from cgybe import (
    LaurentQP,
    TensorOp,
    cg_inverse,
    cg_op,
    cg_twisted_op,
    compose_sum,
    eta,
    g_op,
    hecke_parameters,
    kron_delta,
    permutation_op,
    step_u,
    p,
    q,
)

from helpers import cg_case_display, cg_twisted_case_display, naive_eta


def test_eta_values():
    assert eta(1, 3, 2) == 1
    assert eta(3, 1, 2) == -1
    assert eta(2, 2, 2) == 0
    assert eta(1, 2, 1) == 1
    assert eta(1, 2, 2) == 0


def test_eta_matches_range_membership_oracle():
    for i in range(-4, 5):
        for j in range(-4, 5):
            for k in range(-4, 5):
                assert eta(i, j, k) == naive_eta(i, j, k)


def test_step_values():
    assert step_u(0) == 1
    assert step_u(5) == 1
    assert step_u(-1) == 0


def test_step_determined_by_eta_decomposition():
    # eta(i,j,k) = u(k-i) - u(k-j) forces u(x) = 1 exactly for x >= 0:
    # any other unit step breaks the decomposition somewhere in the window.
    for i in range(-4, 5):
        for j in range(-4, 5):
            for k in range(-4, 5):
                assert eta(i, j, k) == step_u(k - i) - step_u(k - j)


def test_step_reflection_identity():
    for x in range(-6, 7):
        assert step_u(x) + step_u(-x) == 1 + kron_delta(x)


def test_step_addition_identity():
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert step_u(x + y) * (step_u(x) + step_u(y)) == step_u(x) * step_u(
                y
            ) + step_u(x + y)


def test_delta_values():
    assert kron_delta(0) == 1
    assert kron_delta(3) == 0
    assert kron_delta(-3) == 0


def test_permutation_small():
    assert permutation_op(1) == TensorOp.identity(1)
    P = permutation_op(2)
    assert P.apply(1, 2) == {(2, 1): LaurentQP.one()}
    assert P @ P == TensorOp.identity(2)


def test_g_small_cases():
    g2 = g_op(2)
    assert g2.apply(1, 2) == {(1, 2): LaurentQP.one()}
    g3 = g_op(3)
    assert g3.apply(3, 1) == {
        (1, 3): LaurentQP.const(-1),
        (2, 2): LaurentQP.const(-1),
    }
    assert g_op(1).is_zero()


def test_g_conserves_weight():
    for n in (2, 3, 4, 5):
        for (out, inp), coeff in g_op(n).entries.items():
            assert sum(out) == sum(inp)
            assert not coeff.is_zero()


def test_cg_matches_case_display():
    alpha, beta = hecke_parameters()
    for n in (1, 2, 3, 4):
        structural = cg_op(n, alpha, beta)
        display = cg_case_display(n)
        assert structural == display, n


def test_cg_display_examples():
    alpha, beta = hecke_parameters()
    c = cg_op(2, alpha, beta)
    assert c.apply(1, 2) == {(2, 1): q, (1, 2): q - q**-1}
    assert c.apply(2, 1) == {(1, 2): q**-1}
    for n in (1, 2, 3):
        cn = cg_op(n, alpha, beta)
        for i in range(1, n + 1):
            assert cn.apply(i, i) == {(i, i): q}


def test_twisted_matches_case_display():
    for n in range(1, 9):
        assert cg_twisted_op(n) == cg_twisted_case_display(n), n


def test_twisted_is_the_gauge_of_the_hecke_point():
    # the gauge lemma, entry by entry: entry (a, b) <- (i, j) of the
    # two-parameter matrix is p^(i-a) times that of cg_op at the Hecke pair,
    # and every entry keeps a + b = i + j
    alpha, beta = hecke_parameters()
    for n in range(1, 9):
        twisted, untwisted = cg_twisted_op(n), cg_op(n, alpha, beta)
        assert twisted == model._gauged(untwisted), n
        assert set(twisted.entries) == set(untwisted.entries), n
        for ((a, b), (i, j)), coeff in twisted.entries.items():
            assert a + b == i + j
            assert coeff == untwisted.entries[(a, b), (i, j)] * p**(i - a)


def test_gauge_is_linear():
    # G applied to P and to g separately, then summed at the Hecke pair,
    # is G of their sum: once on int-form input, and once on an operator
    # that neither production builder makes
    alpha, beta = hecke_parameters()
    for n in range(1, 9):
        parts = [(alpha, model._gauged(permutation_op(n))), (beta, model._gauged(g_op(n)))]
        assert compose_sum(parts) == cg_twisted_op(n), n
        assert model._gauged(cg_case_display(n)) == cg_twisted_case_display(n), n


def _trace(op):
    return sum((c for (out, inp), c in op.entries.items() if out == inp), LaurentQP.zero())


@pytest.mark.parametrize("n", range(1, 17))
def test_trace_of_both_matrices(n):
    # tr R = q n(n+1)/2 - q^-1 n(n-1)/2 from tr P = n and tr g = #{i < j},
    # at the Hecke pair and under the gauge, which leaves the diagonal alone
    expected = q * (n * (n + 1) // 2) - q**-1 * (n * (n - 1) // 2)
    assert _trace(permutation_op(n)) == LaurentQP.const(n)
    assert _trace(g_op(n)) == LaurentQP.const(n * (n - 1) // 2)
    assert _trace(cg_op(n, *hecke_parameters())) == expected
    assert _trace(cg_twisted_op(n)) == expected
    # negative control: beta = 1 is not the Hecke pair
    if n >= 2:
        assert _trace(cg_op(n, q, 1)) != expected


def test_gauge_comparison_sees_one_changed_exponent():
    # negative control: a copy of the two-parameter matrix with one p
    # exponent moved by one, at any entry, fails the gauge comparison
    alpha, beta = hecke_parameters()
    for n in (1, 2, 3, 4):
        gauged = model._gauged(cg_op(n, alpha, beta))
        entries = cg_twisted_op(n).entries
        assert TensorOp(n, 2, entries) == gauged
        for key, coeff in entries.items():
            for shift in (p, p**-1):
                changed = dict(entries)
                changed[key] = coeff * shift
                assert TensorOp(n, 2, changed) != gauged, (n, key)


def test_twisted_display_examples():
    c = cg_twisted_op(2)
    assert c.apply(1, 2) == {
        (2, 1): LaurentQP.monomial(1, 1, -1),
        (1, 2): q - q**-1,
    }
    assert c.apply(2, 1) == {(1, 2): LaurentQP.monomial(1, -1, 1)}


def test_twisted_collapses_to_untwisted_at_p_one():
    alpha, beta = hecke_parameters()
    for n in (1, 2, 3, 4):
        collapsed = cg_twisted_op(n).map_coeffs(lambda c: c.subs_p(1))
        assert collapsed == cg_op(n, alpha, beta), n


def test_evaluation_at_one_gives_flip():
    # beta evaluates to 0 and every p-power to 1, for both matrix families.
    alpha, beta = hecke_parameters()
    for n in (2, 3):
        assert cg_op(n, alpha, beta).eval_at(1, 1) == permutation_op(n)
        assert cg_twisted_op(n).eval_at(1, 1) == permutation_op(n)


def test_inverse_hecke_point():
    alpha, beta = hecke_parameters()
    # alpha*(alpha-beta) = q * q^-1 = 1, so the inverse is R - beta*I.
    assert alpha * (alpha - beta) == LaurentQP.one()
    rmat = cg_op(3, alpha, beta)
    inv = cg_inverse(rmat, alpha, beta)
    assert inv == rmat - TensorOp.identity(3).scale(beta)
    assert rmat @ inv == TensorOp.identity(3)
    assert inv @ rmat == TensorOp.identity(3)


def test_inverse_of_flip():
    P = cg_op(3, LaurentQP.one(), LaurentQP.zero())
    assert P == permutation_op(3)
    inv = cg_inverse(P, LaurentQP.one(), LaurentQP.zero())
    assert inv == P


def test_inverse_rejects_equal_parameters():
    rmat = cg_op(2, LaurentQP.one(), LaurentQP.one())
    with pytest.raises(ValueError, match="not invertible"):
        cg_inverse(rmat, LaurentQP.one(), LaurentQP.one())


def test_inverse_rejects_non_unit_scalar():
    alpha = q + q**-1  # alpha*(alpha-beta) has two terms for beta = q
    rmat = cg_op(2, alpha, q)
    with pytest.raises(ValueError, match="not a unit"):
        cg_inverse(rmat, alpha, q)


def test_inverse_for_other_unit_scalars():
    # alpha = 2q, beta chosen so alpha*(alpha-beta) stays a single term.
    alpha = LaurentQP.monomial(2, 1, 0)
    beta = alpha - LaurentQP.monomial(Fraction(1, 2), -1, 0)
    rmat = cg_op(3, alpha, beta)
    inv = cg_inverse(rmat, alpha, beta)
    assert rmat @ inv == TensorOp.identity(3)


def test_constructor_rank_validation():
    with pytest.raises(ValueError):
        cg_op(0, *hecke_parameters())
    with pytest.raises(ValueError):
        cg_twisted_op(0)
    for build in (permutation_op, g_op):
        with pytest.raises(ValueError, match="positive"):
            build(0)
        with pytest.raises(TypeError):
            build(True)


def test_every_constructor_checks_its_rank_the_same_way():
    # one rank rule: each constructor raises the error of g_op
    builders = (
        permutation_op,
        g_op,
        cg_twisted_op,
        lambda n: cg_op(n, *hecke_parameters()),
        TensorOp.identity,
        lambda n: TensorOp(n, 2),
    )
    for bad, error in ((2.0, TypeError), (True, TypeError), ("2", TypeError), (0, ValueError)):
        with pytest.raises(error) as expected:
            g_op(bad)
        for build in builders:
            with pytest.raises(error) as raised:
                build(bad)
            assert str(raised.value) == str(expected.value), (bad, build)
    with pytest.raises(ValueError, match="arity"):
        TensorOp.identity(2, 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_int_built_operators_match_entry_built(n):
    # permutation_op and g_op fill int columns directly; the validating
    # constructor on one LaurentQP per entry must give the same storage form
    indices = range(1, n + 1)
    flip = {((j, i), (i, j)): LaurentQP.one() for i in indices for j in indices}
    shift = {
        ((k, i + j - k), (i, j)): LaurentQP.const(naive_eta(i, j, k))
        for i in indices
        for j in indices
        for k in range(min(i, j), max(i, j))
    }
    for built, entries in ((permutation_op(n), flip), (g_op(n), shift)):
        reference = TensorOp(n, 2, entries)
        assert built._den == reference._den == 1
        assert built._columns == reference._columns
        assert list(built._columns) == list(reference._columns)
    # cg_twisted_op, G(cg_op(n, q, q - q^-1)), and identity, which adopts its
    # int columns without the constructor's checks: same storage form too
    pairs = [(cg_twisted_op(n), cg_twisted_case_display(n))]
    for arity in (2, 3):
        tuples = itertools.product(range(1, n + 1), repeat=arity)
        reference = TensorOp(n, arity, {(t, t): LaurentQP.one() for t in tuples})
        pairs.append((TensorOp.identity(n, arity), reference))
    for built, reference in pairs:
        assert built._den == reference._den
        assert built._columns == reference._columns
        assert list(built._columns) == list(reference._columns)
    assert cg_twisted_op(n)._den is None and TensorOp.identity(n)._den == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_eval_at_drops_vanishing_entries(n):
    # at q = 1 (and q = -1) q - q^-1 vanishes, so every shift entry of both
    # matrices vanishes; eval_at must match the entry-by-entry reference,
    # hold no zero value and keep the int form
    beta = hecke_parameters()[1]
    cases = [
        (cg_twisted_op(n), (1, 1)),
        (cg_op(n, q, beta), (1, 2)),
        (cg_twisted_op(n), (-1, Fraction(1, 3))),
    ]
    for op, point in cases:
        evaluated = op.eval_at(*point)
        # the validating constructor, entry by entry
        entries = {key: LaurentQP.const(c.eval(*point)) for key, c in op.entries.items()}
        reference = TensorOp(n, 2, entries)
        assert evaluated == reference
        assert op.map_coeffs(lambda c: LaurentQP.const(c.eval(*point)))._columns == reference._columns
        assert evaluated._den == reference._den
        assert evaluated._columns == reference._columns
        assert list(evaluated._columns) == list(reference._columns)
        assert all(v for column in evaluated._columns.values() for v in column.values())
        assert all(type(v) is int for column in evaluated._columns.values() for v in column.values())
        assert sum(map(len, evaluated._columns.values())) == n * n
