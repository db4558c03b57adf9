"""Which kernel a sum runs on, and the same witness on every one of them.

A sum in q alone runs on ints at q = 2^k (the q form of ``tensor._Sum``),
and so does a sum over operators that pass the gauge lemma, when no scalar
carries p: the gauge is a lemma whose operators are read with p dropped;
no copy is built.  Each test here compares those paths with the term
kernel (``tensor._apply_terms``), which the reference forces on fresh
copies of the operators: ``kronecker.WIDEST_INT_VALUE`` is -1, so no sum
is narrow enough for the q form.  In the term form the operators keep
their p, so no gauge applies there.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest

from cgybe import LaurentQP, TensorOp, cg_op, cg_twisted_op, check_hecke, check_quadratic
from cgybe import check_ybe, compose_sum, g_op, kronecker, permutation_op, q, tensor, verify
from cgybe.cli import MAX_PARAM_COEFF_BITS, MAX_PARAM_EXPONENT, main
from cgybe.cli import parse_laurent_expr
from cgybe.laurent import p
from cgybe.model import _gauged

from helpers import fresh

HALF = Fraction(1, 2)

# (alpha, beta): the Hecke pair, a fractional alpha, a pair whose
# quadratic relation fails, and a constant pair
PAIRS = {
    "hecke": (q, q - q**-1),
    "half": (HALF * q, q - q**-1),
    "q2": (q**2, q + 3),
    "const": (LaurentQP.const(2), LaurentQP.const(1)),
}

DELTAS = (q, -q, q**-1, LaurentQP.const(1), LaurentQP.const(-1))

# (alpha, beta) that carry p: hecke (at s = alpha) and quadratic sums at
# them have a scalar that carries p
P_PAIRS = {"p": (p, q - q**-1), "qp": (q * p, q)}


def _words(check, op, alpha, beta):
    """The words of ybe, hecke (at s = alpha) or quadratic of op, or those
    of ybe each times alpha (``alpha*ybe``)."""
    if check == "alpha*ybe":
        return [(alpha * scalar, *factors) for scalar, *factors in _words("ybe", op, alpha, beta)]
    if check == "ybe":
        return verify.EQUATIONS["ybe"][1](op)
    if check == "hecke":
        return verify.EQUATIONS["hecke"][1](op, alpha)
    return verify.EQUATIONS["quadratic"][1](op, alpha, beta)


@contextlib.contextmanager
def _counting(name):
    """The calls to ``tensor.<name>`` inside the block, by their arguments."""
    calls = []
    kernel = getattr(tensor, name)
    with mock.patch.object(tensor, name, side_effect=lambda *a: calls.append(a) or kernel(*a)):
        yield calls


@contextlib.contextmanager
def _term_path():
    """Every sum inside the block on the term kernel, a constant one
    included: no q form, so no gauge."""
    with mock.patch.object(kronecker, "WIDEST_INT_VALUE", -1):
        yield


@contextlib.contextmanager
def _q_form():
    """Every sum in q alone inside the block on the int kernel, however
    wide its values."""
    with mock.patch.object(kronecker, "WIDEST_INT_VALUE", 10**9):
        yield


def _reference(check, op, alpha, beta):
    """The witness of ``check`` of op on the term path."""
    with _term_path():
        return tensor._witness(_words(check, fresh(op), alpha, beta))


def _mutants(n, alpha, beta):
    """cg_op(n, alpha, beta) with delta added to one weight-preserving
    entry (a, b) <- (i, j), a + b = i + j, for every such entry and delta."""
    base = cg_op(n, alpha, beta)
    entries = dict(base.entries)
    for i, j, a in itertools.product(range(1, n + 1), repeat=3):
        if 1 <= i + j - a <= n:
            key = ((a, i + j - a), (i, j))
            for delta in DELTAS:
                yield TensorOp(n, 2, {**entries, key: entries.get(key, 0) + delta})


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_q_form_and_gauge_give_the_term_path_witness(n, pair):
    # every single-entry mutant of alpha*P + beta*g, and its gauge, where
    # the q form and the gauge run on ints only
    alpha, beta = PAIRS[pair]
    cases = [
        (check, op)
        for mutant in _mutants(n, alpha, beta)
        for op in (mutant, _gauged(mutant))
        for check in ("ybe", "hecke", "quadratic")
    ]
    with _counting("_apply_terms") as calls:
        fast = [tensor._witness(_words(check, op, alpha, beta)) for check, op in cases]
    assert calls == []
    with _term_path():
        for (check, op), witness in zip(cases, fast):
            reference = tensor._witness(_words(check, fresh(op), alpha, beta))
            assert witness == reference, (check, op.sorted_entries())
    assert any(fast)


@pytest.mark.parametrize("pair", sorted(P_PAIRS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauged_mutants_at_p_carrying_scalars_keep_their_p(n, pair):
    # the gauge of every single-entry mutant of the Hecke matrix passes the
    # gauge lemma, but a scalar that carries p sends the sum to the term
    # form, where the operators keep their p: the witness is already the
    # true one and gains no power of p.  At 2 folds it lies at (1,1) <-
    # (1,1), where the gauge gives p^0; ybe times alpha puts it elsewhere
    alpha, beta = P_PAIRS[pair]
    cases = [
        (check, _gauged(mutant))
        for mutant in _mutants(n, *PAIRS["hecke"])
        for check in ("hecke", "quadratic", "alpha*ybe")
    ]
    with _counting("_apply_terms") as calls:
        fast = [tensor._witness(_words(check, op, alpha, beta)) for check, op in cases]
    assert calls
    for (check, op), witness in zip(cases, fast):
        assert op._cache["gauge"] is True
        assert witness == _reference(check, op, alpha, beta), (check, op.sorted_entries())
    assert any(w is not None and _gauge_power(w) for w in fast)


def _gauge_power(witness) -> int:
    """The exponent of the power of p that the gauge gives the coefficient
    at ``witness``."""
    inp, out, _ = witness
    return inp[0] - out[0] if len(inp) == 2 else 2 * (inp[0] - out[0]) + inp[1] - out[1]


def _verify_lines(*argv):
    """The report lines of ``cgybe verify argv``, without ``elapsed_ms``,
    and its exit code."""
    out = []
    with mock.patch("sys.stdout.write", side_effect=out.append):
        code = main(["verify", *argv])
    reports = [json.loads(line) for line in "".join(out).splitlines()]
    for report in reports:
        del report["elapsed_ms"]
    return code, reports


def test_params_at_the_bounds_decode_the_term_path_witness():
    # three terms in q alone, |exponent| and coefficient bits at their
    # bounds, and a fraction in each: the values are too wide for the q
    # form, so the term kernel adds their ints over the widest
    # denominator, and the q form, forced, gives the same witnesses
    e = MAX_PARAM_EXPONENT
    c = 2 ** (MAX_PARAM_COEFF_BITS - 1) - 1
    f = "4294967291*2147483649^-1"
    text = {
        "alpha": f"{c}*q^{e} + {f}*q^-{e} + {c}*q^{e - 1}",
        "beta": f"{f}*q^-{e} + {c}*q^{e} + {f}",
        "unit": f"{f}*q^{e}",
    }
    alpha, beta = (parse_laurent_expr(text[name]) for name in ("alpha", "beta"))
    assert max(len(alpha), len(beta)) == 3
    for mutant in itertools.islice(_mutants(3, alpha, beta), 3, None, 7):
        for check in ("ybe", "quadratic"):
            with _counting("_apply_terms") as calls:
                witness = tensor._witness(_words(check, mutant, alpha, beta))
            assert calls and witness is not None
            with _q_form(), _counting("_apply_terms") as calls:
                assert witness == tensor._witness(_words(check, fresh(mutant), alpha, beta))
            assert calls == []
    # the CLI prints the same reports on both paths, a failing hecke among them
    runs = {}
    for checks, x in (("ybe,compat,mixed,gp,quadratic", "alpha"), ("hecke,quadratic", "unit")):
        argv = ["--n", "4", "--checks", checks, f"--alpha={text[x]}", f"--beta={text['beta']}"]
        with _counting("_apply_terms") as calls:
            runs[x] = _verify_lines(*argv)
        assert calls
        with _q_form(), _counting("_apply_terms") as calls:
            assert runs[x] == _verify_lines(*argv)
        assert calls == []
    assert runs["alpha"][0] == 0
    assert runs["unit"][0] == 1 and [r["passed"] for r in runs["unit"][1]] == [False, True]


def test_one_changed_p_exponent_fails_the_gauge_lemma():
    # cg2 with q^-1·p at (1, 2) <- (2, 1) read as q^-1·p^2: the gauge lemma
    # fails, so the sums take the term kernel, with the term path's witness
    n = 4
    entries = dict(cg_twisted_op(n).entries)
    key = ((1, 2), (2, 1))
    assert entries[key] == q**-1 * p
    entries[key] = q**-1 * p**2
    changed = TensorOp(n, 2, entries)
    assert tensor._gauge_lemma(changed) is False
    assert tensor._gauge_lemma(cg_twisted_op(n)) is True
    # the gauge of an operator that breaks i + j at one entry fails it too
    c1 = cg_op(n, *PAIRS["hecke"])
    broken = _gauged(TensorOp(n, 2, {**c1.entries, ((1, 1), (1, 2)): q}))
    assert tensor._gauge_lemma(broken) is False
    alpha, beta = PAIRS["hecke"]
    for op, check in itertools.product((changed, broken), ("ybe", "hecke", "quadratic")):
        with _counting("_apply_terms") as calls:
            witness = tensor._witness(_words(check, op, alpha, beta))
        assert calls and witness is not None
        assert witness == _reference(check, op, alpha, beta)


def test_cg2_read_back_from_json_takes_the_gauge_path():
    n = 5
    twisted = cg_twisted_op(n)
    read_back = TensorOp.from_json_obj(twisted.to_json_obj())
    assert read_back._cache == {}
    alpha, beta = PAIRS["hecke"]
    with _counting("_apply_terms") as calls, _counting("_gauge_lemma") as lemmas:
        for check in ("ybe", "hecke", "quadratic"):
            assert tensor._witness(_words(check, read_back, alpha, beta)) is None
    assert calls == [] and len(lemmas) == 1
    assert read_back._cache["gauge"] is True
    # packed in the q form, its own values read with p dropped are those of
    # the one-parameter matrix at the Hecke pair
    (packing, packed) = read_back._cache[1]
    assert packing[0] is None and packing[1] is not None
    c1 = tensor._factor(cg_op(n, alpha, beta), 1, packing)
    assert [sorted(column) for column in packed.table] == [sorted(column) for column in c1.table]


def test_q_only_and_gauged_checks_never_reach_the_term_kernel():
    n = 4
    pairs = [PAIRS["hecke"], PAIRS["q2"], PAIRS["half"]]
    with _counting("_apply_terms") as calls:
        for alpha, beta in pairs:
            r = cg_op(n, alpha, beta)
            check_ybe(r)
            check_hecke(r, alpha)
            check_quadratic(n, alpha, beta)
        twisted = cg_twisted_op(n)
        assert check_ybe(twisted).passed
        assert check_hecke(twisted, q).passed
        assert tensor._witness(_words("quadratic", twisted, *PAIRS["hecke"])) is None
    assert calls == []
    # a second check of the same operator packs nothing
    for op in (twisted, cg_op(n, *PAIRS["half"])):
        check_ybe(op)
        with _counting("_factor") as packed:
            assert check_ybe(op).passed
        assert packed == []


def test_wide_int_values_take_the_term_kernel(monkeypatch):
    # coefficients whose q-form ints would be wider than the limit run on
    # the term dicts, where their products are cheaper, ints or fractions
    e, c = MAX_PARAM_EXPONENT, 2 ** (MAX_PARAM_COEFF_BITS - 1) - 1
    alpha = c * q**e + c * q**-e + c * q ** (e - 1)
    beta = c * q**-e + c * q**e + c
    wide = cg_op(3, alpha, beta)
    words = [tensor._word(word) for word in _words("ybe", wide, alpha, beta)]
    base, (k, _, den), _ = kronecker.form(words, tensor._q_scale, False)
    assert base is not None and den == 1 and k * 2 * e > kronecker.WIDEST_INT_VALUE
    with _counting("_apply_terms") as calls:
        assert check_ybe(wide).passed
    assert calls
    # the gauge of a mutant passes the gauge lemma and takes the term form
    # too, keeping its p: the term path's witnesses, not shifted by p
    shifted = False
    for mutant in itertools.islice(_mutants(3, alpha, beta), 1, None, 9):
        gauged = _gauged(mutant)
        for check in ("ybe", "quadratic"):
            with _counting("_apply_terms") as calls:
                witness = tensor._witness(_words(check, gauged, alpha, beta))
            assert calls and gauged._cache["gauge"] is True and witness is not None
            assert witness == _reference(check, gauged, alpha, beta)
            shifted = shifted or _gauge_power(witness) != 0
    assert shifted
    fractional = cg_op(3, alpha, beta + Fraction(1, 3))
    with _counting("_apply_terms") as calls:
        assert check_ybe(fractional).passed
    assert calls
    # the limit is inclusive
    monkeypatch.setattr(kronecker, "WIDEST_INT_VALUE", k * 2 * e)
    assert kronecker.form(words, tensor._q_scale, False)[0] is None
    monkeypatch.setattr(kronecker, "WIDEST_INT_VALUE", k * 2 * e - 1)
    assert kronecker.form(words, tensor._q_scale, False)[0] is not None


def test_scale_of_columns():
    # low, lcm denominator, largest column l1 norm times it, span, and the
    # largest |p exponent|
    x, y = q**-1 + HALF * q, Fraction(1, 3) * q**2 - 2 + q**3
    assert kronecker.scale([{1: x}, {1: x, 2: y}], None) == (-1, 6, 6 + 3 + 2 + 12 + 6, 4, 0)
    assert kronecker.scale([{1: x}, {2: p * q}], None) == (-1, 2, 3, 2, 1)
    assert kronecker.scale([{1: q + q**2}], None) == (1, 1, 2, 1, 0)
    assert kronecker.scale([{1: 3, 2: -4}, {1: 5}], 7) == (0, 7, 7, 0, 0)
    assert kronecker.scale([{None: LaurentQP.zero()}], None) == (0, 1, 0, 0, 0)


def test_built_and_summed_operators_hold_one_object_per_distinct_value():
    n = 6
    twisted = cg_twisted_op(n)
    summed = compose_sum([(q, permutation_op(n)), (q - q**-1, g_op(n)), (q**-2, g_op(n), g_op(n))])
    for op in (twisted, summed):
        values = [value for column in op._columns.values() for value in column.values()]
        assert all(type(value) is LaurentQP for value in values)
        assert len({id(value) for value in values}) == len(set(values)) < len(values)
