"""Operator-level checks: Yang-Baxter, compatibility, mixed, Hecke,
the g/P relations and the quadratic relation, pass and fail paths."""

import functools
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cgybe import model, tensor, verify

from cgybe import (
    LaurentQP,
    TensorOp,
    cg_inverse,
    cg_op,
    cg_twisted_op,
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_mixed_conditions,
    check_quadratic,
    check_ybe,
    compose_sum,
    endo_eq,
    g_op,
    hecke_parameters,
    lift12,
    lift23,
    permutation_op,
    p,
    q,
)

from helpers import (
    YBE_FAIL_FIXTURE_ENTRIES,
    YBE_FAIL_FIXTURE_WITNESS,
    fresh,
    holds_int_columns,
    random_fraction,
    random_int,
    random_laurent,
    random_op,
)


def ybe_fail_fixture() -> TensorOp:
    return TensorOp(2, 2, YBE_FAIL_FIXTURE_ENTRIES)


def test_ybe_passes_for_cg():
    alpha, beta = hecke_parameters()
    report = check_ybe(cg_op(3, alpha, beta))
    assert report.passed and report.witness is None


def test_ybe_passes_for_flip_and_g():
    assert check_ybe(permutation_op(3)).passed
    for n in (1, 2, 3, 4):
        assert check_ybe(g_op(n)).passed, n


def test_ybe_fails_for_frozen_fixture():
    report = check_ybe(ybe_fail_fixture())
    assert not report.passed
    inp, out, diff = report.witness
    exp_inp, exp_out, exp_diff = YBE_FAIL_FIXTURE_WITNESS
    assert (inp, out) == (exp_inp, exp_out)
    assert diff == LaurentQP.const(exp_diff)


def test_compatibility_passes_for_g():
    assert check_compatibility(g_op(4)).passed


def test_compatibility_passes_for_flip():
    assert check_compatibility(permutation_op(3)).passed


def test_compatibility_fails_for_identity():
    # With g = I both sides collapse to flips: 2*P12 + P23 vs 2*P23 + P12.
    n = 2
    report = check_compatibility(TensorOp.identity(n))
    assert not report.passed
    P12 = lift12(permutation_op(n))
    P23 = lift23(permutation_op(n))
    expected_diff = (2 * P12 + P23) - (2 * P23 + P12)
    assert not expected_diff.is_zero()
    (out, inp), coeff = min(
        expected_diff.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])
    )
    assert report.witness == (inp, out, coeff)


def test_mixed_conditions_flip_g():
    assert check_mixed_conditions(permutation_op(3), g_op(3)).passed


def test_mixed_conditions_diagonal_cases():
    alpha, beta = hecke_parameters()
    c = cg_op(2, alpha, beta)
    assert check_ybe(c).passed
    assert check_mixed_conditions(c, c).passed
    identity = TensorOp.identity(2)
    assert check_mixed_conditions(identity, identity).passed


def test_mixed_conditions_rank_mismatch():
    with pytest.raises(ValueError):
        check_mixed_conditions(permutation_op(2), g_op(3))


def test_hecke_passes_symbolically():
    alpha, beta = hecke_parameters()
    for n in (1, 2, 3):
        assert check_hecke(cg_op(n, alpha, beta), alpha).passed, n


def test_hecke_trivial_rank_one():
    alpha, beta = hecke_parameters()
    rmat = cg_op(1, alpha, beta)
    assert rmat == TensorOp(1, 2, {((1, 1), (1, 1)): q})
    assert check_hecke(rmat, q).passed


def test_hecke_fails_for_beta_one():
    rmat = cg_op(2, q, LaurentQP.one())
    report = check_hecke(rmat, q)
    assert not report.passed
    assert report.witness is not None


def test_hecke_rejects_non_unit_scalar():
    with pytest.raises(ValueError):
        check_hecke(permutation_op(2), q + q**-1)


@pytest.mark.parametrize("scalar, error", [(True, TypeError), (1.0, TypeError), (0, ValueError)])
def test_hecke_scalar_rule(scalar, error):
    # one rule, shared by check_hecke and cgybe verify
    with pytest.raises(error):
        verify.hecke_scalar(scalar)
    with pytest.raises(error):
        check_hecke(permutation_op(2), scalar)
    assert verify.hecke_scalar(Fraction(2)) == LaurentQP.const(2)


def test_bool_parameters_refused():
    # a bool is not the parameter 1
    for alpha, beta in ((True, 1), (1, False), (q, True)):
        with pytest.raises(TypeError):
            check_quadratic(2, alpha, beta)
        with pytest.raises(TypeError):
            cg_op(2, alpha, beta)
    assert check_quadratic(2, 1, 1).passed


@pytest.mark.parametrize(
    "s", [q, -q, 2 * q**2 * p**-1, LaurentQP.const(Fraction(3, 2)), LaurentQP.const(-1)]
)
def test_hecke_words_are_the_expanded_hecke_sum(s):
    # the hecke row reads the quadratic words at (s, s - s^-1); word by word
    # they equal R^2 + (s^-1 - s)R - I, since s*s^-1 is exactly 1
    rmat = cg_op(2, q, 1)
    words = verify.EQUATIONS["hecke"][1](rmat, s)
    assert words == verify.EQUATIONS["quadratic"][1](rmat, s, s - s.unit_inverse())
    assert words == [(1, rmat, rmat), (s.unit_inverse() - s, rmat), (-1,)]


def test_gp_relations_small():
    for n in (1, 2, 3, 4):
        assert check_gp_relations(n).passed, n


def test_gp_spot_expansion():
    g, P = g_op(3), permutation_op(3)
    lhs = (P @ g).apply(1, 3)
    assert lhs == {(3, 1): LaurentQP.one(), (2, 2): LaurentQP.one()}
    rhs = (g + P - TensorOp.identity(3)).apply(1, 3)
    assert lhs == rhs


def test_quadratic_symbolic_hecke_point():
    alpha, beta = hecke_parameters()
    report = check_quadratic(3, alpha, beta)
    assert report.passed
    # alpha*(alpha - beta) = 1 here, so the relation reads R^2 = beta*R + I.
    rmat = cg_op(3, alpha, beta)
    assert rmat @ rmat == rmat.scale(beta) + TensorOp.identity(3)


def test_quadratic_flip():
    assert check_quadratic(2, LaurentQP.one(), LaurentQP.zero()).passed


def test_quadratic_independent_symbols():
    # q and p are algebraically independent, so this is the fully symbolic
    # two-parameter statement, not a sampled one.
    assert check_quadratic(3, q, p).passed


def test_quadratic_sampled_rationals():
    rng = random.Random(422)
    for _ in range(8):
        alpha = LaurentQP.const(random_fraction(rng, nonzero=True))
        beta = LaurentQP.const(random_fraction(rng, nonzero=True))
        assert check_quadratic(3, alpha, beta).passed


def test_ybe_for_sampled_linear_combinations():
    rng = random.Random(31415)
    for n in (2, 3, 4):
        P, g = permutation_op(n), g_op(n)
        for _ in range(3):
            a = LaurentQP.const(random_fraction(rng))
            b = LaurentQP.const(random_fraction(rng))
            assert check_ybe(compose_sum([(a, P), (b, g)])).passed, (n, a, b)


def test_ybe_for_symbolic_linear_combination():
    # alpha = q, beta = p: the universal two-parameter statement.
    combo = compose_sum([(q, permutation_op(3)), (p, g_op(3))])
    assert check_ybe(combo).passed


def test_constant_failing_witnesses_survive_evaluation():
    # Failures with constant coefficients must reproduce verbatim at any point.
    fixture = ybe_fail_fixture()
    identity = TensorOp.identity(2)
    for check, operand in ((check_ybe, fixture), (check_compatibility, identity)):
        symbolic = check(operand)
        assert not symbolic.passed
        numeric = check(operand.eval_at(Fraction(2), Fraction(3)))
        assert not numeric.passed
        assert numeric.witness == symbolic.witness


def test_failing_witness_consistent_with_numeric_evaluation():
    rmat = cg_op(2, q, LaurentQP.one())
    symbolic = check_hecke(rmat, q)
    assert not symbolic.passed
    sym_inp, sym_out, sym_diff = symbolic.witness
    rng = random.Random(8)
    seen_nonzero = False
    for _ in range(6):
        qv = random_fraction(rng, nonzero=True)
        pv = random_fraction(rng, nonzero=True)
        value = sym_diff.eval(qv, pv)
        if value == 0:
            continue
        seen_nonzero = True
        numeric = check_hecke(rmat.eval_at(qv, pv), LaurentQP.const(qv))
        assert not numeric.passed
        num_inp, num_out, num_diff = numeric.witness
        assert (num_inp, num_out) == (sym_inp, sym_out)
        assert num_diff == LaurentQP.const(value)
    assert seen_nonzero


def test_report_invariant_and_json_schema():
    reports = [
        check_ybe(permutation_op(2)),
        check_ybe(ybe_fail_fixture()),
        check_gp_relations(2),
    ]
    for report in reports:
        assert report.passed == (report.witness is None)
        obj = report.to_json_obj()
        assert set(obj) == {"name", "passed", "witness", "elapsed_ms"}
        assert obj["elapsed_ms"] >= 0
        if report.passed:
            assert obj["witness"] is None
        else:
            assert set(obj["witness"]) == {"input", "output", "diff"}


def test_report_verdict_is_its_witness():
    # a report holds no verdict of its own, so none can disagree with its witness
    passing = verify.CheckReport("x", None, 0.0)
    failing = verify.CheckReport("x", ((1, 2), (1, 2), LaurentQP.one()), 0.0)
    for report, passed in ((passing, True), (failing, False)):
        obj = report.to_json_obj()
        assert report.passed is passed and obj["passed"] is passed
        assert list(obj) == ["name", "passed", "witness", "elapsed_ms"]
    with pytest.raises(AttributeError):
        failing.passed = True


def test_twisted_ybe_small():
    for n in (1, 2, 3):
        assert check_ybe(cg_twisted_op(n)).passed, n


def _watch_inputs(monkeypatch):
    """Every walk over inputs that a check makes, in order, as (reduced,
    the inputs it read)."""
    walks = []
    inputs = tensor._inputs

    def watching(n, arity, reduced):
        walk = []
        walks.append((reduced, walk))
        for t in inputs(n, arity, reduced):
            walk.append(t)
            yield t

    monkeypatch.setattr(tensor, "_inputs", watching)
    return walks


def _all_inputs(n, reduced=False, arity=3):
    return [t for t in itertools.product(range(1, n + 1), repeat=arity) if not reduced or 1 in t]


def test_mixed_conditions_stop_at_first_failure(monkeypatch):
    # (P, cg2) fails the first mixed condition, so the second must never be
    # evaluated: the failing check makes one walk, a passing one two, and
    # the failing walk reads no input after its witness's input.
    n = 3
    perm, twisted, g = permutation_op(n), cg_twisted_op(n), g_op(n)
    walks = _watch_inputs(monkeypatch)
    failing = check_mixed_conditions(perm, twisted)
    failing_walks = list(walks)
    walks.clear()
    passing = check_mixed_conditions(perm, g)
    passing_walks = list(walks)
    monkeypatch.undo()

    assert passing.passed and not failing.passed
    assert len(failing_walks) == 1 and len(passing_walks) == 2
    (_, walk), = failing_walks
    assert walk[-1] == failing.witness[0]
    assert walk == [t for t in _all_inputs(n, reduced=True) if t <= failing.witness[0]]
    f12, f23, g12, g23 = lift12(perm), lift23(perm), lift12(twisted), lift23(twisted)
    lhs = f12 @ g23 @ g12 + g12 @ f23 @ g12 + g12 @ g23 @ f12
    rhs = f23 @ g12 @ g23 + g23 @ f12 @ g23 + g23 @ g12 @ f23
    assert (False, failing.witness) == endo_eq(lhs, rhs)


def test_constant_operators_skip_the_laurent_kernel(monkeypatch):
    # g and P have integer entries, so their checks, 3-fold or 2-fold, never
    # reach the LaurentQP kernel; the q- and p-carrying twisted matrix does
    # in a sum with P, which the gauge does not reach.
    calls = []

    def counting(kernel):
        def counted(*args):
            calls.append(1)
            return kernel(*args)

        return counted

    monkeypatch.setattr(tensor, "_apply_terms", counting(tensor._apply_terms))
    assert check_ybe(g_op(3)).passed
    assert check_gp_relations(3).passed
    assert calls == []
    assert not check_compatibility(cg_twisted_op(3)).passed
    assert len(calls) >= 1


def test_rational_checks_do_no_fraction_arithmetic(monkeypatch):
    # at a rational point the constant path adds int products over one
    # common denominator: a passing check, 3-fold or 2-fold, does no
    # Fraction arithmetic and builds no Fraction inside compose_sum or the
    # column kernel
    numeric = cg_twisted_op(4).eval_at(Fraction(3, 2), Fraction(5, 7))
    calls = Counter()
    inside = []

    def counting(name, method):
        def counted(*args, **kwargs):
            if inside:
                calls[name] += 1
            return method(*args, **kwargs)

        return counted

    entered = Counter()

    def tracking(fn):
        def tracked(*args):
            entered[fn.__name__] += 1
            inside.append(1)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return tracked

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting("__new__", Fraction.__new__)))
    tracked = tracking(compose_sum)
    monkeypatch.setattr(tensor, "compose_sum", tracked)
    monkeypatch.setattr(model, "compose_sum", tracked)
    monkeypatch.setattr(verify, "_witness", tracking(verify._witness))
    monkeypatch.setattr(tensor, "_Sum", tracking(tensor._Sum))
    assert check_ybe(numeric).passed
    assert not calls
    assert entered == {"_witness": 1, "_Sum": 1}
    # R = (3/2)P + (5/7)g is built by one compose_sum, and its quadratic
    # relation is one more sum
    alpha, beta = LaurentQP.const(Fraction(3, 2)), LaurentQP.const(Fraction(5, 7))
    assert check_quadratic(4, alpha, beta).passed
    assert not calls
    assert entered == {"_witness": 2, "_Sum": 3, "compose_sum": 1}
    # a Fraction scalar that carries p, over the operator's Fraction
    # values, takes the term kernel, which adds ints over the sum's
    # denominator as the q form does: no Fraction arithmetic in the sum,
    # and the Fractions built as its values are read back show that the
    # counters count
    monkeypatch.setattr(tensor, "_apply_terms", tracking(tensor._apply_terms))
    scalar = q * p * Fraction(1, 2)
    summed = tracked([(scalar, numeric)])
    assert entered["_apply_terms"] > 0
    assert set(calls) == {"__new__"}
    assert summed == numeric.map_coeffs(lambda c: c * scalar)
    monkeypatch.undo()

    report = check_hecke(cg_op(5, 3, 7), 3)
    assert not report.passed
    assert report.witness == ((1, 2), (1, 2), LaurentQP.const(Fraction(52, 3)))
    assert report.to_json_obj()["witness"]["diff"] == [{"q": 0, "p": 0, "coeff": "52/3"}]


# ----------------------------------------------------------------------
# every check against a reference that builds lhs and rhs and compares
# them with endo_eq, as the checks did before they became fused sums


def _reference(sides):
    for lhs, rhs in sides:
        equal, witness = endo_eq(lhs, rhs)
        if not equal:
            return False, witness
    return True, None


def _reference_cubic(a12, a23, b12, b23):
    lhs = a12 @ b23 @ b12 + b12 @ a23 @ b12 + b12 @ b23 @ a12
    rhs = a23 @ b12 @ b23 + b23 @ a12 @ b23 + b23 @ b12 @ a23
    return lhs, rhs


def _reference_ybe(c):
    c12, c23 = lift12(c), lift23(c)
    return _reference([(c12 @ c23 @ c12, c23 @ c12 @ c23)])


def _reference_compat(g):
    perm = permutation_op(g.n)
    return _reference([_reference_cubic(lift12(perm), lift23(perm), lift12(g), lift23(g))])


def _reference_mixed(f, g):
    f12, f23, g12, g23 = lift12(f), lift23(f), lift12(g), lift23(g)
    return _reference(
        [_reference_cubic(f12, f23, g12, g23), _reference_cubic(g12, g23, f12, f23)]
    )


def _reference_hecke(rmat, s):
    identity = TensorOp.identity(rmat.n)
    lhs = (rmat - identity.scale(s)) @ (rmat + identity.scale(s.unit_inverse()))
    return _reference([(lhs, TensorOp.zero(rmat.n))])


def _reference_gp(g, perm):
    identity = TensorOp.identity(g.n)
    return _reference([(g @ g, g), (g @ perm, -g), (perm @ g, g + perm - identity)])


def _reference_quadratic(rmat, alpha, beta):
    identity = TensorOp.identity(rmat.n)
    rhs = rmat.scale(beta) + identity.scale(alpha * (alpha - beta))
    return _reference([(rmat @ rmat, rhs)])


def _operand(rng, n, kind, solution):
    """A true solution, the same with one entry changed, or a random operator.

    The changed solution makes the fused sum cancel in most entries but not
    all, so the witness is one surviving entry among many cancelled ones.
    """
    if kind == "random":
        return random_op(rng, n)
    if kind == "solution":
        return solution
    entries = dict(solution.entries)
    basis = solution.basis_tuples()
    key = (rng.choice(basis), rng.choice(basis))
    entries[key] = entries.get(key, LaurentQP.zero()) + random_fraction(rng, nonzero=True)
    return TensorOp(n, 2, entries)


def _unit(rng):
    coeff = random_fraction(rng, nonzero=True)
    return LaurentQP.monomial(coeff, rng.randint(-2, 2), rng.randint(-2, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 3),
    st.sampled_from(["solution", "perturbed", "random"]),
    st.sampled_from(["ybe", "compat", "mixed", "hecke", "gp", "quadratic"]),
)
def test_fused_checks_match_two_sided_reference(seed, n, kind, check):
    rng = random.Random(seed)
    alpha, beta = hecke_parameters()
    perm, g = permutation_op(n), g_op(n)
    if check == "ybe":
        combo = compose_sum([(_unit(rng), perm), (random_fraction(rng), g)])
        c = _operand(rng, n, kind, combo)
        report, expected = check_ybe(c), _reference_ybe(c)
    elif check == "compat":
        g2 = _operand(rng, n, kind, g)
        report, expected = check_compatibility(g2), _reference_compat(g2)
    elif check == "mixed":
        f2, g2 = _operand(rng, n, kind, perm), _operand(rng, n, kind, g)
        report, expected = check_mixed_conditions(f2, g2), _reference_mixed(f2, g2)
    elif check == "hecke":
        rmat = _operand(rng, n, kind, cg_op(n, alpha, beta))
        s = alpha if kind == "solution" else _unit(rng)
        report, expected = check_hecke(rmat, s), _reference_hecke(rmat, s)
    elif check == "gp":
        g2, perm2 = _operand(rng, n, kind, g), _operand(rng, n, kind, perm)
        with mock.patch.object(verify, "g_op", lambda _: g2), mock.patch.object(
            verify, "permutation_op", lambda _: perm2
        ):
            report = check_gp_relations(n)
        expected = _reference_gp(g2, perm2)
    else:
        a, b = _unit(rng), LaurentQP.const(random_fraction(rng))
        rmat = _operand(rng, n, kind, cg_op(n, a, b))
        with mock.patch.object(verify, "cg_op", lambda *_: rmat):
            report = check_quadratic(n, a, b)
        expected = _reference_quadratic(rmat, a, b)
    assert (report.passed, report.witness) == expected
    if kind == "solution":
        assert report.passed


# ----------------------------------------------------------------------
# the translation reduction: operators passing the lemma are checked on
# the 3-fold inputs with min index 1 only, every other operator on all


def _shift(tpl, t):
    return tuple(i + t for i in tpl)


def _translation_invariant_op(rng, n, coeff):
    """A random operator passing the translation lemma: one coefficient per
    pattern (output, input), input with min index 1 and outputs in
    [1, max(input)], copied to every translate of the pattern."""
    entries = {}
    for inp in itertools.product(range(1, n + 1), repeat=2):
        if 1 not in inp:
            continue
        for out in itertools.product(range(1, max(inp) + 1), repeat=2):
            if rng.random() < 0.25:
                value = coeff(rng)
                for t in range(n - max(inp) + 1):
                    entries[(_shift(out, t), _shift(inp, t))] = value
    return TensorOp(n, 2, entries)


def _perturb_translates(rng, op):
    """op with one entry changed by the same amount in every translate."""
    n = op.n
    inp = rng.choice([tpl for tpl in op.basis_tuples() if 1 in tpl])
    out = (rng.randint(1, max(inp)), rng.randint(1, max(inp)))
    delta = random_fraction(rng, nonzero=True)
    entries = dict(op.entries)
    for t in range(n - max(inp) + 1):
        key = (_shift(out, t), _shift(inp, t))
        entries[key] = entries.get(key, LaurentQP.zero()) + delta
    return TensorOp(n, 2, entries)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(2, 5),
    st.sampled_from(["solution", "perturbed", "random"]),
    st.sampled_from(["ybe", "compat", "mixed", "hecke"]),
)
def test_reduced_checks_match_two_sided_reference(seed, n, kind, check):
    # every operand passes the lemma, so each check, 3-fold or 2-fold,
    # reads only the inputs with min index 1 and must still find the
    # reference's witness
    rng = random.Random(seed)
    coeff = rng.choice([lambda r: random_fraction(r, nonzero=True), _unit])
    perm, g = permutation_op(n), g_op(n)

    def operand(solution):
        if kind == "random":
            return _translation_invariant_op(rng, n, coeff)
        if kind == "perturbed":
            return _perturb_translates(rng, solution)
        return solution

    if check == "ybe":
        if rng.random() < 0.5:
            solution = cg_twisted_op(n)
        else:
            solution = compose_sum([(_unit(rng), perm), (random_fraction(rng), g)])
        operands = [operand(solution)]
        report, expected = check_ybe(operands[0]), _reference_ybe(operands[0])
    elif check == "compat":
        operands = [operand(g)]
        report, expected = check_compatibility(operands[0]), _reference_compat(operands[0])
    elif check == "mixed":
        f2 = _translation_invariant_op(rng, n, coeff) if kind == "random" else perm
        operands = [f2, operand(g)]
        report, expected = check_mixed_conditions(*operands), _reference_mixed(*operands)
    else:
        alpha, beta = hecke_parameters()
        operands = [operand(cg_op(n, alpha, beta))]
        s = alpha if kind == "solution" else _unit(rng)
        report, expected = check_hecke(operands[0], s), _reference_hecke(operands[0], s)
    # a perturbed solution mostly fails, but need not: a scaled flip with
    # one flip entry changed still solves the YBE at n = 2
    assert all(tensor._translation_invariant(op) for op in operands)
    assert (report.passed, report.witness) == expected
    if kind == "solution":
        assert report.passed


def _lemma_failures():
    # cg2 with the p exponent of one entry at an input with min index 2 changed
    twisted = dict(cg_twisted_op(5).entries)
    key = ((3, 2), (2, 3))
    assert twisted[key] == q * p**-1
    twisted[key] = q * p**-2
    # g with one output index below min(input)
    outside = dict(g_op(4).entries)
    outside[((1, 4), (2, 3))] = 1
    # a diagonal operator that fails the YBE only at (2, 3, 3), an input
    # with min index 2, so the restricted check would miss it; its columns
    # at (2, 3) and (3, 3) have no column below them
    diagonal = {((2, 3), (2, 3)): 1, ((3, 3), (3, 3)): 2}
    return [TensorOp(5, 2, twisted), TensorOp(4, 2, outside), TensorOp(3, 2, diagonal)]


def test_lemma_failures_check_every_input(monkeypatch):
    walks = _watch_inputs(monkeypatch)

    def assert_every_input(report, n, arity=3):
        # every walk reads all inputs in order; a failing check's last walk
        # stops at its witness's input
        full = _all_inputs(n, arity=arity)
        *complete, (reduced, last) = walks
        assert not reduced and all(not r and walk == full for r, walk in complete)
        assert last == (full if report.passed else full[: full.index(report.witness[0]) + 1])
        walks.clear()

    for bad in _lemma_failures():
        assert not tensor._translation_invariant(bad)
        perm = permutation_op(bad.n)
        report = check_ybe(bad)
        assert (report.passed, report.witness) == _reference_ybe(bad)
        assert_every_input(report, bad.n)
        report = check_compatibility(bad)
        assert (report.passed, report.witness) == _reference_compat(bad)
        assert_every_input(report, bad.n)
        report = check_mixed_conditions(perm, bad)
        assert (report.passed, report.witness) == _reference_mixed(perm, bad)
        assert_every_input(report, bad.n)
        report = check_hecke(bad, q)
        assert (report.passed, report.witness) == _reference_hecke(bad, q)
        assert_every_input(report, bad.n, arity=2)
    witness = check_ybe(_lemma_failures()[2]).witness
    assert witness[:2] == ((2, 3, 3), (2, 3, 3))


# ----------------------------------------------------------------------
# the mirror: operators passing the mirror lemma, in words that meet its
# word condition, are checked on one input of each pair t, sigma(t) of
# 3-fold inputs with min index 1


_NONZERO = functools.partial(random_fraction, nonzero=True)


def _reflect(tpl, m):
    """The mirror of tpl in [1, m]: its indices reversed, each i as m + 1 - i."""
    return tuple(m + 1 - i for i in reversed(tpl))


def _sigma(t):
    """The input a 3-fold input with min index 1 is paired with: its mirror
    in [1, max(t)], which has min index 1 too."""
    return _reflect(t, max(t))


def _mirror_symmetric_op(rng, n, coeff):
    """A random operator passing the translation and the mirror lemma: the
    patterns of _translation_invariant_op, each set together with its
    mirror in [1, max(input)], copied to every translate."""
    entries = {}
    for inp in itertools.product(range(1, n + 1), repeat=2):
        if 1 not in inp:
            continue
        m = max(inp)
        for out in itertools.product(range(1, m + 1), repeat=2):
            pair = {(out, inp), (_reflect(out, m), _reflect(inp, m))}
            if (out, inp) == min(pair) and rng.random() < 0.25:
                value = coeff(rng)
                for (o, i), t in itertools.product(pair, range(n - m + 1)):
                    entries[(_shift(o, t), _shift(i, t))] = value
    return TensorOp(n, 2, entries)


def _computed_columns(monkeypatch):
    """The input of every column a sum computes, in order."""
    computed = []
    column = tensor._Sum.column

    def spy(self, t):
        computed.append(t)
        return column(self, t)

    monkeypatch.setattr(tensor._Sum, "column", spy)
    return computed


@pytest.mark.parametrize("n", range(1, 9))
def test_mirror_lemma_holds_for_the_models(n):
    twisted = cg_twisted_op(n)
    operators = [
        permutation_op(n),
        g_op(n),
        cg_op(n, *hecke_parameters()),
        cg_op(n, q + p, q - q**-1),
        twisted,
        twisted.eval_at(Fraction(3, 2), Fraction(5, 7)),
        TensorOp.from_json_obj(twisted.to_json_obj()),
    ]
    assert all(tensor._mirror_lemma(op) for op in operators)


def test_mirror_lemma_fails_off_the_mirror():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        random_invariant = _translation_invariant_op(rng, n, _NONZERO)
        assert tensor._translation_invariant(random_invariant)
        assert not tensor._mirror_lemma(random_invariant)
    # one entry of a mirror pair changed fails it, both changed alike pass
    rng = random.Random(1)
    symmetric = _mirror_symmetric_op(rng, 4, _NONZERO)
    for op in (g_op(4), cg_twisted_op(4), symmetric):
        assert tensor._mirror_lemma(op)
        entries = dict(op.entries)
        for out, inp in entries:
            image = (_reflect(out, 4), _reflect(inp, 4))
            if image != (out, inp):
                one_side = {**entries, (out, inp): entries[(out, inp)] + 1}
                assert not tensor._mirror_lemma(TensorOp(4, 2, one_side))
                both = {**one_side, image: entries.get(image, 0) + 1}
                assert tensor._mirror_lemma(TensorOp(4, 2, both))
    # the word condition: ybe and both cubic sums meet it, a single
    # product, or a commutator of two operators, does not
    perm, g = permutation_op(4), g_op(4)
    for words in (
        verify.EQUATIONS["ybe"][1](g),
        verify.EQUATIONS["cubic(P,X)"][1](perm, g),
        verify.EQUATIONS["cubic(X,P)"][1](g, perm),
        [(1, (g, 12)), (-1, (g, 23))],
    ):
        assert tensor._mirrored([tensor._word(word) for word in words])
    for words in (
        [(1, (g, 12), (g, 23))],
        [(1, (perm, 12), (g, 23)), (-1, (g, 23), (perm, 12))],
        [(1, (g, 12)), (-2, (g, 23))],
    ):
        assert not tensor._mirrored([tensor._word(word) for word in words])


def test_mirrored_checks_compute_one_input_of_each_pair(monkeypatch):
    n = 6
    perm, g, twisted = permutation_op(n), g_op(n), cg_twisted_op(n)
    numeric = twisted.eval_at(Fraction(3, 2), Fraction(5, 7))
    alpha, beta = hecke_parameters()
    rmat = cg_op(n, alpha, beta)
    restricted = _all_inputs(n, reduced=True)
    halves = [t for t in restricted if t <= _sigma(t)]
    assert len(halves) == 48 and len(restricted) == 91
    restricted2 = _all_inputs(n, reduced=True, arity=2)
    computed = _computed_columns(monkeypatch)
    for operands, check, columns in (
        ({"X": twisted}, "ybe", halves),
        ({"X": numeric}, "ybe", halves),
        ({"X": g}, "ybe", halves),
        ({"P": perm, "X": g}, "compat", halves),
        ({"P": perm, "X": g}, "mixed", halves * 2),
        ({"X": rmat, "alpha": alpha}, "hecke", restricted2),
        ({"g": g, "P": perm}, "gp", restricted2 * 3),
        ({"R": rmat, "alpha": alpha, "beta": beta}, "quadratic", restricted2),
    ):
        computed.clear()
        (report,) = verify.run_checks([(check, check)], operands.get)
        assert report.passed and computed == columns, check


def test_mirror_symmetric_operators_match_two_sided_reference():
    # operators passing both lemmas, whose YBE fails, take the mirrored walk;
    # the same patterns unsymmetrised fail the mirror lemma and walk every
    # input with min index 1.  Both give the reference's witness
    mirrored, skipped = [], []
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        symmetric = _mirror_symmetric_op(rng, n, _NONZERO)
        plain = _translation_invariant_op(rng, n, _NONZERO)
        assert all(map(tensor._translation_invariant, (symmetric, plain)))
        assert tensor._mirror_lemma(symmetric)
        for op, seen in ((symmetric, mirrored), (plain, skipped)):
            report = check_ybe(op)
            assert (report.passed, report.witness) == _reference_ybe(op)
            if not report.passed:
                seen.append(report.witness[0])
    assert any(_sigma(t) != t for t in mirrored)
    assert any(_sigma(t) < t for t in skipped)
    # compat and mixed of mirror-symmetric operators too
    rng = random.Random(5)
    f, h = (_mirror_symmetric_op(rng, 3, _NONZERO) for _ in range(2))
    for report, expected in (
        (check_compatibility(h), _reference_compat(h)),
        (check_mixed_conditions(f, h), _reference_mixed(f, h)),
    ):
        assert (report.passed, report.witness) == expected


def test_words_off_the_mirror_compute_every_input(monkeypatch):
    # the commutator a12 b23 - b23 a12 of two mirror-symmetric operators
    # breaks the word condition: swapped it is a23 b12 - b12 a23.  So every
    # input with min index 1 is computed up to the witness, even one whose
    # pair sigma(t) is smaller
    computed = _computed_columns(monkeypatch)
    reflected = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        a, b = (_mirror_symmetric_op(rng, n, _NONZERO) for _ in range(2))
        computed.clear()
        witness = tensor._witness([(1, (a, 12), (b, 23)), (-1, (b, 23), (a, 12))])
        walk = _all_inputs(n, reduced=True)
        assert computed == (walk if witness is None else walk[: walk.index(witness[0]) + 1])
        assert witness == endo_eq(lift12(a) @ lift23(b), lift23(b) @ lift12(a))[1]
        reflected += witness is not None and _sigma(witness[0]) < witness[0]
    assert reflected


# ----------------------------------------------------------------------
# the 3-fold checks' value forms: int-form operators over different
# denominators, whose words carry den_f·den_g², and Laurent operators
# paired with int ones, against the two-sided reference


def _over(rng, op, den):
    """op scaled by ±k/den, with one zero entry set to ±1/den half the time."""
    entries = {
        key: coeff * Fraction(rng.choice([1, 2, -1]), den) for key, coeff in op.entries.items()
    }
    basis = op.basis_tuples()
    zeros = [(out, inp) for out in basis for inp in basis if (out, inp) not in entries]
    if zeros and rng.random() < 0.5:
        entries[rng.choice(zeros)] = Fraction(rng.choice([1, -1]), den)
    return TensorOp(op.n, 2, entries)


def _assert_cubic_checks_match_reference(f, g):
    for report, expected in (
        (check_ybe(f), _reference_ybe(f)),
        (check_compatibility(f), _reference_compat(f)),
        (check_mixed_conditions(f, g), _reference_mixed(f, g)),
        (check_mixed_conditions(g, f), _reference_mixed(g, f)),
    ):
        assert (report.passed, report.witness) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 3),
    st.sampled_from(["perm", "g", "identity", "cg2"]),
    st.sampled_from(["perm", "g", "cg2"]),
)
def test_cubic_checks_over_two_denominators_match_reference(seed, n, f_kind, g_kind):
    rng = random.Random(seed)
    solutions = {
        "perm": permutation_op(n),
        "g": g_op(n),
        "identity": TensorOp.identity(n),
        "cg2": cg_twisted_op(n),
    }
    f, g = _over(rng, solutions[f_kind], 3), _over(rng, solutions[g_kind], 5)
    # g is zero at n = 1
    for op, kind, den in ((f, f_kind, 3), (g, g_kind, 5)):
        if kind != "cg2" and not op.is_zero():
            assert holds_int_columns(op) and op._den == den
    _assert_cubic_checks_match_reference(f, g)


def test_witness_coefficient_over_two_denominators():
    # mixed of (I/3, 2g/5): each word of the first condition is over
    # 3·5² = 75, and the witness coefficient is a proper fraction
    n = 3
    third = compose_sum([(Fraction(1, 3), TensorOp.identity(n))])
    two_fifths = compose_sum([(Fraction(2, 5), g_op(n))])
    assert (third._den, two_fifths._den) == (3, 5)
    report = check_mixed_conditions(third, two_fifths)
    assert (report.passed, report.witness) == _reference_mixed(third, two_fifths)
    assert report.witness == ((1, 1, 2), (1, 1, 2), LaurentQP.const(Fraction(-4, 75)))
    report = check_mixed_conditions(two_fifths, third)
    assert report.witness == ((1, 1, 2), (1, 1, 2), LaurentQP.const(Fraction(-2, 45)))
    assert report.to_json_obj()["witness"]["diff"] == [{"q": 0, "p": 0, "coeff": "-2/45"}]


def test_laurent_operators_paired_with_int_ones_match_reference():
    for n in (2, 3, 4):
        twisted, g = cg_twisted_op(n), g_op(n)
        third = compose_sum([(Fraction(1, 3), permutation_op(n))])
        _assert_cubic_checks_match_reference(twisted, g)
        _assert_cubic_checks_match_reference(third, twisted)


def test_lemma_failures_over_two_denominators_match_reference():
    rng = random.Random(1618)
    for bad in _lemma_failures():
        n = bad.n
        for f, g in (
            (_over(rng, bad, 3), _over(rng, g_op(n), 5)),
            (_over(rng, permutation_op(n), 3), bad),
            (bad, cg_twisted_op(n)),
        ):
            _assert_cubic_checks_match_reference(f, g)


def test_invariant_operators_take_the_restricted_path(monkeypatch):
    n = 6
    perm, g, twisted = permutation_op(n), g_op(n), cg_twisted_op(n)
    numeric = twisted.eval_at(Fraction(3, 2), Fraction(5, 7))
    alpha, beta = hecke_parameters()
    rmat = cg_op(n, alpha, beta)
    walks = _watch_inputs(monkeypatch)
    checks = [
        (lambda: check_ybe(twisted), 1, 3),
        (lambda: check_ybe(numeric), 1, 3),
        (lambda: check_ybe(perm), 1, 3),
        (lambda: check_ybe(g), 1, 3),
        (lambda: check_compatibility(g), 1, 3),
        (lambda: check_mixed_conditions(perm, g), 2, 3),
        (lambda: check_hecke(rmat, alpha), 1, 2),
        (lambda: check_gp_relations(n), 3, 2),
        (lambda: check_quadratic(n, alpha, beta), 1, 2),
    ]
    restricted = _all_inputs(n, reduced=True)
    assert len(restricted) == n**3 - (n - 1) ** 3
    restricted2 = _all_inputs(n, reduced=True, arity=2)
    assert len(restricted2) == 2 * n - 1
    for check, count, arity in checks:
        walks.clear()
        assert check().passed
        assert walks == [(True, restricted if arity == 3 else restricted2)] * count
    # a failing check on the restricted path stops at its witness's input
    walks.clear()
    report = check_compatibility(twisted)
    assert not report.passed
    (reduced, walk), = walks
    assert reduced and walk[-1] == report.witness[0] == (1, 1, 2)
    assert walk == restricted[: len(walk)]
    # so does a failing 2-fold check: alpha = q, beta = 1 is not Hecke
    walks.clear()
    report = check_hecke(cg_op(n, q, 1), q)
    assert not report.passed
    (reduced, walk), = walks
    assert reduced and walk == [(1, 1), (1, 2)] and report.witness[:2] == ((1, 2), (1, 2))
    # a constant operator holds int columns, and neither the lemma nor a
    # passing check turns a stored value into a LaurentQP
    combo = cg_op(n, 2, 1)
    assert holds_int_columns(combo)
    coeff = tensor._coeff
    reads = []
    monkeypatch.setattr(tensor, "_coeff", lambda *args: reads.append(args) or coeff(*args))
    assert tensor._translation_invariant(combo)
    assert check_ybe(combo).passed
    assert reads == []
    combo.first_entry()
    assert len(reads) == 1


# ----------------------------------------------------------------------
# flat signed words: the witness of any sum of words (scalar, *factors)
# is that of the same sum built two-sided from lifts, products and the
# identity


def _flat_word_operand(rng, n):
    """A 2-fold operator with int, rational or Laurent coefficients: random,
    which fails the translation lemma, or passing it."""
    coeff = rng.choice([random_int, random_fraction, lambda r: random_laurent(r, max_terms=2)])
    if rng.random() < 0.7:
        return _translation_invariant_op(rng, n, coeff)
    basis = list(itertools.product(range(1, n + 1), repeat=2))
    pairs = [(out, inp) for out in basis for inp in basis if rng.random() < 0.3]
    return TensorOp(n, 2, {pair: coeff(rng) for pair in pairs})


def _perturbed(rng, op):
    """op with the entry at one output of an input with min index >= 2
    changed, so that it fails the translation lemma (op itself at n = 1)."""
    inputs = [inp for inp in op.basis_tuples() if min(inp) >= 2]
    if not inputs:
        return op
    inp = rng.choice(inputs)
    entries = dict(op.entries)
    key = ((rng.randint(1, op.n), rng.randint(1, op.n)), inp)
    entries[key] = entries.get(key, LaurentQP.zero()) + random_fraction(rng, nonzero=True)
    return TensorOp(op.n, 2, entries)


def _word_scalar(rng):
    kind = rng.choice(["int", "fraction", "laurent"])
    if kind == "int":
        return random_int(rng)
    return random_fraction(rng) if kind == "fraction" else random_laurent(rng, max_terms=2)


def _two_sided_word(word, n, arity):
    """scalar·(the product of the factors, lifted to their places), or
    scalar·I for a word with no factor."""
    scalar, *factors = word
    lifts = {12: lift12, 23: lift23}
    lifted = [f if arity == 2 else lifts[f[1]](f[0]) for f in factors]
    if not lifted:
        return compose_sum([(scalar, TensorOp.identity(n, arity))])
    return compose_sum([(scalar, functools.reduce(operator.matmul, lifted))])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 4),
    st.sampled_from([2, 3]),
    st.sampled_from(["plain", "cancelled", "perturbed"]),
)
def test_flat_words_match_two_sided_reference(seed, n, arity, kind):
    rng = random.Random(seed)
    operands = [_flat_word_operand(rng, n) for _ in range(rng.randint(1, 3))]

    def factor():
        op = rng.choice(operands)
        return op if arity == 2 else (op, rng.choice([12, 23]))

    def word(least):
        count = rng.choice([c for c in (0, 1, 2, 3, 3, 3) if c >= least])
        return (_word_scalar(rng), *(factor() for _ in range(count)))

    words = [word(0) for _ in range(rng.randint(0, 4))] + [word(1)]
    if kind != "plain":
        # each word less its copy; when perturbed, a copy whose right factor
        # reads one chosen operand reads it changed at an input with min
        # index >= 2, so the sum vanishes but for the columns that change
        # reaches, and at arity 2 its witness often has min index >= 2
        old = rng.choice(operands)
        new = _perturbed(rng, old) if kind == "perturbed" else old

        def copy(scalar, *factors):
            if factors and (factors[-1] if arity == 2 else factors[-1][0]) is old:
                factors = (*factors[:-1], new if arity == 2 else (new, factors[-1][1]))
            return (-scalar, *factors)

        words += [copy(*w) for w in words]
        rng.shuffle(words)
    cut = rng.randint(0, len(words))
    zero = TensorOp.zero(n, arity)
    lhs = sum((_two_sided_word(w, n, arity) for w in words[:cut]), zero)
    rhs = sum((_two_sided_word((-s, *f), n, arity) for s, *f in words[cut:]), zero)
    equal, expected = endo_eq(lhs, rhs)
    assert tensor._witness(words) == expected
    assert equal == (expected is None)
    # compose_sum takes the same words, and its sum is the difference
    total = compose_sum(words)
    assert total == lhs - rhs
    assert total.first_entry() == tensor._witness(words)
    if kind == "cancelled":
        assert equal


def test_words_fix_the_rank_and_arity():
    # a placed factor makes the sum 3-fold, where a bare factor must be a
    # 3-fold operator; a sum of scalar words alone has no rank
    perm, g = permutation_op(2), g_op(2)
    assert tensor._witness([(1, (perm, 12)), (-1, lift12(perm))]) is None
    assert tensor._witness([(1, (g, 23), (perm, 12)), (-1, lift23(g) @ lift12(perm))]) is None
    for words in (
        [(1,), (-1,)],
        [(1, perm), (1, (g, 12))],
        [(1, perm), (1, g_op(3))],
        [(1, (TensorOp.identity(2, 3), 23))],
        [(1, (perm, 13))],
        [(1, perm, perm, perm, perm)],
    ):
        with pytest.raises(ValueError):
            tensor._witness(words)


def test_each_check_runs_the_lemma_once_per_operator(monkeypatch):
    # mixed and gp walk two or three sums over the same two operators
    n = 4
    perm, g = permutation_op(n), g_op(n)
    lemma = tensor._translation_invariant
    seen = []
    monkeypatch.setattr(tensor, "_translation_invariant", lambda op: seen.append(op) or lemma(op))
    assert check_mixed_conditions(perm, g).passed
    assert [id(op) for op in seen] == [id(perm), id(g)]
    seen.clear()
    assert check_gp_relations(n).passed
    assert len(seen) == len({id(op) for op in seen}) == 2
    seen.clear()
    twisted = cg_twisted_op(n)
    assert check_ybe(twisted).passed
    assert [id(op) for op in seen] == [id(twisted)]
    # a second check over the same operators runs no lemma and packs nothing
    seen.clear()
    factor = tensor._factor
    packed = []
    monkeypatch.setattr(tensor, "_factor", lambda *args: packed.append(args) or factor(*args))
    assert check_ybe(twisted).passed
    assert check_mixed_conditions(perm, g).passed
    assert check_ybe(g).passed
    assert seen == [] and packed == []


def test_the_mirror_lemma_runs_once_per_operator_and_never_at_two_folds(monkeypatch):
    n = 5
    perm, g, twisted = (fresh(op) for op in (permutation_op(n), g_op(n), cg_twisted_op(n)))
    alpha, beta = hecke_parameters()
    rmat = cg_op(n, alpha, beta)
    lemma = tensor._mirror_lemma
    seen = []
    monkeypatch.setattr(tensor, "_mirror_lemma", lambda op: seen.append(op) or lemma(op))
    two_fold = {"X": rmat, "R": rmat, "alpha": alpha, "beta": beta, "g": g, "P": perm}
    checks = [(check, check) for check in ("hecke", "gp", "quadratic")]
    assert all(report.passed for report in verify.run_checks(checks, two_fold.get))
    # nor on words that break the word condition
    assert tensor._witness([(1, (g, 12), (g, 23))]) is not None
    assert seen == []
    for _ in range(2):
        checks = [(check, check) for check in ("ybe", "compat", "mixed")]
        assert all(report.passed for report in verify.run_checks(checks, {"X": g, "P": perm}.get))
        assert check_ybe(twisted).passed
    assert sorted(map(id, seen)) == sorted(map(id, (perm, g, twisted)))


def test_checks_build_no_identity_operator(monkeypatch):
    # every -I or +I of a 2-fold check is a word with no factor, passing or
    # failing
    n = 4
    alpha, beta = hecke_parameters()
    rmat, not_hecke = cg_op(n, alpha, beta), cg_op(n, q, 1)
    expected = {
        "hecke": _reference_hecke(not_hecke, q),
        "gp": _reference_gp(not_hecke, permutation_op(n)),
        "quadratic": _reference_quadratic(not_hecke, alpha, beta),
    }
    assert not any(passed for passed, _ in expected.values())

    def refuse(cls, *args):
        raise AssertionError("a check built an identity operator")

    inverse = rmat - beta * TensorOp.identity(n)
    monkeypatch.setattr(TensorOp, "identity", classmethod(refuse))
    # nor does the closed-form inverse: -beta*I is a word with no factor
    assert cg_inverse(rmat, alpha, beta) == inverse
    assert check_hecke(rmat, alpha).passed
    assert check_gp_relations(n).passed
    assert check_quadratic(n, alpha, beta).passed
    failing = {"hecke": check_hecke(not_hecke, q)}
    monkeypatch.setattr(verify, "g_op", lambda n: not_hecke)
    failing["gp"] = check_gp_relations(n)
    monkeypatch.setattr(verify, "cg_op", lambda n, a, b: not_hecke)
    failing["quadratic"] = check_quadratic(n, alpha, beta)
    assert {name: (r.passed, r.witness) for name, r in failing.items()} == expected


def _weight_mutants(n: int):
    """Every change of one weight-preserving entry (a, b) <- (i, j) of g,
    a + b = i + j, by +1 or -1: an entry of g that becomes zero is dropped,
    and a zero entry of g becomes ±1."""
    entries = g_op(n).entries
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    for inp in pairs:
        for out in pairs:
            if sum(out) != sum(inp):
                continue
            for step in (1, -1):
                changed = dict(entries)
                changed[out, inp] = changed.get((out, inp), LaurentQP.zero()) + step
                yield (out, inp, step), TensorOp(n, 2, changed)


@pytest.mark.parametrize("n, count", [(3, 38), (4, 88), (5, 170)])
def test_integer_rows_decide_ybe_and_hecke_on_every_mutant_of_g(n, count):
    # For R' = qP + (q - q^-1)g' and any integer operator g', YBE of R' is
    # q^3 Y(P) + (q^3 - q) cubic(P,g') + (q^3 - 2q + q^-1) cubic(g',P)
    # + (q^3 - 3q + 3q^-1 - q^-3) Y(g'), a triangle in (q^3, q, q^-1, q^-3),
    # and its Hecke sum at s = q is q^2 (P^2 - I) + (q^2 - 1)(Pg' + g'P - P + I)
    # + (q - q^-1)^2 (g'^2 - g').  Y(P) and P^2 - I vanish, so the direct
    # check fails exactly when one of the other integer rows is nonzero.
    alpha, beta = hecke_parameters()
    perm = permutation_op(n)
    ybe_rows = {
        "Y(g')": verify.EQUATIONS["ybe"][1],
        "cubic(P,g')": lambda x: verify._cubic_words(perm, x),
        "cubic(g',P)": lambda x: verify._cubic_words(x, perm),
    }
    hecke_rows = {
        "Pg'+g'P-P+I": lambda x: [(1, perm, x), (1, x, perm), (-1, perm), (1,)],
        "g'^2-g'": verify.EQUATIONS["g^2=g"][1],
    }
    assert tensor._witness(verify.EQUATIONS["ybe"][1](perm)) is None
    assert tensor._witness([(1, perm, perm), (-1,)]) is None
    first_rows = Counter()
    mutants = list(_weight_mutants(n))
    assert len(mutants) == count
    for change, mutant in mutants:
        rmat = compose_sum([(alpha, perm), (beta, mutant)])
        ybe = [name for name, words in ybe_rows.items() if tensor._witness(words(mutant))]
        hecke = [name for name, words in hecke_rows.items() if tensor._witness(words(mutant))]
        assert check_ybe(rmat).passed == (not ybe), change
        assert check_hecke(rmat, alpha).passed == (not hecke), change
        assert ybe or hecke, f"{change} passes every row"
        first_rows[(ybe + hecke)[0]] += 1
    # every mutant breaks the Yang-Baxter equation of g' itself
    assert first_rows == {"Y(g')": count}
