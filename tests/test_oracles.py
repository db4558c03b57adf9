"""Scalar identity oracles: spot values, window sweeps, truncation soundness."""

import itertools
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cgybe import TensorOp, compose_sum, g_op, lift12, lift23, oracles, permutation_op
from cgybe.oracles import (
    IntWindow,
    OracleReport,
    _scan,
    eta_convolution,
    eta_interval_sum,
    g_idem_sum,
    run_oracles,
    ybe_coeff_rhs,
    zeta,
)

from helpers import naive_eta

WIDE = range(-20, 21)  # safely covers every eta support in these tests


def naive_zeta(i, j, k, c, h):
    return sum(
        naive_eta(j, k, a) * naive_eta(i, a, c) * naive_eta(i + a - c, j + k - a, h)
        for a in WIDE
    )


def naive_ybe_rhs(i, j, k, c, h):
    return sum(
        naive_eta(i, j, s)
        * naive_eta(i + j - s, k, h + c - s)
        * naive_eta(s, h + c - s, c)
        for s in WIDE
    )


def test_zeta_trivial_cases():
    assert zeta(1, 1, 1, 1, 1) == 0
    for j in range(-2, 3):
        for c in range(-2, 3):
            assert zeta(0, j, j, c, 1) == 0  # empty eta support when j = k


# Frozen by an independent padded triple-loop: for (i,j,k) = (1,2,3) the
# only nonzero value on (c,h) in [0,4]^2 is zeta(1,2,3,1,2) = 1.
ZETA_123_TABLE = {(c, h): (1 if (c, h) == (1, 2) else 0) for c in range(5) for h in range(5)}


def test_zeta_frozen_fixture_table():
    for (c, h), expected in ZETA_123_TABLE.items():
        assert zeta(1, 2, 3, c, h) == expected, (c, h)
        assert naive_zeta(1, 2, 3, c, h) == expected, (c, h)


ETA_IDENTITIES = [
    "eta_translation",
    "eta_antisymmetry",
    "eta_reflection",
    "eta_delta_adjacent",
    "eta_interval_sum",
    "eta_cocycle",
    "eta_annihilation",
    "eta_exchange",
    "eta_splitting",
]

# (identity, lo, hi): every window each identity is swept on
ORACLE_WINDOWS = [
    ("compat_coeffs", 1, 4),
    ("compat_coeffs", -2, 3),
    ("step_identity", -3, 3),
    ("step_identity", 5, 9),  # depends only on differences
    *((name, lo, hi) for lo, hi in ((-3, 4), (1, 6)) for name in ETA_IDENTITIES),
    ("eta_convolution", -2, 3),
    ("eta_convolution", -3, 4),
    ("zeta_closed_form", -1, 3),
    ("zeta_closed_form", -3, 4),
    ("ybe_coeffs", 1, 5),
    ("ybe_coeffs", -2, 3),
    ("zeta_symmetry", -1, 3),
    ("zeta_symmetry", -3, 4),
    ("g_idempotent", -2, 4),
    ("g_idempotent", -3, 4),
]


@pytest.mark.parametrize("name, lo, hi", ORACLE_WINDOWS)
def test_oracle_windows(name, lo, hi):
    [report] = run_oracles(lo, hi, only=[name])
    assert report.name == name
    assert report.passed, report.counterexample


def test_compat_coeffs_all_equal_tuple():
    [report] = run_oracles(2, 2, only=["compat_coeffs"])
    assert report.passed  # the all-equal tuple gives 0 = 0


def test_step_identity_origin_value():
    # At (a,b,i,j,k) = 0 both sides evaluate to 1.
    u = lambda x: 1 if x >= 0 else 0
    lhs = u(0) * (u(0) + u(0) - u(0) - u(0)) + u(0) * u(0)
    rhs = u(0) * (u(0) - u(0) - u(0) + u(0)) + u(0) * u(0)
    assert lhs == rhs == 1


def test_eta_identity_examples():
    assert naive_eta(2, 3, 2) == 1  # adjacent delta: eta(a, a+1, c) at a = c = 2
    assert eta_interval_sum(1, 4) == 3
    assert naive_eta(1, 3, 2) == 1 == -naive_eta(3, 1, 2)


def test_convolution_empty_sum_case():
    # t = s: the sum is empty and each closed-form term carries a zero factor.
    for t in range(-2, 3):
        for b in range(-2, 3):
            for d in range(-2, 3):
                for h in range(-2, 3):
                    assert eta_convolution(t, t, b, d, h) == 0
                    assert (t - t) == 0
                    assert naive_eta(d - t, d - t, h) == 0
                    assert naive_eta(b + t, b + t, h) == 0


def test_convolution_spot_value():
    t, s, b, d, h = 1, 3, 0, 4, 2
    lhs = sum(naive_eta(t, s, a) * naive_eta(b + a, d - a, h) for a in WIDE)
    rhs = (
        (s - t) * naive_eta(b + t, d - t, h)
        + (d - h - s) * naive_eta(d - s, d - t, h)
        + (h - b - s + 1) * naive_eta(b + t, b + s, h)
    )
    assert lhs == rhs == 1
    assert eta_convolution(t, s, b, d, h) == 1


def test_zeta_closed_form_trivial_diagonal():
    for t in range(-2, 3):
        assert zeta(t, t, t, 1, 0) == 0


def test_zeta_closed_form_spot_value():
    assert zeta(1, 2, 3, 2, 2) == naive_zeta(1, 2, 3, 2, 2) == 0


def test_ybe_coeffs_spot_against_naive():
    for tpl in itertools.product(range(-1, 3), repeat=5):
        assert zeta(*tpl) == naive_zeta(*tpl), tpl
        assert ybe_coeff_rhs(*tpl) == naive_ybe_rhs(*tpl), tpl


def test_zeta_symmetry_spot_value():
    i, j, k, c, h = 2, 3, 1, 2, 3
    lhs = naive_ybe_rhs(i, j, k, c, h)
    rhs = naive_zeta(i + j - k, i, j, h + c - k, i + j - h)
    assert lhs == rhs == 0


def test_g_idempotent_spot_value():
    total = sum(naive_eta(1, 4, k) * naive_eta(k, 5 - k, 2) for k in WIDE)
    assert total == naive_eta(1, 4, 2) == 1
    assert g_idem_sum(1, 4, 2) == 1


def test_g_idempotent_diagonal():
    for i in range(-2, 3):
        for l in range(-2, 3):
            assert g_idem_sum(i, i, l) == 0 == naive_eta(i, i, l)


def test_padding_never_changes_sums():
    for tpl in itertools.product(range(-2, 3), repeat=5):
        assert zeta(*tpl) == zeta(*tpl, pad=3)
        assert ybe_coeff_rhs(*tpl) == ybe_coeff_rhs(*tpl, pad=3)
        assert eta_convolution(*tpl) == eta_convolution(*tpl, pad=3)
    for pair in itertools.product(range(-4, 5), repeat=2):
        assert eta_interval_sum(*pair) == eta_interval_sum(*pair, pad=3)
    for triple in itertools.product(range(-3, 4), repeat=3):
        assert g_idem_sum(*triple) == g_idem_sum(*triple, pad=3)


def bridge_mismatches(word, oracle):
    """Entries of a 3-fold word, or sum of words, that differ from the oracle sum.

    The coefficient of e_c⊗e_h⊗e_m on e_i⊗e_j⊗e_k, m = i+j+k-c-h, must be
    oracle(i, j, k, c, h); a missing entry counts as 0, and an entry at an
    output that does not conserve i+j+k must be 0.
    """
    n = word.n
    expected = {}
    for i, j, k, c, h in itertools.product(range(1, n + 1), repeat=5):
        m = i + j + k - c - h
        if 1 <= m <= n and (value := oracle(i, j, k, c, h)):
            expected[((c, h, m), (i, j, k))] = value
    actual = {key: coeff.constant_value() for key, coeff in word.entries.items()}
    return sorted(
        key for key in expected.keys() | actual.keys() if expected.get(key, 0) != actual.get(key, 0)
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_g_words_are_the_ybe_oracle_sums(n):
    # the two sides of YBE(g), entry by entry, are the two sides of ybe_coeffs
    g12, g23 = lift12(g_op(n)), lift23(g_op(n))
    assert bridge_mismatches(g12 @ g23 @ g12, ybe_coeff_rhs) == []
    assert bridge_mismatches(g23 @ g12 @ g23, zeta) == []


def compat_lhs(i, j, k, a, b):
    """The left side of the ``_compat_coeffs`` docstring, with helpers' eta."""
    return (
        naive_eta(i, k, a + b - j) * naive_eta(j, a + b - j, a)
        + naive_eta(i, j, b + a - k) * naive_eta(b + a - k, k, a)
        + naive_eta(i, j, b) * naive_eta(i + j - b, k, a)
    )


def compat_rhs(i, j, k, a, b):
    """The right side of the ``_compat_coeffs`` docstring, with helpers' eta."""
    return (
        naive_eta(i, k, a) * naive_eta(i + k - a, j, b)
        + naive_eta(j, k, a) * naive_eta(i, j + k - a, b)
        + naive_eta(j, k, j + k - b) * naive_eta(i, j + k - b, a)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_compat_words_are_the_compat_oracle_sums(n):
    # the two sides of the first mixed condition of (P, g), which is the
    # compatibility check, are the two sides of compat_coeffs
    g12, g23 = lift12(g_op(n)), lift23(g_op(n))
    p12, p23 = lift12(permutation_op(n)), lift23(permutation_op(n))
    lhs = compose_sum([(1, g12, g23, p12), (1, g12, p23, g12), (1, p12, g23, g12)])
    rhs = compose_sum([(1, g23, g12, p23), (1, g23, p12, g23), (1, p23, g12, g23)])
    assert bridge_mismatches(lhs, compat_lhs) == []
    assert bridge_mismatches(rhs, compat_rhs) == []


def test_bridge_reports_a_changed_entry():
    g12, g23 = lift12(g_op(4)), lift23(g_op(4))
    word = g12 @ g23 @ g12
    key, coeff = word.sorted_entries()[0]
    changed = TensorOp(4, 3, {**word.entries, key: coeff + 1})
    assert bridge_mismatches(changed, ybe_coeff_rhs) == [key]


def closed_interval_eta(i, j, k):
    """A wrong eta: +1 on the closed interval i <= k <= j when i < j."""
    if i < j and i <= k <= j:
        return 1
    return naive_eta(i, j, k)


# With the wrong eta, only these identities still hold on [-2, 3]: the
# interval sum never reaches k = j, translation and the step identity do not
# see the change, and zeta_symmetry has the same wrong eta on both sides.
MUTANT_STILL_HOLDS = {"eta_interval_sum", "eta_translation", "step_identity", "zeta_symmetry"}
MUTANT_COUNTEREXAMPLES = {
    "compat_coeffs": (-2, -2, -1, -2, -2),
    "g_idempotent": (-2, -1, -2),
    "eta_delta_adjacent": (-2, -1),
}


def test_wrong_eta_fails_through_the_registry(monkeypatch):
    monkeypatch.setattr(oracles, "eta", closed_interval_eta)
    reports = {report.name: report for report in run_oracles(-2, 3)}
    failing = {name for name, report in reports.items() if not report.passed}
    assert set(reports) - failing == MUTANT_STILL_HOLDS
    assert len(failing) == 12
    for name, counterexample in MUTANT_COUNTEREXAMPLES.items():
        assert reports[name].counterexample == counterexample
    # pad reaches the stage: the padded interval sum counts k = j too
    [padded] = run_oracles(-2, 3, only=["eta_interval_sum"], pad=1)
    assert padded.counterexample == (-2, -1)


def test_run_oracles_selection_and_aliases():
    reports = run_oracles(0, 3, only=["ids5"])
    assert [r.name for r in reports] == ["eta_interval_sum"]
    reports = run_oracles(0, 3, only=["uid", "cond1"])
    assert [r.name for r in reports] == ["compat_coeffs", "step_identity"]
    with pytest.raises(ValueError):
        run_oracles(0, 3, only=["no_such_check"])
    # a bare str is not a list of names: it would be read one character
    # at a time
    with pytest.raises(TypeError, match="str"):
        run_oracles(0, 3, only="uid")


def test_run_oracles_rejects_empty_selection():
    with pytest.raises(ValueError, match="empty"):
        run_oracles(0, 3, only=[])


def test_negative_pad_rejected():
    # a negative pad truncates the support, so true identities would fail
    with pytest.raises(ValueError, match="pad"):
        run_oracles(-3, 4, pad=-1)
    for helper, args in (
        (zeta, (1, 2, 3, 0, 0)),
        (ybe_coeff_rhs, (1, 2, 3, 0, 0)),
        (eta_convolution, (1, 3, 0, 0, 0)),
        (g_idem_sum, (1, 3, 2)),
        (eta_interval_sum, (1, 3)),
    ):
        with pytest.raises(ValueError, match="pad"):
            helper(*args, pad=-1)


HELPER_ARGS = [
    (zeta, (1, 2, 3, 0, 1)),
    (ybe_coeff_rhs, (1, 2, 3, 0, 1)),
    (eta_convolution, (1, 3, 0, 0, 1)),
    (g_idem_sum, (1, 3, 2)),
    (eta_interval_sum, (1, 3)),
]


@pytest.mark.parametrize("bad", [True, 1.5, Fraction(1)])
@pytest.mark.parametrize("helper, args", HELPER_ARGS)
def test_helpers_reject_non_int_arguments(helper, args, bad):
    # zeta(True, 0, 1, 0, 1) read True as 1, and a float coordinate failed
    # deep in the packing with AttributeError
    for at in range(len(args)):
        with pytest.raises(TypeError):
            helper(*args[:at], bad, *args[at + 1 :])
    with pytest.raises(TypeError):
        helper(*args, pad=bad)


def test_run_oracles_rejects_oversized_window_before_scanning():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        run_oracles(-50, 50)
    # each arity-5 scan alone would fit (25^5 < 1e7); the cap is on the total
    with pytest.raises(ValueError, match="cap"):
        run_oracles(0, 24, only=["uid", "cond1"])
    # 1.6e5 tuples, but about 2.1e7 eta calls
    with pytest.raises(ValueError, match="cap"):
        run_oracles(0, 399, only=["ids5"])
    assert time.perf_counter() - started < 1.0


def test_interval_sum_is_charged_its_eta_calls(monkeypatch):
    # each tuple (b, c) of ids5 sums eta over its own padded support, so a
    # scan makes (side^3 - side)/3 + 2*pad*side^2 eta calls, which the cap
    # counts
    calls = []
    counted = oracles.eta
    monkeypatch.setattr(oracles, "eta", lambda *args: calls.append(args) or counted(*args))
    for lo, hi, pad in ((0, 9, 0), (-3, 4, 2)):
        calls.clear()
        (report,) = run_oracles(lo, hi, only=["ids5"], pad=pad)
        side = hi - lo + 1
        assert report.passed
        assert len(calls) == (side**3 - side) // 3 + 2 * pad * side**2
        assert len(calls) == oracles._cost("eta_interval_sum", side, pad)
    # the windows of the benchmark and of the acceptance tests still fit
    monkeypatch.setattr(oracles, "_scan", lambda *args: None)
    for lo, hi, pad in ((-4, 5, 0), (-3, 4, 2), (-4, 5, 2)):
        assert len(run_oracles(lo, hi, pad=pad)) == len(oracles.oracle_names())


def test_run_oracles_sorted_and_passing():
    reports = run_oracles(-2, 2)
    names = [r.name for r in reports]
    assert names == sorted(names)
    assert all(r.passed for r in reports)


def test_window_validation():
    with pytest.raises(ValueError):
        IntWindow(3, 1, 2)
    with pytest.raises(ValueError):
        IntWindow(0, 1, 0)


def test_window_bounds_must_be_ints(monkeypatch):
    # a bool or a float bound, pad or arity is refused before the cost
    # check and before any scan starts
    monkeypatch.setattr(oracles, "_cost", lambda *args: pytest.fail("cost check reached"))
    monkeypatch.setattr(oracles, "_scan", lambda *args: pytest.fail("scan started"))
    for kwargs in (
        {"lo": True, "hi": 2},
        {"lo": 0, "hi": True},
        {"lo": 0.0, "hi": 2},
        {"lo": 0, "hi": 2.0},
        {"lo": 0, "hi": 2, "pad": True},
        {"lo": 0, "hi": 2, "pad": 1.0},
        {"lo": Fraction(0), "hi": 2},
    ):
        with pytest.raises(TypeError):
            run_oracles(only=["ids2"], **kwargs)
    for args in ((True, 2, 2), (0, False, 2), (0, 1, True), (0.0, 1, 2), (0, 1, 2.0)):
        with pytest.raises(TypeError):
            IntWindow(*args)
    monkeypatch.undo()
    [report] = run_oracles(0, 2, only=["ids2"])
    assert report.passed and report.to_json_obj()["window"] == {"lo": 0, "hi": 2, "arity": 3}


def test_scan_reports_first_counterexample_lexicographically():
    # the residual row is nonzero where the demo identity a + b < 4 fails
    report = _scan("demo", IntWindow(0, 3, 2), lambda rows, a: rows.pack(lambda b: a + b >= 4))
    assert not report.passed
    assert report.counterexample == (1, 3)
    obj = report.to_json_obj()
    assert set(obj) == {"name", "window", "passed", "counterexample"}
    assert obj["counterexample"] == [1, 3]


@pytest.mark.parametrize("lo", [0, 10**12])
def test_two_packed_coordinates_report_first_counterexample_lexicographically(lo):
    # field k = (g - lo)*side + (h - lo): a failure at (g, h) = (0, 3) comes
    # before one at (1, 0), whatever their signs and sizes
    window = IntWindow(lo, lo + 3, 3)
    bound = 16 * (lo + 3 + 1)  # the field bound documented in _Rows
    bad = {(lo + 1, lo, lo + 3): -bound, (lo + 1, lo + 1, lo): bound, (lo + 2, lo, lo): 1}
    prefixes = []

    def stage(rows, a):
        prefixes.append(a)
        return rows.pack(lambda g, h: bad.get((a, g, h), 0))

    report = _scan("demo", window, stage, 0, 2)
    assert report.counterexample == (lo + 1, lo, lo + 3)
    assert prefixes == [lo, lo + 1]
    # a failure only at the last field, (hi, hi), is found
    hi = lo + 3
    last = _scan("demo", window, lambda rows, a: rows.pack(lambda g, h: a == g == h == hi), 0, 2)
    assert last.counterexample == (hi, hi, hi)
    # with no prefix at all, the one stage call packs the whole window
    pair = _scan("demo", IntWindow(lo, hi, 2), lambda rows: rows.pack(lambda g, h: g > h), 0, 2)
    assert pair.counterexample == (lo + 1, lo)


def test_report_invariant():
    [passing] = run_oracles(0, 2, only=["g_idempotent"])
    assert passing.passed and passing.counterexample is None
    failing = _scan("demo", IntWindow(0, 1, 1), lambda rows: rows.ones)
    assert not failing.passed and failing.counterexample == (0,)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_staged_scan_matches_brute_force(data):
    arity = data.draw(st.integers(1, 4), label="arity")
    lo = data.draw(st.integers(-3, 3), label="lo")
    hi = data.draw(st.integers(lo, lo + 4), label="hi")
    pad = data.draw(st.integers(0, 3), label="pad")
    every = list(itertools.product(range(lo, hi + 1), repeat=arity))
    # residuals up to the field bound documented in _Rows, in two rows that
    # the stage ORs together
    bound = 16 * (max(abs(lo), abs(hi)) + pad + 1)
    residual = st.tuples(st.integers(-bound, bound).filter(bool), st.booleans())
    bad = data.draw(st.dictionaries(st.sampled_from(every), residual, max_size=6), label="bad")
    prefixes = []

    def stage(rows, *prefix):
        prefixes.append(prefix)

        def field(last, second):
            value, in_second = bad.get((*prefix, last), (0, second))
            return value if in_second == second else 0

        first = rows.pack(lambda last: field(last, False))
        return first | rows.pack(lambda last: field(last, True))

    report = _scan("diff", IntWindow(lo, hi, arity), stage, pad)
    first_bad = min(bad) if bad else None
    assert report.counterexample == first_bad
    assert report.passed == (first_bad is None)
    # one stage call per prefix, in lexicographic order, up to the failure
    expected = sorted({tpl[:-1] for tpl in every})
    if first_bad is not None:
        expected = expected[: expected.index(first_bad[:-1]) + 1]
    assert prefixes == expected


def reference_checks(eta, pad):
    """Per-tuple predicates of all sixteen identities, written from the stage
    docstrings: each sum runs over its own tuple's padded support."""
    u, delta = (lambda x: 1 if x >= 0 else 0), (lambda x: 1 if x == 0 else 0)

    def support(x, y):
        return range(min(x, y) - pad, max(x, y) + pad)

    def zeta(i, j, k, c, h):
        return sum(
            eta(j, k, a) * eta(i, a, c) * eta(i + a - c, j + k - a, h) for a in support(j, k)
        )

    def ybe_rhs(i, j, k, c, h):
        return sum(
            eta(i, j, s) * eta(i + j - s, k, h + c - s) * eta(s, h + c - s, c)
            for s in support(i, j)
        )

    def compat(i, j, k, a, b):
        lhs = (
            eta(i, k, a + b - j) * eta(j, a + b - j, a)
            + eta(i, j, b + a - k) * eta(b + a - k, k, a)
            + eta(i, j, b) * eta(i + j - b, k, a)
        )
        rhs = (
            eta(i, k, a) * eta(i + k - a, j, b)
            + eta(j, k, a) * eta(i, j + k - a, b)
            + eta(j, k, j + k - b) * eta(i, j + k - b, a)
        )
        return lhs == rhs

    def step(a, b, i, j, k):
        lhs = u(a + b - i - j) * (u(a - j) + u(b - i) - u(b - j) - u(j - b))
        lhs += u(k - b) * u(a + b - i - k)
        rhs = u(a - i) * (u(k - b) - u(j - b) - u(b - j) + u(b + a - i - k)) + u(b - i) * u(a - j)
        return lhs == rhs

    def convolution(t, s, b, d, h):
        lhs = sum(eta(t, s, a) * eta(b + a, d - a, h) for a in support(t, s))
        rhs = (
            (s - t) * eta(b + t, d - t, h)
            + (d - h - s) * eta(d - s, d - t, h)
            + (h - b - s + 1) * eta(b + t, b + s, h)
        )
        return lhs == rhs

    def zeta_closed_form(i, j, k, c, h):
        rhs = eta(j, k, c) * (
            (k - c - 1) * eta(i - c + k, j + k - c, h)
            + (j - h) * eta(j, j + k - c, h)
            + (h - i) * eta(i, i + k - c, h)
        ) + eta(i, j, c) * (
            (c - i + 1) * eta(i + j - c, i + k - c, h)
            + (h - j) * eta(i + j - c, j, h)
            + (k - h) * eta(i + k - c, k, h)
        )
        return zeta(i, j, k, c, h) == rhs

    def g_idempotent(i, j, l):
        return (
            sum(eta(i, j, k) * eta(k, i + j - k, l) for k in support(i, j)) == eta(i, j, l)
            and eta(j, i, l) == -eta(i, j, l)
            and eta(i, j, i + j - l) == eta(i, j, l) + delta(l - j) - delta(l - i)
        )

    return {
        "compat_coeffs": compat,
        "ybe_coeffs": lambda i, j, k, c, h: zeta(i, j, k, c, h) == ybe_rhs(i, j, k, c, h),
        "step_identity": step,
        "eta_convolution": convolution,
        "zeta_closed_form": zeta_closed_form,
        "zeta_symmetry": lambda i, j, k, c, h: (
            ybe_rhs(i, j, k, c, h) == zeta(i + j - k, i, j, h + c - k, i + j - h)
        ),
        "g_idempotent": g_idempotent,
        "eta_translation": lambda a, b, c, d: eta(a + d, b + d, c + d) == eta(a, b, c),
        "eta_antisymmetry": lambda a, b, c: eta(a, b, c) == -eta(b, a, c),
        "eta_reflection": lambda a, b, c: (
            eta(a, b, c) == eta(-b, -a, -c - 1) == eta(a, b, a + b - c - 1)
        ),
        "eta_delta_adjacent": lambda a, c: eta(a, a + 1, c) == delta(a - c),
        "eta_interval_sum": lambda b, c: sum(eta(b, c, a) for a in support(b, c)) == c - b,
        "eta_cocycle": lambda a, b, c, d: eta(a, b, d) + eta(b, c, d) == eta(a, c, d),
        "eta_annihilation": lambda a, b, c: eta(a, b + 1, c) * eta(c, a, b) == 0,
        "eta_exchange": lambda a, b, c, d: (
            eta(a, b, c) * eta(c, b, d) == eta(a, b, d) * eta(a, d + 1, c)
        ),
        "eta_splitting": lambda a, b, c, d, e: (
            eta(a, b, c) * eta(d, c, e)
            == eta(a, b, c) * eta(d, a, e) + eta(a, b, e) * eta(e + 1, b, c)
        ),
    }


def reference_first_failure(holds, lo, hi, arity):
    for tpl in itertools.product(range(lo, hi + 1), repeat=arity):
        if not holds(*tpl):
            return tpl
    return None


def assert_scans_match_reference(eta, lo, hi, pad):
    checks = reference_checks(eta, pad)
    with mock.patch.object(oracles, "eta", eta):
        reports = run_oracles(lo, hi, pad=pad)
    assert [report.name for report in reports] == sorted(checks)
    for report in reports:
        expected = reference_first_failure(checks[report.name], lo, hi, report.window.arity)
        assert report.counterexample == expected, (report.name, lo, hi, pad)
        assert report.passed == (expected is None)


def one_point_mutant(point, value):
    """eta with its value at one point replaced."""
    return lambda i, j, k: value if (i, j, k) == point else naive_eta(i, j, k)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_scans_match_per_tuple_reference(data):
    lo = data.draw(st.integers(-4, 3), label="lo")
    hi = lo + data.draw(st.sampled_from([0, 1, 2, 3]), label="width - 1")
    pad = data.draw(st.integers(0, 2), label="pad")
    kind = data.draw(st.sampled_from(["real", "closed", "one_point"]), label="eta")
    if kind == "real":
        eta = naive_eta
    elif kind == "closed":
        eta = closed_interval_eta
    else:
        point = data.draw(st.tuples(*[st.integers(lo - 1, hi + 1)] * 3), label="point")
        value = data.draw(st.sampled_from([-1, 0, 1]).filter(lambda v: v != naive_eta(*point)))
        eta = one_point_mutant(point, value)
    assert_scans_match_reference(eta, lo, hi, pad)


@pytest.mark.parametrize("eta", [naive_eta, closed_interval_eta], ids=["real", "closed"])
@pytest.mark.parametrize("lo", [10**12, -(10**12) - 2])
def test_far_window_matches_per_tuple_reference(eta, lo):
    # the residual fields reach about 10 * 10**12 under the wrong eta (the
    # weights of eta_convolution and zeta_closed_form), so the field width
    # must grow with the coordinates
    assert_scans_match_reference(eta, lo, lo + 2, 1)


@pytest.mark.parametrize(
    "eta",
    [closed_interval_eta, one_point_mutant((0, 1, 0), 0), one_point_mutant((2, -3, 1), 0)],
    ids=["closed", "one_point_0_1_0", "one_point_2_m3_1"],
)
def test_wide_window_matches_per_tuple_reference(eta):
    # six values per coordinate, so a packed row of (g, h) holds 36 fields;
    # the one-point mutants sit inside the window, and several identities
    # fail there at a g other than lo
    assert_scans_match_reference(eta, -3, 2, 1)


def residual_fields(row, rows):
    """The rows.width signed fields of a residual row, lowest first."""
    mask, half = (1 << rows.bits) - 1, 1 << rows.bits - 1
    fields = []
    for _ in range(rows.width):
        field = ((row + half) & mask) - half
        fields.append(field)
        row = (row - field) >> rows.bits
    assert row == 0
    return fields


def test_zeta_closed_form_fields_where_j_equals_k_match_reference():
    # With j = k, eta(j, k, .) vanishes unless the mutant point is hit, and
    # zeta's sum is empty, so a stage that skipped its eta(i, j, c) terms
    # whenever the eta(j, k, c) row is zero keeps every first counterexample
    # the scans above compare.  Each field of the residual row must be zero
    # exactly where the identity holds, under every one-point mutant that
    # makes eta(x, x, h0) = 1.
    lo, hi = -3, 2
    last = list(itertools.product(range(lo, hi + 1), repeat=2))  # (c, h), in field order
    for x, h0 in itertools.product(range(-5, 5), repeat=2):
        eta = one_point_mutant((x, x, h0), 1)
        holds = reference_checks(eta, 0)["zeta_closed_form"]
        with mock.patch.object(oracles, "eta", eta):
            rows = oracles._Rows(lo, hi, 0, max(abs(lo), abs(hi)), packed=2)
            for i, j in itertools.product(range(lo, hi + 1), repeat=2):
                fields = residual_fields(oracles._zeta_closed_form(rows, i, j, j), rows)
                expected = [not holds(i, j, j, c, h) for c, h in last]
                assert [field != 0 for field in fields] == expected, (x, h0, i, j)


@pytest.mark.parametrize(
    "eta",
    [naive_eta, closed_interval_eta, one_point_mutant((0, 1, 0), 0)],
    ids=["real", "closed", "one_point_0_1_0"],
)
@pytest.mark.parametrize("pad", [0, 1])
def test_row_cache_clears_without_changing_a_report(eta, pad):
    # with a bound of 64 fields a cache holds one row of (g, h) and ten of
    # h, so both caches clear, as on the widest windows the tuple cap admits;
    # between two clears of a cache no row is built twice
    turned = []
    built = {}  # (fn, args) built since the last clear, by cache
    build = oracles._Rows._build

    def spy(rows, fn, args):
        if not rows._room:
            turned.append(rows.packed)
            built[rows] = set()
        seen = built.setdefault(rows, set())
        assert (fn, args) not in seen, f"{fn.__name__}{args} built twice"
        seen.add((fn, args))
        return build(rows, fn, args)

    with mock.patch.object(oracles, "_FIELDS_KEPT", 64):
        with mock.patch.object(oracles._Rows, "_build", spy):
            assert_scans_match_reference(eta, -3, 2, pad)
    assert set(turned) == {1, 2}


def test_factor_outside_unit_range_rejected():
    doubled = lambda i, j, k: 2 * naive_eta(i, j, k)
    with mock.patch.object(oracles, "eta", doubled):
        for name in oracles.oracle_names():
            if name == "step_identity":
                continue  # no eta factor
            with pytest.raises(ValueError, match="-1, 0 or 1"):
                run_oracles(-2, 2, only=[name])
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            zeta(1, 2, 3, 1, 2)
    with mock.patch.object(oracles, "step_u", lambda x: 2 if x >= 0 else 0):
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            run_oracles(-2, 2, only=["step_identity"])


def test_oversized_pad_rejected_before_scanning():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        run_oracles(0, 1, only=["ybe_coeffs"], pad=10**7)
    with pytest.raises(ValueError, match="cap"):
        run_oracles(-4, 5, pad=10**5)
    assert time.perf_counter() - started < 1.0


def test_g_idempotent_wide_window_within_7_mb():
    # its interval lists are read once each and never kept
    tracemalloc.start()
    try:
        [report] = run_oracles(-50, 49, only=["g_idempotent"])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert report.passed, report.to_json_obj()
    assert peak <= 7, f"tracemalloc peak {peak:.1f} MB is over 7 MB"


def test_report_verdict_is_its_counterexample():
    # a report holds no verdict of its own, so none can disagree with it
    window = IntWindow(0, 1, 2)
    passing, failing = OracleReport("x", window, None), OracleReport("x", window, (1, 0))
    assert passing.passed and not failing.passed
    assert list(failing.to_json_obj().items()) == [
        ("name", "x"),
        ("window", {"lo": 0, "hi": 1, "arity": 2}),
        ("passed", False),
        ("counterexample", [1, 0]),
    ]
    with pytest.raises(AttributeError):
        passing.passed = False
