"""Scalar identity oracles: spot values, window sweeps, truncation soundness."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from cgybe.oracles import (
    IntWindow,
    _scan,
    check_compat_coeffs,
    check_eta_convolution,
    check_eta_identities,
    check_g_idempotent_identity,
    check_step_identity,
    check_ybe_coeffs,
    check_zeta_closed_form,
    check_zeta_symmetry,
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


def test_compat_coeffs_windows():
    assert check_compat_coeffs(1, 4).passed
    assert check_compat_coeffs(-2, 3).passed


def test_compat_coeffs_all_equal_tuple():
    report = check_compat_coeffs(2, 2)
    assert report.passed  # the all-equal tuple gives 0 = 0


def test_step_identity_windows():
    assert check_step_identity(-3, 3).passed
    assert check_step_identity(5, 9).passed  # depends only on differences


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


def test_eta_identities_windows():
    for report in check_eta_identities(-3, 4):
        assert report.passed, report.name
    for report in check_eta_identities(1, 6):
        assert report.passed, report.name


def test_eta_identities_only_filter():
    reports = check_eta_identities(0, 3, only="eta_interval_sum")
    assert [r.name for r in reports] == ["eta_interval_sum"]
    assert reports[0].passed


@pytest.mark.parametrize(
    "only, message",
    [("no_such", "unknown identity"), ("zeta_symmetry", "not an eta identity"), ("ids5", "unknown")],
)
def test_eta_identities_only_rejects_other_names(only, message):
    with pytest.raises(ValueError, match=message):
        check_eta_identities(0, 2, only=only)


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


def test_convolution_windows():
    assert check_eta_convolution(-2, 3).passed
    assert check_eta_convolution(-3, 4).passed


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


def test_zeta_closed_form_windows():
    assert check_zeta_closed_form(-1, 3).passed
    assert check_zeta_closed_form(-3, 4).passed


def test_zeta_closed_form_spot_value():
    assert zeta(1, 2, 3, 2, 2) == naive_zeta(1, 2, 3, 2, 2) == 0


def test_ybe_coeffs_windows():
    assert check_ybe_coeffs(1, 5).passed
    assert check_ybe_coeffs(-2, 3).passed


def test_ybe_coeffs_spot_against_naive():
    for tpl in itertools.product(range(-1, 3), repeat=5):
        assert zeta(*tpl) == naive_zeta(*tpl), tpl
        assert ybe_coeff_rhs(*tpl) == naive_ybe_rhs(*tpl), tpl


def test_zeta_symmetry_windows():
    assert check_zeta_symmetry(-1, 3).passed
    assert check_zeta_symmetry(-3, 4).passed


def test_zeta_symmetry_spot_value():
    i, j, k, c, h = 2, 3, 1, 2, 3
    lhs = naive_ybe_rhs(i, j, k, c, h)
    rhs = naive_zeta(i + j - k, i, j, h + c - k, i + j - h)
    assert lhs == rhs == 0


def test_g_idempotent_identity_windows():
    assert check_g_idempotent_identity(-2, 4).passed
    assert check_g_idempotent_identity(-3, 4).passed


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


def test_run_oracles_selection_and_aliases():
    reports = run_oracles(0, 3, only=["ids5"])
    assert [r.name for r in reports] == ["eta_interval_sum"]
    reports = run_oracles(0, 3, only=["uid", "cond1"])
    assert [r.name for r in reports] == ["compat_coeffs", "step_identity"]
    with pytest.raises(ValueError):
        run_oracles(0, 3, only=["no_such_check"])


def test_run_oracles_rejects_empty_selection():
    with pytest.raises(ValueError, match="empty"):
        run_oracles(0, 3, only=[])


def test_run_oracles_rejects_oversized_window_before_scanning():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        run_oracles(-50, 50)
    # each arity-5 scan alone would fit (25^5 < 1e7); the cap is on the total
    with pytest.raises(ValueError, match="cap"):
        run_oracles(0, 24, only=["uid", "cond1"])
    assert time.perf_counter() - started < 1.0


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


def test_scan_reports_first_counterexample_lexicographically():
    report = _scan("demo", IntWindow(0, 3, 2), lambda a: lambda b: a + b < 4)
    assert not report.passed
    assert report.counterexample == (1, 3)
    obj = report.to_json_obj()
    assert set(obj) == {"name", "window", "passed", "counterexample"}
    assert obj["counterexample"] == [1, 3]


def test_report_invariant():
    passing = check_g_idempotent_identity(0, 2)
    assert passing.passed and passing.counterexample is None
    failing = _scan("demo", IntWindow(0, 1, 1), lambda: lambda a: False)
    assert not failing.passed and failing.counterexample == (0,)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_staged_scan_matches_brute_force(data):
    arity = data.draw(st.integers(1, 4), label="arity")
    lo = data.draw(st.integers(-3, 3), label="lo")
    hi = data.draw(st.integers(lo, lo + 4), label="hi")
    every = list(itertools.product(range(lo, hi + 1), repeat=arity))
    bad = data.draw(st.sets(st.sampled_from(every), max_size=6), label="bad")
    prefixes = []

    def stage(*prefix):
        prefixes.append(prefix)
        return lambda last: (*prefix, last) not in bad

    report = _scan("diff", IntWindow(lo, hi, arity), stage)
    first_bad = min(bad) if bad else None
    assert report.counterexample == first_bad
    assert report.passed == (first_bad is None)
    # one stage call per prefix, in lexicographic order, up to the failure
    expected = sorted({tpl[:-1] for tpl in every})
    if first_bad is not None:
        expected = expected[: expected.index(first_bad[:-1]) + 1]
    assert prefixes == expected
