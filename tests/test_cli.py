"""Command-line contract: flag parsing, formats, exit codes, streaming."""

import contextlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cgybe import (
    TensorOp,
    cg_op,
    cg_twisted_op,
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_mixed_conditions,
    check_quadratic,
    check_ybe,
    cli,
    g_op,
    hecke_parameters,
    oracles,
    permutation_op,
    verify,
)
from cgybe.cli import (
    MAX_DENSE_RANK,
    MAX_PARAM_COEFF_BITS,
    MAX_PARAM_EXPONENT,
    MAX_PARAM_TERMS,
    MAX_RATIONAL_DIGITS,
    MAX_VERIFY_RANK_2FOLD,
    MAX_VERIFY_RANK_3FOLD,
    main,
    parse_laurent_expr,
)
from cgybe.laurent import LaurentQP, p, q


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run_child(*argv, timeout):
    """``python -m cgybe argv`` in a child process, killed after timeout
    seconds, so a command that runs away cannot hang the suite."""
    return subprocess.run(
        [sys.executable, "-m", "cgybe", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=timeout,
    )


def test_parse_expr_symbols_and_powers():
    assert parse_laurent_expr("q") == q
    assert parse_laurent_expr("p^-2") == p**-2
    assert parse_laurent_expr("q - q^-1") == q - q**-1
    assert parse_laurent_expr("hecke") == hecke_parameters()[1]
    assert parse_laurent_expr("2*q^2*p^-1 + 1") == 2 * q**2 * p**-1 + LaurentQP.one()
    assert parse_laurent_expr("-q") == -q
    assert parse_laurent_expr("(q + p)^2") == (q + p) * (q + p)
    assert parse_laurent_expr("(q+p)^0") == LaurentQP.one()
    assert parse_laurent_expr("2^-3") == LaurentQP.const(Fraction(1, 8))
    # within the parse budget
    assert parse_laurent_expr("(q+1)^500") == (q + 1) ** 500
    assert parse_laurent_expr("2^100000") == LaurentQP.const(2**100000)
    assert parse_laurent_expr("q^-100000") == q**-100000


@pytest.mark.parametrize(
    "text, value",
    [
        (" \tq\n+\xa0p ", q + p),
        ("hecke*hecke", (q - q**-1) ** 2),
        ("q^ -1", q**-1),
        ("2*-q", -2 * q),
        ("-q^2", -(q**2)),
        ("(q+p)^2*3", 3 * (q + p) ** 2),
        ("\u0663*q + \u0661\u0662", 3 * q + LaurentQP.const(12)),
    ],
)
def test_parse_expr_tokens(text, value):
    # whitespace anywhere between tokens, any Unicode decimal digits
    assert parse_laurent_expr(text) == value


@pytest.mark.parametrize(
    "bad",
    [
        "q +",
        "x",
        "2q",
        "q^--1",
        "+q",
        pytest.param("\u00b2", id="superscript-two"),
        "q^",
        "q^^2",
        "(q",
        "3/2",
        # nesting deeper than the recursion limit is a usage error, not a crash
        pytest.param("(" * 5000 + "q" + ")" * 5000, id="5000-parentheses"),
        pytest.param("-" * 5000 + "q", id="5000-minus-signs"),
        # work or coefficients over the parse budget are usage errors too
        "(q+1)^100000",
        "((q+1)^64)^64",
        "((2^1000)^1000)^1000",
        pytest.param("*".join(["(q+1)"] * 20000), id="20000-factor-chain"),
        pytest.param("+".join(f"q^{i}" for i in range(1, 8001)), id="8000-power-sum"),
    ],
)
def test_parse_expr_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_laurent_expr(bad)


def test_parse_expr_long_flat_sum():
    # a flat sum is parsed by a loop, not by recursion, whatever its length
    assert parse_laurent_expr("+".join(["q"] * 10000)) == 10000 * q


def test_parse_over_budget_fails_fast():
    started = time.perf_counter()
    result = run_child(
        "verify", "--n", "2", "--checks", "hecke", "--alpha", "(q+1)^100000", timeout=30
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "budget" in result.stderr
    assert time.perf_counter() - started < 5


def test_gen_cg_hecke_preset(capsys):
    code, out, _ = run_cli(capsys, "gen", "--op", "cg", "--n", "3")
    assert code == 0
    assert TensorOp.from_json_obj(json.loads(out)) == cg_op(3, *hecke_parameters())


def test_gen_twisted_includes_qp_term(capsys):
    code, out, _ = run_cli(capsys, "gen", "--op", "cg2", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert TensorOp.from_json_obj(obj) == cg_twisted_op(2)
    flip_12 = [e for e in obj["entries"] if e["in"] == [1, 2] and e["out"] == [2, 1]]
    assert flip_12 == [
        {"out": [2, 1], "in": [1, 2], "coeff": [{"q": 1, "p": -1, "coeff": "1/1"}]}
    ]


def test_gen_perm_rank_one(capsys):
    code, out, _ = run_cli(capsys, "gen", "--op", "perm", "--n", "1")
    assert code == 0
    assert TensorOp.from_json_obj(json.loads(out)) == TensorOp.identity(1)


def test_gen_byte_stable(capsys):
    args = ("gen", "--op", "cg", "--n", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_latex(capsys):
    code, out, _ = run_cli(capsys, "gen", "--op", "cg", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{pmatrix}")
    assert "q - q^{-1}" in out


def test_gen_csv_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--op", "cg", "--n", "2", "--format", "csv"])
    assert excinfo.value.code == 2
    assert "csv" in capsys.readouterr().err


def test_gen_invalid_n(capsys):
    code, _, err = run_cli(capsys, "gen", "--op", "cg", "--n", "0")
    assert code == 2
    assert "error" in err


def test_gen_unknown_op_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--op", "nope", "--n", "2"])
    assert excinfo.value.code == 2


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "op.json"
    code, out, _ = run_cli(
        capsys, "gen", "--op", "g", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert TensorOp.from_json_obj(json.loads(target.read_text())) == cg_op(
        2, LaurentQP.zero(), LaurentQP.one()
    )


def test_verify_passing_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--op", "cg", "--n", "3", "--checks", "ybe,hecke,compat"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["name"] for r in reports] == ["compat", "hecke", "ybe"]
    assert all(r["passed"] for r in reports)


def test_verify_all_default_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--op", "cg", "--n", "2")
    assert code == 0
    names = [json.loads(line)["name"] for line in out.splitlines()]
    assert names == ["compat", "gp", "hecke", "mixed", "quadratic", "ybe"]


def test_verify_failing_hecke(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--op",
        "cg",
        "--n",
        "2",
        "--checks",
        "hecke",
        "--alpha",
        "q",
        "--beta",
        "1",
    )
    assert code == 1
    report = json.loads(out.splitlines()[0])
    assert report["name"] == "hecke" and not report["passed"]
    assert report["witness"] is not None


def test_verify_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--op", "cg", "--n", "0")
    assert code == 2
    assert "error" in err


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--op", "cg", "--n", "2", "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("checks", [",", ""])
def test_verify_empty_selection_rejected(capsys, checks):
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--checks", checks)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("alpha", ["q+1", "0"])
def test_verify_non_unit_hecke_alpha_rejected_before_any_check(capsys, alpha):
    # every check is selected, so compat and gp would print their reports
    # before hecke if the scalar were checked only when hecke runs
    code, out, err = run_cli(capsys, "verify", "--op", "cg", "--alpha", alpha, "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: Hecke scalar must be a unit")


def test_verify_checks_the_hecke_scalar_with_the_verify_rule(capsys, monkeypatch):
    # cgybe verify applies verify.hecke_scalar, the rule of check_hecke, once
    # and only when hecke is selected
    seen = []
    monkeypatch.setattr("cgybe.cli.hecke_scalar", lambda value: seen.append(value))
    assert run_cli(capsys, "verify", "--op", "cg", "--alpha", "q", "--n", "2")[0] == 0
    assert seen == [q]
    seen.clear()
    assert run_cli(capsys, "verify", "--op", "cg", "--n", "2", "--checks", "ybe,gp")[0] == 0
    assert seen == []


@pytest.mark.parametrize(
    "n, checks, allowed",
    [
        (MAX_VERIFY_RANK_3FOLD + 1, "ybe", False),
        (MAX_VERIFY_RANK_3FOLD + 1, "gp,mixed", False),
        (MAX_VERIFY_RANK_3FOLD + 1, "gp", True),
        (MAX_VERIFY_RANK_2FOLD + 1, "gp", False),
        (MAX_DENSE_RANK + 1, "eval", False),
        (MAX_VERIFY_RANK_3FOLD + 1, "eval-ybe", False),
        (MAX_DENSE_RANK + 1, "gen-latex", False),
        (MAX_DENSE_RANK + 1, "gen-json", True),
        (MAX_VERIFY_RANK_2FOLD + 1, "gen-json", False),
        (MAX_VERIFY_RANK_2FOLD + 1, "gen-cg2", False),
    ],
)
def test_verify_rank_cap_follows_selected_checks(capsys, n, checks, allowed):
    # the dense outputs (eval, gen --format latex) have their own cap;
    # sparse gen json has the 2-fold cap; eval --check-ybe also has the ybe cap
    command = {
        "eval": ["eval", "--op", "cg", "--q", "2", "--p", "1"],
        "eval-ybe": ["eval", "--op", "cg", "--q", "2", "--p", "1", "--check-ybe"],
        "gen-latex": ["gen", "--op", "cg", "--format", "latex"],
        "gen-json": ["gen", "--op", "perm"],
        "gen-cg2": ["gen", "--op", "cg2"],
    }.get(checks, ["verify", "--op", "g", "--checks", checks])
    code, out, err = run_cli(capsys, *command, "--n", str(n))
    if allowed:
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cap" in err


def test_verify_oversized_rank_fails_fast():
    started = time.perf_counter()
    result = run_child("verify", "--n", "100000", timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "cap" in result.stderr
    assert time.perf_counter() - started < 10


def test_verify_reports_in_sorted_check_order(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--op", "cg", "--n", "2", "--checks", "ybe,gp"
    )
    assert code == 0
    assert [json.loads(line)["name"] for line in out.splitlines()] == ["gp", "ybe"]


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--op", "perm", "--n", "2", "--alpha", "q"),
        ("gen", "--op", "g", "--n", "2", "--beta", "1"),
        ("gen", "--op", "cg2", "--n", "2", "--alpha", "q", "--beta", "1"),
        ("eval", "--op", "perm", "--n", "2", "--q", "2", "--p", "3", "--beta", "1"),
        ("eval", "--op", "g", "--n", "2", "--q", "2", "--p", "3", "--alpha", "q"),
        ("eval", "--op", "cg2", "--n", "2", "--q", "2", "--p", "3", "--alpha", "q"),
        # verify: a flag must be read by the operator or by a selected check
        ("verify", "--op", "g", "--n", "3", "--checks", "ybe", "--alpha", "q"),
        ("verify", "--op", "cg2", "--n", "2", "--checks", "gp,mixed", "--beta", "1"),
        ("verify", "--op", "perm", "--n", "2", "--checks", "hecke", "--beta", "1"),
        # what a check reads is derived from the equations it lists
        ("verify", "--op", "g", "--n", "2", "--checks", "hecke,gp", "--beta", "1"),
        ("verify", "--op", "perm", "--n", "2", "--checks", "gp", "--alpha", "q"),
        ("verify", "--op", "cg2", "--n", "2", "--checks", "compat,ybe", "--alpha", "q"),
    ],
)
def test_conflicting_or_ignored_param_flags_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_params_flag_is_unrecognized(capsys):
    # the Hecke point is the default of --alpha/--beta, so there is no preset flag
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--op", "cg", "--n", "3", "--params", "hecke"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --params hecke" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check, flags",
    [("hecke", ("--alpha", "q")), ("quadratic", ("--alpha", "q", "--beta", "1"))],
    ids=["hecke-alpha", "quadratic-alpha-beta"],
)
def test_verify_alpha_accepted_for_any_op(capsys, check, flags):
    code, out, _ = run_cli(capsys, "verify", "--op", "g", "--n", "2", "--checks", check, *flags)
    assert code in (0, 1)
    assert [json.loads(line)["name"] for line in out.splitlines()] == [check]


def test_negative_param_is_attached_with_equals(capsys):
    # -q and -q + q^-1 are the Hecke point with R negated, so both checks pass
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--checks", "hecke,quadratic", "--alpha=-q", "--beta=-q+q^-1"
    )
    assert code == 0
    assert [json.loads(line)["passed"] for line in out.splitlines()] == [True, True]
    code, out, _ = run_cli(capsys, "gen", "--n", "1", "--alpha=-q", "--beta", "1")
    assert code == 0
    assert TensorOp.from_json_obj(json.loads(out)) == cg_op(1, -q, LaurentQP.one())
    code, out, _ = run_cli(capsys, "eval", "--op", "cg2", "--n", "2", "--q=-3/2", "--p", "2")
    assert code == 0 and json.loads(out)["q"] == "-3/2"
    # a separate value that starts with "-" and a letter is read as an option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--checks", "hecke", "--alpha", "-q"])
    assert exc.value.code == 2
    assert "argument --alpha: expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--alpha=-q" in capsys.readouterr().out


@pytest.mark.parametrize(
    "op, checks, builds",
    [
        ("cg2", ("--checks", "gp,quadratic"), 0),
        ("cg2", ("--checks", "ybe,hecke,compat"), 1),
        ("cg2", (), 1),
        ("cg", (), 1),
        ("cg", ("--checks", "hecke,quadratic"), 1),
        ("cg", ("--checks", "gp,hecke,quadratic"), 1),
        ("perm", ("--checks", "compat,gp"), 1),
        ("g", ("--checks", "gp,mixed"), 1),
    ],
    ids=["unread", "shared", "cg2", "cg", "cg-hecke-quadratic", "cg-gp-hecke-quadratic", "perm", "g"],
)
def test_verify_builds_operator_only_if_read(capsys, monkeypatch, op, checks, builds):
    # gp and quadratic do not read cg2; the checks that read --op share one
    # build, whether they read it as X or by its operand's name (quadratic
    # reads R, compat and gp read P, gp and mixed read g)
    calls = []
    builder = {"perm": "permutation_op", "g": "g_op", "cg": "cg_op", "cg2": "cg_twisted_op"}[op]
    build = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda n, *args: calls.append(n) or build(n, *args))
    code, out, _ = run_cli(capsys, "verify", "--op", op, "--n", "4", *checks)
    assert code in (0, 1)
    assert len(out.splitlines()) == (len(checks[1].split(",")) if checks else len(verify.CHECKS))
    assert calls == [4] * builds


def _stable(report: dict) -> dict:
    """A report line without its elapsed_ms."""
    return {key: value for key, value in report.items() if key != "elapsed_ms"}


@pytest.mark.parametrize(
    "op, n, walks, shared_walks",
    [("cg2", 5, 2, 1), ("g", 4, 3, 2)],
    ids=["cg2-fails-first-sum", "g-passes"],
)
def test_verify_walks_a_shared_sum_once(capsys, monkeypatch, op, n, walks, shared_walks):
    # compat is the first sum of mixed: run alone, the two checks walk it
    # twice; run together, once, and each report line is the one it gives
    # alone
    calls = []
    witness = verify._witness
    monkeypatch.setattr(verify, "_witness", lambda *args: calls.append(1) or witness(*args))
    alone = []
    for check in ("compat", "mixed"):
        code, out, _ = run_cli(capsys, "verify", "--op", op, "--n", str(n), "--checks", check)
        alone.append(_stable(json.loads(out)))
    assert len(calls) == walks
    calls.clear()
    code, out, _ = run_cli(capsys, "verify", "--op", op, "--n", str(n), "--checks", "compat,mixed")
    assert len(calls) == shared_walks
    assert code == (0 if op == "g" else 1)
    assert [_stable(json.loads(line)) for line in out.splitlines()] == alone


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize(
    "op, flags",
    [("perm", ()), ("g", ()), ("cg", ()), ("cg2", ()), ("cg", ("--alpha", "q", "--beta", "1"))],
    ids=["perm", "g", "cg", "cg2", "cg-not-hecke"],
)
def test_verify_lines_are_the_public_checks(capsys, op, flags, n):
    # the CLI runs the equation table directly; every line it prints is
    # the report of the matching public check
    code, out, _ = run_cli(capsys, "verify", "--op", op, "--n", str(n), *flags)
    alpha, beta = hecke_parameters()
    if flags:
        alpha, beta = q, LaurentQP.one()
    x = {"perm": permutation_op, "g": g_op, "cg2": cg_twisted_op}.get(
        op, lambda n: cg_op(n, alpha, beta)
    )(n)
    reports = [
        check_compatibility(x),
        check_gp_relations(n),
        check_hecke(x, alpha),
        check_mixed_conditions(permutation_op(n), x),
        check_quadratic(n, alpha, beta),
        check_ybe(x),
    ]
    expected = [_stable(report.to_json_obj()) for report in reports]
    assert [_stable(json.loads(line)) for line in out.splitlines()] == expected
    assert code == (0 if all(report.passed for report in reports) else 1)


# Whole verify commands in a child process, up to the rank caps, each with
# the timeout it must finish within.
PASSING_RUNS = [
    ("--op cg2 --n 6 --checks ybe", 20),
    # the symbolic path on the inputs with min index 1
    ("--op cg2 --n 10 --checks ybe", 20),
    ("--op cg2 --n 16 --checks ybe", 60),
    ("--op g --n 6 --checks compat,mixed,ybe", 20),
    # the 3-fold checks and gp at the 3-fold cap on constants: the q form
    # with every int one digit at q^0
    ("--op g --n 16 --checks ybe,compat,mixed,gp", 20),
    # all six checks of alpha*P + beta*g
    ("--op cg --n 6", 20),
    ("--op cg --n 16 --checks compat,mixed", 60),
]


@pytest.mark.parametrize("flags, timeout", PASSING_RUNS, ids=[flags for flags, _ in PASSING_RUNS])
def test_verify_passes_up_to_the_rank_caps(flags, timeout):
    result = run_child("verify", *flags.split(), timeout=timeout)
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    checks = flags.split("--checks ")[1].split(",") if "--checks" in flags else verify.CHECKS
    assert [report["name"] for report in reports] == sorted(checks)
    assert all(report["passed"] for report in reports)


# (R - q)(R + q^-1) at (1,2) <- (1,2) for alpha = q, beta = 1: q^2 - 2q + q^-1
NOT_HECKE_AT_Q_1 = [
    {"q": -1, "p": 0, "coeff": "1/1"},
    {"q": 1, "p": 0, "coeff": "-2/1"},
    {"q": 2, "p": 0, "coeff": "1/1"},
]


FAILING_RUNS = [
    # the constant path: 2P + g and 3P + 7g are not Hecke
    ("--op cg --alpha 2 --beta 1 --n 4 --checks hecke", 20, [1, 2], "1/2"),
    ("--op cg --alpha 3 --beta 7 --n 5 --checks hecke", 20, [1, 2], "52/3"),
    ("--op cg --alpha q --beta 1 --n 4 --checks hecke", 20, [1, 2], NOT_HECKE_AT_Q_1),
    # a failing 2-fold check at its cap stops at its witness input
    ("--op cg --alpha q --beta 1 --n 64 --checks hecke", 120, [1, 2], NOT_HECKE_AT_Q_1),
    # the twisted matrix fails the compatibility condition and the first
    # mixed condition with the flip, run alone or together, at n = 5 and
    # at the 3-fold cap; together the shared sum gives both lines
    ("--op cg2 --n 5 --checks compat", 20, [1, 1, 2], None),
    ("--op cg2 --n 5 --checks mixed", 20, [1, 1, 2], None),
    ("--op cg2 --n 16 --checks compat", 20, [1, 1, 2], None),
    ("--op cg2 --n 16 --checks compat,mixed", 20, [1, 1, 2], None),
]


@pytest.mark.parametrize(
    "flags, timeout, witness, diff", FAILING_RUNS, ids=[run[0] for run in FAILING_RUNS]
)
def test_verify_fails_at_its_witness(flags, timeout, witness, diff):
    # the witness entry is (witness) <- (witness); a str diff is a constant
    result = run_child("verify", *flags.split(), timeout=timeout)
    assert result.returncode == 1, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert [report["name"] for report in reports] == flags.split("--checks ")[1].split(",")
    if isinstance(diff, str):
        diff = [{"q": 0, "p": 0, "coeff": diff}]
    for report in reports:
        assert not report["passed"]
        assert report["witness"]["input"] == report["witness"]["output"] == witness
        if diff is not None:
            assert report["witness"]["diff"] == diff


# Runs the command given after its timeout, kills it at that timeout, exits
# with its exit code and prints its peak RSS in kB, from os.wait4, as the
# last line of stderr.  A process's ru_maxrss also counts the peak of the
# process it was started from, so a small python starts the command, not
# the test process, which may have grown past the bound.
PEAK_RSS_STARTER = """
import os, signal, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
signal.signal(signal.SIGALRM, lambda *_: child.kill())
signal.alarm(int(sys.argv[1]))
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(child.returncode)
"""


def test_verify_2fold_checks_at_the_cap_within_100_mb():
    # each sum is walked one input column at a time on the 2n - 1 inputs
    # with min index 1, and R is built once for hecke and quadratic
    argv = ["verify", "--op", "cg", "--n", "64", "--checks", "hecke,gp,quadratic"]
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_STARTER, "120", sys.executable, "-m", "cgybe", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=150,
    )
    assert result.returncode == 0, result.stderr
    assert [json.loads(line)["passed"] for line in result.stdout.splitlines()] == [True] * 3
    peak = int(result.stderr.splitlines()[-1]) / 1024  # kB on Linux
    assert peak <= 100, f"peak RSS {peak:.1f} MB is over 100 MB"


def test_gen_json_at_the_cap_within_60_mb(tmp_path):
    # gen writes its entries in batches as it walks them, and builds no
    # dict per entry; the operator itself peaks at about 43 MB
    target = tmp_path / "cg2.json"
    argv = ["gen", "--op", "cg2", "--n", str(MAX_VERIFY_RANK_2FOLD), "--out", str(target)]
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_STARTER, "120", sys.executable, "-m", "cgybe", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=150,
    )
    assert result.returncode == 0, result.stderr
    peak = int(result.stderr.splitlines()[-1]) / 1024  # kB on Linux
    assert peak <= 60, f"peak RSS {peak:.1f} MB is over 60 MB"
    read_back = TensorOp.from_json_obj(json.loads(target.read_text()))
    assert read_back == cg_twisted_op(MAX_VERIFY_RANK_2FOLD)


DENSE_AT_THE_CAP = [
    ["eval", "--op", "cg", "--n", str(MAX_DENSE_RANK), "--q", "3/2", "--p", "2", "--format", "csv"],
    ["gen", "--op", "cg", "--n", str(MAX_DENSE_RANK), "--format", "latex"],
]


@pytest.mark.parametrize("argv", DENSE_AT_THE_CAP, ids=["eval-csv", "gen-latex"])
def test_dense_text_at_the_cap_within_60_mb(argv, tmp_path):
    # CSV and LaTeX are written one row at a time as they are walked; joined
    # into one string first, they peaked at 114 MB and 143 MB
    target = tmp_path / "dense.txt"
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_STARTER, "120", sys.executable, "-m", "cgybe", *argv]
        + ["--out", str(target)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=150,
    )
    assert result.returncode == 0, result.stderr
    peak = int(result.stderr.splitlines()[-1]) / 1024  # kB on Linux
    assert peak <= 60, f"peak RSS {peak:.1f} MB is over 60 MB"
    text = target.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    side = MAX_DENSE_RANK**2
    if argv[0] == "gen":
        assert lines[0] == "\\begin{pmatrix}" and lines[-1] == "\\end{pmatrix}"
        assert len(lines) == side + 2 and all(line.endswith(" \\\\") for line in lines[1:-2])
        lines = lines[1:-1]
        cells = [line.removesuffix(" \\\\").split(" & ") for line in lines]
    else:
        cells = [line.split(",") for line in lines]
    assert len(cells) == side and {len(row) for row in cells} == {side}


def test_alpha_nested_past_the_recursion_limit_is_a_usage_error(capsys):
    deep = "(" * 1200 + "q" + ")" * 1200
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--checks", "hecke", f"--alpha={deep}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


def test_gen_json_reads_back_at_n8(capsys):
    code, out, _ = run_cli(capsys, "gen", "--op", "cg2", "--n", "8")
    assert code == 0
    assert TensorOp.from_json_obj(json.loads(out)) == cg_twisted_op(8)


# The operator each --op builds at the default parameters.
BUILDERS = {
    "perm": permutation_op,
    "g": g_op,
    "cg": lambda n: cg_op(n, *hecke_parameters()),
    "cg2": cg_twisted_op,
}


def _indented(obj) -> str:
    """The text gen and eval lay out by hand: json.dumps at indent 2, a newline."""
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("op", BUILDERS)
def test_gen_json_is_json_dumps_indented(capsys, op, n):
    # g at n = 1 has no entries: "entries": [] on one line
    code, out, _ = run_cli(capsys, "gen", "--op", op, "--n", str(n))
    assert code == 0
    assert out == _indented(BUILDERS[op](n).to_json_obj())


@pytest.mark.parametrize(
    "flags",
    [
        ("--alpha=-q", "--beta=-2"),
        ("--alpha=2^-1*q", "--beta=-3^-1*q^-2"),
        ("--alpha=q+p", "--beta=-p^-1"),
        ("--alpha=-5^-1*q*p^2",),
    ],
    ids=["negative", "fractional", "carries-p", "fractional-with-p"],
)
def test_gen_json_with_params_is_json_dumps_indented(capsys, flags):
    values = dict(zip(("alpha", "beta"), hecke_parameters()))
    for flag in flags:
        name, text = flag[2:].split("=", 1)
        values[name] = parse_laurent_expr(text)
    code, out, _ = run_cli(capsys, "gen", "--op", "cg", "--n", "4", *flags)
    assert code == 0
    assert out == _indented(cg_op(4, values["alpha"], values["beta"]).to_json_obj())


@pytest.mark.parametrize(
    "build",
    [
        lambda: g_op(5),
        lambda: cg_twisted_op(5),
        lambda: TensorOp(
            2, 3, {((1, 2, 1), (2, 1, 1)): q - 1, ((2, 2, 2), (1, 1, 1)): Fraction(-3, 7) * p}
        ),
    ],
    ids=["g", "cg2", "3-fold"],
)
def test_gen_json_of_a_read_back_operator(capsys, monkeypatch, build):
    # read back from JSON, every entry holds its own coefficient object
    read_back = TensorOp.from_json_obj(json.loads(json.dumps(build().to_json_obj())))
    monkeypatch.setattr(cli, "cg_twisted_op", lambda n: read_back)
    code, out, _ = run_cli(capsys, "gen", "--op", "cg2", "--n", str(read_back.n))
    assert code == 0
    assert out == _indented(read_back.to_json_obj())


def test_gen_json_past_one_batch(capsys):
    # gen writes its entries 1000 at a time
    operator = cg_twisted_op(16)
    assert len(operator.sorted_entries()) == 1496
    code, out, _ = run_cli(capsys, "gen", "--op", "cg2", "--n", "16")
    assert code == 0
    assert out == _indented(operator.to_json_obj())


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("op", BUILDERS)
def test_eval_json_is_json_dumps_indented(capsys, op, n):
    for q_text, p_text in (("3/2", "2"), ("-3/2", "-1/3"), ("-2", "5/7")):
        argv = ("eval", "--op", op, "--n", str(n), f"--q={q_text}", f"--p={p_text}")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        qval, pval = Fraction(q_text), Fraction(p_text)
        rows = BUILDERS[op](n).eval_at(qval, pval).to_numeric_rows()
        payload = {"op": op, "n": n, "q": str(qval), "p": str(pval)}
        payload["rows"] = [[str(cell) for cell in row] for row in rows]
        assert out == _indented(payload)


IDENTITY_RUNS = [
    ("--lo -3 --hi 4", None),
    ("--only ids5,uid --lo 0 --hi 3", ["eta_interval_sum", "step_identity"]),
    # the window of the acceptance tests
    ("--lo -4 --hi 5", None),
]


@pytest.mark.parametrize("flags, names", IDENTITY_RUNS, ids=[run[0] for run in IDENTITY_RUNS])
def test_identities_pass_on_the_acceptance_windows(capsys, flags, names):
    code, out, _ = run_cli(capsys, "identities", *flags.split())
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [report["name"] for report in reports] == (names or oracles.oracle_names())
    assert all(report["passed"] for report in reports)


def test_identities_default_window(capsys):
    code, out, _ = run_cli(capsys, "identities", "--lo", "-2", "--hi", "2")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r["passed"] for r in reports)
    names = [r["name"] for r in reports]
    assert names == sorted(names)
    assert "ybe_coeffs" in names and "step_identity" in names


def test_identities_only_alias(capsys):
    code, out, _ = run_cli(
        capsys, "identities", "--only", "ids5", "--lo", "0", "--hi", "3"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["name"] for r in reports] == ["eta_interval_sum"]
    assert reports[0]["window"] == {"lo": 0, "hi": 3, "arity": 2}


def test_identities_empty_window(capsys):
    # run_oracles refuses it through IntWindow, before any scan or output
    code, out, err = run_cli(capsys, "identities", "--lo", "2", "--hi", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("only", [",", "", "nope"])  # empty, or an unknown name
def test_identities_empty_selection_rejected(capsys, only):
    code, out, err = run_cli(capsys, "identities", "--only", only)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_identities_oversized_window_fails_fast():
    # ids5 alone on [0, 399] is charged its eta calls, about 2e7.
    for flags in (["--lo", "-50", "--hi", "50"], ["--only", "ids5", "--lo", "0", "--hi", "399"]):
        started = time.perf_counter()
        result = run_child("identities", *flags, timeout=30)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and "cap" in result.stderr
        assert time.perf_counter() - started < 10


OUTPUT_ERROR_CASES = [
    (["gen", "--op", "cg2", "--n", "16"], "pipe"),
    (["identities", "--lo", "-3", "--hi", "4"], "pipe"),
    (["verify", "--op", "cg", "--n", "3"], "full"),
    (["gen", "--op", "cg2", "--n", "8", "--out", "/dev/full"], None),
    (["eval", "--op", "cg", "--n", "8", "--q", "3/2", "--p", "2", "--format", "csv"], "pipe"),
    (["gen", "--op", "cg", "--n", "8", "--format", "latex", "--out", "/dev/full"], None),
]


@pytest.mark.parametrize(
    "argv, stdout",
    OUTPUT_ERROR_CASES,
    ids=["gen-pipe", "identities-pipe", "verify-full", "gen-out-full", "eval-csv-pipe", "gen-latex-full"],
)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_unwritable_output_is_a_usage_error(argv, stdout, unbuffered):
    # A closed pipe (a reader such as `head -c 1` that has exited) or a full
    # disk ends the command with exit 2 and one error line, not a traceback
    # and exit 1, which would read as a failed check, with stdout buffered
    # or not.  The pipe's read end is closed before the command starts, so
    # every write to it fails.
    if (stdout == "full" or "/dev/full" in argv) and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = dict(CHILD_ENV, PYTHONUNBUFFERED=unbuffered)
    with contextlib.ExitStack() as stack:
        if stdout == "pipe":
            read_end, sink = os.pipe()
            os.close(read_end)
            stack.callback(os.close, sink)
        elif stdout == "full":
            sink = stack.enter_context(open("/dev/full", "w"))
        else:
            sink = subprocess.DEVNULL
        result = subprocess.run(
            [sys.executable, "-m", "cgybe", *argv],
            stdout=sink,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the output:"), lines


def test_eval_collapses_to_flip_at_one(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--op", "cg", "--n", "3", "--q", "1", "--p", "1"
    )
    assert code == 0
    payload = json.loads(out)
    numeric = permutation_op(3).eval_at(1, 1)
    expected = [[str(cell) for cell in row] for row in numeric.to_numeric_rows()]
    assert payload["rows"] == expected


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--op",
        "perm",
        "--n",
        "2",
        "--q",
        "2",
        "--p",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    # flip swaps the middle basis pairs: row of input (1,2) has its 1 in
    # the (2,1) output column
    assert rows[0].split(",") == ["1/1", "0/1", "0/1", "0/1"]
    assert rows[1].split(",") == ["0/1", "0/1", "1/1", "0/1"]


def test_eval_numeric_ybe_check(capsys):
    code, out, err = run_cli(
        capsys,
        "eval",
        "--op",
        "cg2",
        "--n",
        "2",
        "--q",
        "2",
        "--p",
        "2",
        "--check-ybe",
    )
    assert code == 0
    report = json.loads(err.splitlines()[-1])
    assert report["name"] == "ybe_numeric" and report["passed"]


def test_eval_rejects_zero_point(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--op", "cg2", "--n", "2", "--q", "0", "--p", "1"
    )
    assert code == 2
    assert "nonzero" in err


def test_eval_rejects_bad_rational(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--op", "cg2", "--n", "2", "--q", "2.5x", "--p", "1"
    )
    assert code == 2
    assert "rational" in err


def _refuse_build(*args):
    raise AssertionError("an operator was built")


@pytest.mark.parametrize(
    "value", ["1e100000", "1e5000", "1E5", "1" * (MAX_RATIONAL_DIGITS + 1)]
)
def test_eval_rejects_oversized_rational_before_any_build(capsys, monkeypatch, value):
    # an exponent or an over-long literal is refused before Fraction reads
    # it; 1e100000 at n = 8 otherwise runs for over a minute
    monkeypatch.setattr("cgybe.cli.cg_twisted_op", _refuse_build)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--op", "cg2", "--n", "8", "--q", "2", "--p", value)
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: --p ")


@pytest.mark.parametrize(
    "value", ["97/89", "1" + "2" * 29, "-" + "3" * 30 + "/" + "7" * (MAX_RATIONAL_DIGITS - 32)]
)
def test_eval_accepts_rational_up_to_the_cap(capsys, value):
    # at the 3-fold rank cap, a literal of at most MAX_RATIONAL_DIGITS
    # characters gives entries that print within Python's int-to-str limit
    code, out, err = run_cli(
        capsys, "eval", "--op", "cg2", "--n", "16", f"--q={value}", "--p", "113/71", "--check-ybe"
    )
    assert code == 0
    assert json.loads(out)["q"] == str(Fraction(value))
    assert json.loads(err.splitlines()[-1])["passed"]


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--n", "2", "--alpha", "2^20000", "--out", "x.json"),
        ("verify", "--n", "2", "--checks", "hecke", "--alpha", "2^20000"),
        ("eval", "--n", "2", "--alpha", "q^1000", "--q", "999999999999", "--p", "1"),
        ("verify", "--n", "8", "--checks", "ybe", "--alpha", "(q+p)^80", "--beta", "(q-p)^80"),
        # one over each bound
        ("gen", "--n", "2", "--alpha", "+".join(f"q^{i}" for i in range(MAX_PARAM_TERMS + 1))),
        ("gen", "--n", "2", "--alpha", f"p^-{MAX_PARAM_EXPONENT + 1}"),
        ("gen", "--n", "2", "--alpha", f"2^{MAX_PARAM_COEFF_BITS}-1"),
    ],
    ids=["gen-bits", "verify-bits", "eval-exponent", "verify-terms", "terms", "exponent", "bits"],
)
def test_oversized_param_rejected_before_any_build(tmp_path, capsys, monkeypatch, argv):
    # each of the first four would build the operator, then fail on Python's
    # 4300-digit limit while printing (gen leaving an empty file behind) or,
    # with 81-term parameters, run for half a minute
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("cgybe.cli.cg_op", _refuse_build)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--op", "cg", *argv[1:])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: --alpha ") and "parameter bounds" in err
    assert not (tmp_path / "x.json").exists()


def test_params_at_the_bounds_run(capsys):
    # three terms, |exponent| and coefficient bits at their bounds (2^63 - 1
    # has 64 bits with its denominator 1, as 4294967291/2147483649 has), at
    # 64-character q and p: every number prints within Python's 4300 digits
    e = MAX_PARAM_EXPONENT
    c = str(2 ** (MAX_PARAM_COEFF_BITS - 1) - 1)
    f = "4294967291*2147483649^-1"
    alpha = f"{c}*q^{e}*p^{e} + {f}*q^-{e}*p^-{e} + {c}*q^{e}*p^-{e}"
    beta = f"{f}*q^-{e}*p^{e} + {c}*q^{e} + {f}*p^-{e}"
    qval, pval = "1." + "0" * 61 + "1", "0." + "9" * 62
    assert len(qval) == len(pval) == MAX_RATIONAL_DIGITS
    code, out, err = run_cli(
        capsys, "eval", "--op", "cg", "--n", "2", "--alpha", alpha, "--beta", beta,
        "--q", qval, "--p", pval, "--check-ybe",
    )
    assert code == 0, err
    assert max(len(cell) for row in json.loads(out)["rows"] for cell in row) > 2000
    assert json.loads(err)["passed"]
    # a unit alpha at the bounds fails the hecke check and prints its witness
    code, out, _ = run_cli(
        capsys, "verify", "--op", "cg", "--n", "3", "--alpha", f"{f}*q^{e}*p^-{e}", "--beta", beta
    )
    assert code == 1
    reports = {r["name"]: r for r in map(json.loads, out.splitlines())}
    assert sorted(reports) == ["compat", "gp", "hecke", "mixed", "quadratic", "ybe"]
    assert [name for name, r in reports.items() if not r["passed"]] == ["hecke"]


@pytest.mark.parametrize("command", ["gen", "eval"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_usage_error_before_any_build(
    tmp_path, capsys, monkeypatch, command, where
):
    target = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    monkeypatch.setattr("cgybe.cli.cg_op", _refuse_build)
    point = ["--q", "2", "--p", "3"] if command == "eval" else []
    code, out, err = run_cli(
        capsys, command, "--op", "cg", "--n", "2", *point, "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
