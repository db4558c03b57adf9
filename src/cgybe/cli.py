"""Command-line surface: build operators, run the verification and
identity suites, and evaluate at numeric parameters.

    cgybe gen        --op cg --n 3 --params hecke
    cgybe verify     --op cg --n 4 --checks ybe,hecke,compat
    cgybe identities --lo -3 --hi 4 [--only ids5,uid]
    cgybe eval       --op cg2 --n 2 --q 2 --p 2 [--check-ybe]

Exit codes: 0 when everything passes, 1 when at least one check fails,
2 on a usage or configuration error, found before any operator is built
or any scan starts: --params hecke with --alpha/--beta; an --alpha/--beta
that is malformed, nested too deeply, or read by neither the operator nor
a selected check (see the ``reads`` of ``OPERATORS`` and ``CHECKS``); an
unknown or empty --checks or --only selection (``--checks ,``); a rank
above the cap of the selected checks (``MAX_VERIFY_RANK_3FOLD`` = 16 with
a 3-fold one, eval --check-ybe included, else ``MAX_VERIFY_RANK_2FOLD`` =
64) or of dense output (``MAX_DENSE_RANK`` = 56, eval and gen --format
latex); an empty window (--lo above --hi), or windows holding more than
``oracles.MAX_WINDOW_TUPLES`` tuples in total.  Reports stream as JSON
lines in sorted check order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .laurent import LaurentQP
from .model import cg_op, cg_twisted_op, g_op, hecke_parameters, permutation_op
from .oracles import DEFAULT_HI, DEFAULT_LO, run_oracles
from .verify import (
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_mixed_conditions,
    check_quadratic,
    check_ybe,
)

USAGE_ERROR = 2

# Largest rank verify accepts, checked before any operator is built.  The
# 3-fold checks (ybe, compat, mixed) cost about n^5.5 in time and n^4 in
# memory: all three take about 12 s at n = 14 and about 27 s and 320 MB at
# n = 16 on a 2-core x86-64 VM with Python 3.11.  The 2-fold checks (hecke,
# gp, quadratic) take about 22 s and 235 MB together at n = 64.
MAX_VERIFY_RANK_3FOLD = 16
MAX_VERIFY_RANK_2FOLD = 64

# Largest rank of a dense matrix (eval, gen --format latex), which has n^4
# cells: at n = 56, on the same VM, eval --op cg takes about 12 s and 840 MB
# as JSON, 5-6 s and 240 MB as CSV, and gen --format latex 3.2 s.  gen
# --format json stays sparse and is not capped.
MAX_DENSE_RANK = 56


class Operator(NamedTuple):
    reads: tuple[str, ...]  # the parameters (alpha, beta) it is built from
    build: Callable  # (n, alpha, beta) -> TensorOp


class Check(NamedTuple):
    power: int  # tensor power it works in: 2 or 3
    reads: tuple[str, ...]  # the parameters it reads besides the operator
    run: Callable  # (operator, n, alpha, beta) -> CheckReport


# The rows call constructors and checks through this module's globals at
# call time, never through a stored function object, so that a wrapper
# installed over a global (bench/tracing.py does this) sees every call.
OPERATORS = {
    "perm": Operator((), lambda n, alpha, beta: permutation_op(n)),
    "g": Operator((), lambda n, alpha, beta: g_op(n)),
    "cg": Operator(("alpha", "beta"), lambda n, alpha, beta: cg_op(n, alpha, beta)),
    "cg2": Operator((), lambda n, alpha, beta: cg_twisted_op(n)),
}

CHECKS = {
    "compat": Check(3, (), lambda c, n, alpha, beta: check_compatibility(c)),
    "gp": Check(2, (), lambda c, n, alpha, beta: check_gp_relations(n)),
    "hecke": Check(2, ("alpha",), lambda c, n, alpha, beta: check_hecke(c, alpha)),
    "mixed": Check(3, (), lambda c, n, alpha, beta: check_mixed_conditions(permutation_op(n), c)),
    "quadratic": Check(2, ("alpha", "beta"), lambda c, n, a, b: check_quadratic(n, a, b)),
    "ybe": Check(3, (), lambda c, n, alpha, beta: check_ybe(c)),
}


# ----------------------------------------------------------------------
# tiny expression grammar for --alpha / --beta:
#   expr   := term (('+'|'-') term)*
#   term   := unary ('*' unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' signed-int)?
#   atom   := integer | 'q' | 'p' | 'hecke' | '(' expr ')'
# 'hecke' is the preset q - q^-1.


def _tokenize(text: str) -> list[tuple[str, int | None]]:
    tokens: list[tuple[str, int | None]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif text.startswith("hecke", i):
            tokens.append(("hecke", None))
            i += 5
        elif ch in "qp":
            tokens.append(("sym", ord(ch)))
            i += 1
        elif ch in "^*+-()":
            tokens.append((ch, None))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in expression {text!r}")
    return tokens


def parse_laurent_expr(text: str) -> LaurentQP:
    """Parse the CLI parameter grammar into an exact Laurent polynomial."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens) or (kind is not None and tokens[pos][0] != kind):
            raise ValueError(f"malformed expression {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr() -> LaurentQP:
        value = parse_term()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term() -> LaurentQP:
        value = parse_unary()
        while peek() == "*":
            take()
            value = value * parse_unary()
        return value

    def parse_unary() -> LaurentQP:
        if peek() == "-":
            take()
            return -parse_unary()
        return parse_power()

    def parse_power() -> LaurentQP:
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            exponent = sign * take("int")[1]
            return base**exponent
        return base

    def parse_atom() -> LaurentQP:
        kind, value = take()
        if kind == "int":
            return LaurentQP.const(value)
        if kind == "sym":
            return LaurentQP.monomial(1, 1, 0) if chr(value) == "q" else LaurentQP.monomial(1, 0, 1)
        if kind == "hecke":
            return hecke_parameters()[1]
        if kind == "(":
            inner = parse_expr()
            take(")")
            return inner
        raise ValueError(f"malformed expression {text!r}")

    try:
        result = parse_expr()
    except RecursionError:
        raise ValueError(f"expression nested too deeply: {text[:40]!r}...") from None
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in expression {text!r}")
    return result


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


# ----------------------------------------------------------------------
# shared plumbing


def _resolve_params(args, checks=()) -> tuple[LaurentQP, LaurentQP]:
    """alpha and beta from the flags; rejects a flag that would be ignored:
    one that neither the operator nor any of ``checks`` reads."""
    given = [f"--{name}" for name in ("alpha", "beta") if getattr(args, name) is not None]
    if given and args.params == "hecke":
        raise ValueError(f"--params hecke conflicts with {' and '.join(given)}")
    reads = set(OPERATORS[args.op].reads).union(*(CHECKS[name].reads for name in checks))
    unread = [flag for flag in given if flag[2:] not in reads]
    if unread:
        selected = f" with --checks {','.join(checks)}" if checks else ""
        raise ValueError(f"{' and '.join(unread)} has no effect on --op {args.op}{selected}")
    alpha, beta = hecke_parameters()
    if args.alpha is not None:
        alpha = parse_laurent_expr(args.alpha)
    if args.beta is not None:
        beta = parse_laurent_expr(args.beta)
    return alpha, beta


def _write_output(write: Callable, out_path: str | None) -> None:
    """Call ``write(handle)`` on the file at ``out_path``, or on stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            write(handle)
    else:
        write(sys.stdout)


def _report(reports, stream) -> int:
    """Write each report to ``stream`` as a JSON line as it arrives; the exit code."""
    all_passed = True
    for report in reports:
        stream.write(json.dumps(report.to_json_obj()) + "\n")
        all_passed &= report.passed
    return 0 if all_passed else 1


def _require_rank(n: int, cap: int | None, kind: str = "dense output") -> None:
    """Reject --n below 1 or above ``cap``, before any operator is built."""
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if cap is not None and n > cap:
        raise ValueError(f"--n {n} exceeds the cap of {cap} for {kind}")


def _require_verify_rank(n: int, names) -> None:
    """Reject a rank above the cap of the selected checks, before any work."""
    power = max(CHECKS[name].power for name in names)
    cap = MAX_VERIFY_RANK_3FOLD if power == 3 else MAX_VERIFY_RANK_2FOLD
    kind = ", ".join(name for name, check in CHECKS.items() if check.power == power)
    _require_rank(n, cap, f"{power}-fold checks ({kind})")


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    _require_rank(args.n, MAX_DENSE_RANK if args.format == "latex" else None)
    alpha, beta = _resolve_params(args)
    operator = OPERATORS[args.op].build(args.n, alpha, beta)
    if args.format == "json":
        text = json.dumps(operator.to_json_obj(), indent=2) + "\n"
    else:
        text = operator.to_latex()
    _write_output(lambda handle: handle.write(text), args.out)
    return 0


def cmd_verify(args) -> int:
    names = sorted({name.strip() for name in args.checks.split(",") if name.strip()})
    if not names:
        raise ValueError(f"no check selected (choose from {', '.join(CHECKS)})")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check: {name} (choose from {', '.join(CHECKS)})")
    alpha, beta = _resolve_params(args, names)
    _require_verify_rank(args.n, names)
    operator = OPERATORS[args.op].build(args.n, alpha, beta)
    return _report((CHECKS[name].run(operator, args.n, alpha, beta) for name in names), sys.stdout)


def cmd_identities(args) -> int:
    if args.lo > args.hi:
        raise ValueError(f"--lo must not exceed --hi ({args.lo} > {args.hi})")
    only = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
    return _report(run_oracles(args.lo, args.hi, only=only), sys.stdout)


def cmd_eval(args) -> int:
    _require_rank(args.n, MAX_DENSE_RANK)
    if args.check_ybe:
        _require_verify_rank(args.n, ["ybe"])
    alpha, beta = _resolve_params(args)
    qval = _parse_rational(args.q)
    pval = _parse_rational(args.p)
    if qval == 0 or pval == 0:
        raise ValueError("q and p must be nonzero")
    operator = OPERATORS[args.op].build(args.n, alpha, beta)
    numeric = operator.eval_at(qval, pval)

    def write(handle) -> None:
        if args.format == "csv":
            handle.write(numeric.to_numeric_csv())
            return
        payload = {
            "op": args.op,
            "n": args.n,
            "q": str(qval),
            "p": str(pval),
            "rows": [[str(cell) for cell in row] for row in numeric.to_numeric_rows()],
        }
        # in batches of chunks: json.dumps would hold every chunk and their
        # join at once, and one write per chunk (json.dump) takes twice as long
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        for batch in iter(lambda: list(itertools.islice(chunks, 1 << 12)), []):
            handle.write("".join(batch))
        handle.write("\n")

    _write_output(write, args.out)
    return _report([check_ybe(numeric, name="ybe_numeric")] if args.check_ybe else [], sys.stderr)


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgybe",
        description="Build Cremmer-Gervais R-matrices and verify their identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_operator_flags(sp):
        sp.add_argument("--op", choices=OPERATORS, default="cg", help="operator to build")
        sp.add_argument("--n", type=int, required=True, help="rank of the base space")
        sp.add_argument("--alpha", help="flip coefficient (expression in q, p)")
        sp.add_argument("--beta", help="shift coefficient (expression, or 'hecke')")
        sp.add_argument("--params", choices=["hecke"], help="preset alpha=q, beta=q-q^-1")

    sp = sub.add_parser("gen", help="emit an operator in JSON or LaTeX")
    add_operator_flags(sp)
    sp.add_argument("--format", choices=["json", "latex"], default="json")
    sp.add_argument("--out", help="write to this path instead of stdout")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify", help="run symbolic operator checks")
    add_operator_flags(sp)
    sp.add_argument(
        "--checks",
        default=",".join(CHECKS),
        help=f"comma list from: {', '.join(CHECKS)}",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("identities", help="run the scalar identity oracles")
    sp.add_argument("--lo", type=int, default=DEFAULT_LO, help="window lower bound")
    sp.add_argument("--hi", type=int, default=DEFAULT_HI, help="window upper bound")
    sp.add_argument("--only", help="comma list of identity names (e.g. uid, ids5)")
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("eval", help="evaluate an operator at rational q, p")
    add_operator_flags(sp)
    sp.add_argument("--q", required=True, help="rational value for q, e.g. 3/2")
    sp.add_argument("--p", required=True, help="rational value for p, e.g. 2")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out", help="write to this path instead of stdout")
    sp.add_argument(
        "--check-ybe",
        action="store_true",
        help="also re-run the Yang-Baxter check at the numeric point",
    )
    sp.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
