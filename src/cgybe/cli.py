"""Command-line surface: build operators, run the verification and
identity suites, and evaluate at numeric parameters.

    cgybe gen        --op cg --n 3 --params hecke
    cgybe verify     --op cg --n 4 --checks ybe,hecke,compat
    cgybe identities --lo -3 --hi 4 [--only ids5,uid]
    cgybe eval       --op cg2 --n 2 --q 2 --p 2 [--check-ybe]

Exit codes: 0 when everything passes, 1 when at least one check fails,
2 on a usage or configuration error, including --params hecke combined
with --alpha/--beta, --alpha/--beta on a gen or eval operator that does
not use them, and for identities an empty window (--lo above --hi), an
unknown or empty --only selection (``--only ,``), or windows holding more
than ``oracles.MAX_WINDOW_TUPLES`` tuples in total, rejected before any
scan starts.  Reports stream as JSON lines in sorted check order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .laurent import LaurentQP
from .model import cg_op, cg_twisted_op, g_op, hecke_parameters, permutation_op
from .oracles import DEFAULT_HI, DEFAULT_LO, run_oracles
from .tensor import TensorOp
from .verify import (
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_mixed_conditions,
    check_quadratic,
    check_ybe,
)

USAGE_ERROR = 2

VERIFY_CHECKS = ("compat", "gp", "hecke", "mixed", "quadratic", "ybe")


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

    result = parse_expr()
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


def _resolve_params(args, *, only_cg_reads: bool = False) -> tuple[LaurentQP, LaurentQP]:
    """alpha and beta from the flags; rejects flags that would be ignored.

    ``only_cg_reads`` marks subcommands (gen, eval) where the parameters
    reach nothing but the ``cg`` operator; verify also feeds alpha to its
    hecke and quadratic checks, whatever the operator.
    """
    given = [f"--{name}" for name in ("alpha", "beta") if getattr(args, name) is not None]
    if given and args.params == "hecke":
        raise ValueError(f"--params hecke conflicts with {' and '.join(given)}")
    if given and only_cg_reads and args.op != "cg":
        raise ValueError(f"{' and '.join(given)} has no effect on --op {args.op}")
    alpha, beta = hecke_parameters()
    if args.alpha is not None:
        alpha = parse_laurent_expr(args.alpha)
    if args.beta is not None:
        beta = parse_laurent_expr(args.beta)
    return alpha, beta


def _build_operator(op: str, n: int, alpha: LaurentQP, beta: LaurentQP) -> TensorOp:
    if op == "perm":
        return permutation_op(n)
    if op == "g":
        return g_op(n)
    if op == "cg":
        return cg_op(n, alpha, beta)
    if op == "cg2":
        return cg_twisted_op(n)
    raise ValueError(f"unknown operator: {op}")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    _require_positive_n(args.n)
    alpha, beta = _resolve_params(args, only_cg_reads=True)
    operator = _build_operator(args.op, args.n, alpha, beta)
    if args.format == "json":
        text = json.dumps(operator.to_json_obj(), indent=2) + "\n"
    elif args.format == "latex":
        text = operator.to_latex()
    else:
        raise ValueError("csv output is only available for eval (numeric matrices)")
    _write_output(text, args.out)
    return 0


def cmd_verify(args) -> int:
    _require_positive_n(args.n)
    alpha, beta = _resolve_params(args)
    names = [name.strip() for name in args.checks.split(",") if name.strip()]
    for name in names:
        if name not in VERIFY_CHECKS:
            raise ValueError(f"unknown check: {name} (choose from {', '.join(VERIFY_CHECKS)})")
    operator = _build_operator(args.op, args.n, alpha, beta)
    n = args.n

    thunks = {
        "ybe": lambda: check_ybe(operator),
        "compat": lambda: check_compatibility(operator),
        "mixed": lambda: check_mixed_conditions(permutation_op(n), operator),
        "hecke": lambda: check_hecke(operator, alpha),
        "gp": lambda: check_gp_relations(n),
        "quadratic": lambda: check_quadratic(n, alpha, beta),
    }
    all_passed = True
    for name in sorted(set(names)):
        report = thunks[name]()
        sys.stdout.write(json.dumps(report.to_json_obj()) + "\n")
        all_passed &= report.passed
    return 0 if all_passed else 1


def cmd_identities(args) -> int:
    if args.lo > args.hi:
        raise ValueError(f"--lo must not exceed --hi ({args.lo} > {args.hi})")
    only = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
    reports = run_oracles(args.lo, args.hi, only=only)
    all_passed = True
    for report in reports:
        sys.stdout.write(json.dumps(report.to_json_obj()) + "\n")
        all_passed &= report.passed
    return 0 if all_passed else 1


def cmd_eval(args) -> int:
    _require_positive_n(args.n)
    alpha, beta = _resolve_params(args, only_cg_reads=True)
    qval = _parse_rational(args.q)
    pval = _parse_rational(args.p)
    if qval == 0 or pval == 0:
        raise ValueError("q and p must be nonzero")
    operator = _build_operator(args.op, args.n, alpha, beta)
    numeric = operator.eval_at(qval, pval)

    if args.format == "csv":
        text = numeric.to_numeric_csv()
    else:
        payload = {
            "op": args.op,
            "n": args.n,
            "q": str(qval),
            "p": str(pval),
            "rows": [[str(cell) for cell in row] for row in numeric.to_numeric_rows()],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(text, args.out)

    if args.check_ybe:
        report = check_ybe(numeric, name="ybe_numeric")
        sys.stderr.write(json.dumps(report.to_json_obj()) + "\n")
        return 0 if report.passed else 1
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgybe",
        description="Build Cremmer-Gervais R-matrices and verify their identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_operator_flags(sp, ops=("perm", "g", "cg", "cg2")):
        sp.add_argument("--op", choices=ops, default="cg", help="operator to build")
        sp.add_argument("--n", type=int, required=True, help="rank of the base space")
        sp.add_argument("--alpha", help="flip coefficient (expression in q, p)")
        sp.add_argument("--beta", help="shift coefficient (expression, or 'hecke')")
        sp.add_argument("--params", choices=["hecke"], help="preset alpha=q, beta=q-q^-1")

    sp = sub.add_parser("gen", help="emit an operator in JSON or LaTeX")
    add_operator_flags(sp)
    sp.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    sp.add_argument("--out", help="write to this path instead of stdout")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify", help="run symbolic operator checks")
    add_operator_flags(sp)
    sp.add_argument(
        "--checks",
        default=",".join(VERIFY_CHECKS),
        help=f"comma list from: {', '.join(VERIFY_CHECKS)}",
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
