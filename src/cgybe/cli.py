"""Command-line surface: build operators, run the verification and
identity suites, and evaluate at numeric parameters.

    cgybe gen        --op cg --n 3
    cgybe verify     --op cg --n 4 --checks ybe,hecke,compat
    cgybe identities --lo -3 --hi 4 [--only ids5,uid]
    cgybe eval       --op cg2 --n 2 --q 2 --p 2 [--check-ybe]

Exit codes: 0 when everything passes, 1 when at least one check fails,
2 on a usage or configuration error, found before any operator is built
or any scan starts: an --alpha/--beta that is malformed, nested too
deeply, over the parse budget (``MAX_PARSE_WORK`` term operations,
``MAX_PARSE_COEFF_BITS`` coefficient bits), over the parameter bounds
(``MAX_PARAM_TERMS`` terms, ``MAX_PARAM_EXPONENT`` for |exponent|,
``MAX_PARAM_COEFF_BITS`` bits per coefficient), or read by neither the
operator nor an operand of the equations of a selected check (see
``OPERANDS`` and ``verify.CHECKS``); an --alpha that is not a unit of
the Laurent ring with the hecke check; an unknown or empty --checks or
--only selection (``--checks ,``); a rank above the cap of the selected
checks (``MAX_VERIFY_RANK_3FOLD`` = 16 with a 3-fold one, eval
--check-ybe included, else ``MAX_VERIFY_RANK_2FOLD`` = 64, which also
caps gen --format json) or of dense output (``MAX_DENSE_RANK`` = 56, eval
and gen --format latex); an eval --q/--p with an exponent or over
``MAX_RATIONAL_DIGITS`` characters; an --out path that cannot be opened;
an empty window (--lo above --hi), or windows holding more than
``oracles.MAX_WINDOW_TUPLES`` tuples in total.  Reports stream as JSON
lines in sorted check order.  verify runs the selected checks as one
``verify.run_checks`` whose X is the operand --op names (R for cg): it
builds each operand on first read, and an equation that two checks list
(compat is the first sum of mixed) is walked once and reported under
both.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import re
import sys
from fractions import Fraction

from .laurent import LaurentQP, _power, p, q
from .model import cg_op, cg_twisted_op, g_op, hecke_parameters, permutation_op
from .oracles import DEFAULT_HI, DEFAULT_LO, run_oracles
from .verify import CHECKS, check_ybe, hecke_scalar, operands_of, run_checks

USAGE_ERROR = 2

# Largest rank verify accepts, checked before any operator is built.  Every
# --op passes the translation lemma, so the 3-fold checks (ybe, compat,
# mixed) walk only the inputs with min index 1, one input column at a time,
# and hold no 3-fold operator (see verify.py); compat and mixed walk their
# shared first sum once.  All three take 0.5 s at n = 14 and 0.5-0.8 s at
# n = 16 with --op cg2, whose compat and mixed fail at their first input,
# 0.7-0.9 s at either rank with --op cg, and 0.22-0.27 s with --op g,
# whole processes that peak at 18-19 MB of RSS, on a 2-core x86-64 VM with
# Python 3.11.  The 2-fold checks (hecke, gp, quadratic) walk the same way,
# on the 2n - 1 inputs with min index 1: all three with --op cg take
# 0.9-1.6 s of CPU at n = 64, whole processes that peak at 75 MB, on the
# same VM.
MAX_VERIFY_RANK_3FOLD = 16
MAX_VERIFY_RANK_2FOLD = 64

# Largest rank of a dense matrix (eval, gen --format latex), which has n^4
# cells: at n = 56, on the same VM, eval --op cg takes about 12 s and 840 MB
# as JSON, 5-6 s and 240 MB as CSV, and gen --format latex 3.2 s.  gen
# --format json stays sparse and shares MAX_VERIFY_RANK_2FOLD, the cap of
# the same 2-fold operators in verify.
MAX_DENSE_RANK = 56

# Longest eval --q/--p literal, in characters, checked before Fraction reads
# it; exponents are refused too (Fraction('1e10000000') alone takes
# seconds).  A cg2 entry (q - q^-1)·p^m, |m| < n, has about n + 1 literals'
# worth of digits: at most 3645 for 64-character literals at MAX_DENSE_RANK,
# under Python's 4300-digit limit on int-to-str conversion.
MAX_RATIONAL_DIGITS = 64

# Bounds on each --alpha/--beta value, checked right after it is parsed:
# its terms, the largest |exponent| of q or p, and the bits of its widest
# coefficient (numerator plus denominator).  Terms set the cost.  ybe,
# compat, mixed, gp and quadratic of --op cg at n = 16 take 1.3-1.7 s with
# the default or 2-term parameters, 2.0-2.4 s with 3-term ones and 3.8 s
# at all three bounds, whole processes on the VM above; with 4-term ones of
# degree 3, past the bound, the same checks take 3.0-3.9 s in process.
# Exponents and bits set the digits printed.
# An entry of cg is alpha, beta, -beta or alpha - beta: at most 6 terms
# (u/v)·q^a·p^b with |a|, |b| <= 10 and |u|, v < 2^64.  eval evaluates it
# at q = r/s and p = r'/s' with |r|, s, |r'|, s' < 10^63 (64-character
# literals); times L·(r s r' s')^10, L = lcm(v) < 2^(6·64), it is an
# integer under 6·2^64·L·10^(40·63), so its numerator and denominator have
# at most log10(6) + 7·64·log10(2) + 2520 < 2656 digits.  A failing verify
# prints a coefficient of a sum of at most 6 words · 16^6 paths · 6^3 term
# triples < 10^11 products of three coefficients of entries or of the
# Hecke scalars s and s^-1 = v/u: a multiple of 1/L^3, L < 2^(7·64), of
# size under 10^11·2^(3·64)·L^3, so at most 11 + 24·64·log10(2) < 474
# digits.  gen prints under 40 digits, and eval --check-ybe of cg always
# passes.  All stay under Python's 4300-digit limit on int-to-str.
MAX_PARAM_TERMS = 3
MAX_PARAM_EXPONENT = 10
MAX_PARAM_COEFF_BITS = 64


# Every operand of verify.EQUATIONS: the parameters it reads and its
# builder (n, alpha, beta) -> the operand; cg2, the two-parameter matrix,
# is read only as X.  The builders call constructors through this module's
# globals at call time, so that a wrapper installed over a global
# (bench/tracing.py does this) sees every call.
OPERANDS = {
    "P": ((), lambda n, alpha, beta: permutation_op(n)),
    "g": ((), lambda n, alpha, beta: g_op(n)),
    "R": (("alpha", "beta"), lambda n, alpha, beta: cg_op(n, alpha, beta)),
    "cg2": ((), lambda n, alpha, beta: cg_twisted_op(n)),
    "alpha": (("alpha",), lambda n, alpha, beta: alpha),
    "beta": (("beta",), lambda n, alpha, beta: beta),
}

# Each --op and the operand it builds, which verify checks as X.
OPERATORS = {"perm": "P", "g": "g", "cg": "R", "cg2": "cg2"}


# ----------------------------------------------------------------------
# tiny expression grammar for --alpha / --beta:
#   expr   := term (('+'|'-') term)*
#   term   := unary ('*' unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' signed-int)?
#   atom   := integer | 'q' | 'p' | 'hecke' | '(' expr ')'
# 'hecke' is the preset q - q^-1.

# Work budget of one parse, in term operations: a sum, difference or
# negation charges the terms of its operands, a product len(a) * len(b),
# and '^' runs as the repeated squaring of ``**`` (laurent._power) through
# the same charged product.
# Before each product, bounds on the l1 norms of the two factors, which
# bound its coefficients, may hold MAX_PARSE_COEFF_BITS bits together.  Without them
# (q+1)^100000 runs for hours; (q+1)^500 uses about a tenth of the budget.
MAX_PARSE_WORK = 10**6
MAX_PARSE_COEFF_BITS = 10**6


# One match per token, whitespace between matches skipped: an integer, a
# terminal of the grammar, or any other character, which is an error.
_TOKEN = re.compile(r"(\d+)|(hecke|[qp^*+()-])|(\S)")

_ATOMS = {"q": q, "p": p, "hecke": hecke_parameters()[1]}


def _tokenize(text: str) -> list[tuple[str, int | None]]:
    tokens: list[tuple[str, int | None]] = []
    for digits, terminal, other in _TOKEN.findall(text):
        if other:
            raise ValueError(f"unexpected character {other!r} in expression {text!r}")
        tokens.append(("int", int(digits)) if digits else (terminal, None))
    return tokens


def _coeff_bits(value: LaurentQP) -> int:
    """Bits of the widest coefficient, numerator and denominator together."""
    return max((c.numerator.bit_length() + c.denominator.bit_length() for _, c in value), default=0)


def _l1_bits(value: LaurentQP) -> int:
    """Bits of a bound on the l1 norm of the coefficients: those of the
    widest coefficient and of the term count."""
    return _coeff_bits(value) + len(value).bit_length()


def parse_laurent_expr(text: str) -> LaurentQP:
    """Parse the CLI parameter grammar into an exact Laurent polynomial.

    Raises ValueError on a malformed expression, one nested too deeply, and
    one whose evaluation exceeds ``MAX_PARSE_WORK`` or whose coefficients
    would exceed ``MAX_PARSE_COEFF_BITS``.
    """
    tokens = _tokenize(text)
    pos = 0
    work = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens) or (kind is not None and tokens[pos][0] != kind):
            raise ValueError(f"malformed expression {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def charge(cost: int) -> None:
        nonlocal work
        work += cost
        if work > MAX_PARSE_WORK:
            raise ValueError(
                f"expression {text[:40]!r} exceeds the work budget of {MAX_PARSE_WORK} "
                "term operations"
            )

    def multiply(a: LaurentQP, b: LaurentQP) -> LaurentQP:
        charge(len(a) * len(b))
        if _l1_bits(a) + _l1_bits(b) > MAX_PARSE_COEFF_BITS:
            raise ValueError(
                f"expression {text[:40]!r} exceeds the coefficient budget of "
                f"{MAX_PARSE_COEFF_BITS} bits"
            )
        return a * b

    def parse_expr() -> LaurentQP:
        value = parse_term()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            charge(len(value) + len(rhs))
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term() -> LaurentQP:
        value = parse_unary()
        while peek() == "*":
            take()
            value = multiply(value, parse_unary())
        return value

    def parse_unary() -> LaurentQP:
        if peek() == "-":
            take()
            value = parse_unary()
            charge(len(value))
            return -value
        return parse_power()

    def parse_power() -> LaurentQP:
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            return _power(base, sign * take("int")[1], multiply)
        return base

    def parse_atom() -> LaurentQP:
        kind, value = take()
        if kind == "int":
            return LaurentQP.const(value)
        if kind in _ATOMS:
            return _ATOMS[kind]
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


def _parse_rational(flag: str, text: str) -> Fraction:
    """The value of --q or --p; an over-long literal or an exponent raises
    ValueError before ``Fraction`` reads it."""
    if len(text) > MAX_RATIONAL_DIGITS or "e" in text.lower():
        limit = f"at most {MAX_RATIONAL_DIGITS} characters and no exponent"
        raise ValueError(f"{flag} must be a rational number with {limit}: {text[:40]!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


# ----------------------------------------------------------------------
# shared plumbing


def _resolve_params(args, checks=()):
    """The builder of each operand by its name, at --n and the --alpha and
    --beta values; rejects a flag that would be ignored, one that neither
    the operator nor any of ``checks`` reads, and a value over the
    parameter bounds (``MAX_PARAM_TERMS`` and the two after it)."""
    given = [f"--{name}" for name in ("alpha", "beta") if getattr(args, name) is not None]
    x = OPERATORS[args.op]
    names = {x}.union(*(operands_of(check, x) for check in checks))
    reads = set().union(*(OPERANDS[name][0] for name in names))
    unread = [flag for flag in given if flag[2:] not in reads]
    if unread:
        selected = f" with --checks {','.join(checks)}" if checks else ""
        raise ValueError(f"{' and '.join(unread)} has no effect on --op {args.op}{selected}")
    values = dict(zip(("alpha", "beta"), hecke_parameters()))
    for flag in given:
        text = getattr(args, flag[2:])
        value = parse_laurent_expr(text)
        exponent = max((max(abs(a), abs(b)) for (a, b), _ in value), default=0)
        bits = _coeff_bits(value)
        if (
            len(value) > MAX_PARAM_TERMS
            or exponent > MAX_PARAM_EXPONENT
            or bits > MAX_PARAM_COEFF_BITS
        ):
            raise ValueError(
                f"{flag} {text[:40]!r} exceeds the parameter bounds: {len(value)} terms "
                f"(at most {MAX_PARAM_TERMS}), |exponent| {exponent} (at most "
                f"{MAX_PARAM_EXPONENT}), {bits} coefficient bits (at most {MAX_PARAM_COEFF_BITS})"
            )
        values[flag[2:]] = value
    return lambda name: OPERANDS[name][1](args.n, values["alpha"], values["beta"])


def _write_json(payload, handle) -> None:
    """Write ``payload`` as indented JSON and a newline, in batches of encoder
    chunks: json.dumps would hold every chunk and their join at once, and
    one write per chunk (json.dump) takes twice as long."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    for batch in iter(lambda: list(itertools.islice(chunks, 1 << 12)), []):
        handle.write("".join(batch))
    handle.write("\n")


def _open_output(out_path: str | None):
    """The file at ``out_path`` opened for writing, or stdout left open, as
    a context manager; a path that cannot be opened raises ValueError."""
    if not out_path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def _report(reports, stream) -> int:
    """Write each report to ``stream`` as a JSON line as it arrives; the exit code."""
    all_passed = True
    for report in reports:
        stream.write(json.dumps(report.to_json_obj()) + "\n")
        all_passed &= report.passed
    return 0 if all_passed else 1


def _require_rank(n: int, cap: int, kind: str = "dense output") -> None:
    """Reject --n below 1 or above ``cap``, before any operator is built."""
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if n > cap:
        raise ValueError(f"--n {n} exceeds the cap of {cap} for {kind}")


def _require_verify_rank(n: int, names) -> None:
    """Reject a rank above the cap of the selected checks, before any work."""
    power = max(CHECKS[name][0] for name in names)
    cap = MAX_VERIFY_RANK_3FOLD if power == 3 else MAX_VERIFY_RANK_2FOLD
    kind = ", ".join(name for name, (check_power, _) in CHECKS.items() if check_power == power)
    _require_rank(n, cap, f"{power}-fold checks ({kind})")


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.format == "json":
        _require_rank(args.n, MAX_VERIFY_RANK_2FOLD, "sparse output")
    else:
        _require_rank(args.n, MAX_DENSE_RANK)
    build = _resolve_params(args)
    with _open_output(args.out) as handle:
        operator = build(OPERATORS[args.op])
        if args.format == "json":
            _write_json(operator.to_json_obj(), handle)
        else:
            handle.write(operator.to_latex())
    return 0


def cmd_verify(args) -> int:
    names = sorted({name.strip() for name in args.checks.split(",") if name.strip()})
    if not names:
        raise ValueError(f"no check selected (choose from {', '.join(CHECKS)})")
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check: {name} (choose from {', '.join(CHECKS)})")
    build = _resolve_params(args, names)
    if "hecke" in names:
        hecke_scalar(build("alpha"))
    _require_verify_rank(args.n, names)
    return _report(run_checks(zip(names, names), build, OPERATORS[args.op]), sys.stdout)


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
    build = _resolve_params(args)
    qval = _parse_rational("--q", args.q)
    pval = _parse_rational("--p", args.p)
    if qval == 0 or pval == 0:
        raise ValueError("q and p must be nonzero")
    with _open_output(args.out) as handle:
        operator = build(OPERATORS[args.op])
        numeric = operator.eval_at(qval, pval)
        if args.format == "csv":
            handle.write(numeric.to_numeric_csv())
        else:
            payload = {
                "op": args.op,
                "n": args.n,
                "q": str(qval),
                "p": str(pval),
                "rows": [[str(cell) for cell in row] for row in numeric.to_numeric_rows()],
            }
            _write_json(payload, handle)
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
        # argparse reads a separate value that starts with "-" as an option
        # unless it is a plain negative number, so -q is attached with "="
        sp.add_argument(
            "--alpha", help="flip coefficient (expression in q, p); write --alpha=-q for -q"
        )
        sp.add_argument(
            "--beta", help="shift coefficient (expression, or 'hecke'); write --beta=-p for -p"
        )

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
    sp.add_argument(
        "--q", required=True, help="rational value for q, e.g. 3/2; write --q=-3/2 for -3/2"
    )
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
