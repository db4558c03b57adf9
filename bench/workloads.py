"""The four benchmark workloads and the outcome gate that checks them.

A workload is a fixed list of checks.  ``setup(name, seed)`` builds the
operators the checks act on; ``run(state)`` calls every check once, in an
order drawn from the seed, and returns the raw results the program gave.
``observe`` turns those results into comparable outcomes and ``gate``
compares them with ``expected.json``.  Timing, tracing and reporting live
in ``run.py`` and ``tracing.py``.

Why each workload is here:

* ``ybe_twisted`` -- the Laurent-ring hot spot: the two-parameter matrix
  has coefficients in both q and p, so ``LaurentQP.__mul__`` and
  ``Fraction`` construction dominate.
* ``g_relations`` -- the tensor layer under integer coefficients: every
  coefficient of g and P is the integer +-1, so lifts, dict composition
  and the difference carry the largest share of the work.
* ``oracles_window`` -- pure-integer window scans with no Laurent or
  tensor work, the control on which a ring or tensor change must not move.
* ``rational_point`` -- the same ring and tensor layers on non-integer
  ``Fraction`` coefficients, the failing negative controls with their
  witnesses, and the byte-stable ``gen`` output through the CLI.

The seed draws the order of the checks in every workload, and the
rational parameters (q0, p0, a0, b0) of ``rational_point``; it never
changes the recorded outcomes, which hold for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from cgybe import cli, model, oracles, verify
from cgybe.laurent import LaurentQP

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Height range of the rational parameters of ``rational_point``: numerator
# and denominator are coprime 7-bit integers, so every seed gives
# coefficients of the same size and about the same cost.
HEIGHT_LO, HEIGHT_HI = 64, 127

YBE_TWISTED_RANKS = (6, 7, 8)
G_RANK = 8
NUMERIC_RANK = 9
QUADRATIC_RANK = 12
ORACLE_WINDOWS = ((-4, 5, 0), (-3, 4, 2))  # (lo, hi, pad)

CLI_COMMANDS = {
    # two checks fail for the twisted matrix at n=5: compat and mixed
    "cli_verify_cg2_n5": ["verify", "--op", "cg2", "--n", "5"],
    # beta=1 is not the Hecke value q - q^-1, so the Hecke check fails
    "cli_hecke_q_1_n16": [
        "verify", "--checks", "hecke", "--alpha", "q", "--beta", "1", "--n", "16"
    ],
    # 420 KB of byte-stable JSON
    "cli_gen_cg2_n16": ["gen", "--op", "cg2", "--n", "16"],
}

# Every (check name, rank) pair the workloads verify, as the traced run
# names its spans: verify.check_s.<name>_n<n>.
CHECK_SPANS = (
    "compat_n5",
    "compat_n8",
    "gp_n5",
    "gp_n8",
    "hecke_n5",
    "hecke_n16",
    "mixed_n5",
    "mixed_n8",
    "quadratic_n5",
    "quadratic_n12",
    "ybe_n5",
    "ybe_n6",
    "ybe_n7",
    "ybe_n8",
    "ybe_numeric_n9",
)


@dataclass(frozen=True)
class CliRun:
    """One ``cgybe`` command: its arguments, exit code and standard output."""

    argv: tuple[str, ...]
    exit_code: int
    stdout: str


def run_cli(argv: list[str]) -> CliRun:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return CliRun(tuple(argv), code, buffer.getvalue())


def _rational(rng: random.Random, signed: bool) -> Fraction:
    while True:
        num = rng.randint(HEIGHT_LO, HEIGHT_HI)
        den = rng.randint(HEIGHT_LO, HEIGHT_HI)
        if gcd(num, den) == 1:
            sign = rng.choice((-1, 1)) if signed else 1
            return Fraction(sign * num, den)


def rational_parameters(seed: int) -> dict[str, Fraction]:
    """(q0, p0, a0, b0) for ``rational_point``; a0 != b0 keeps R invertible."""
    rng = random.Random(f"rational_point:{seed}")
    q0, p0 = _rational(rng, False), _rational(rng, False)
    while True:
        a0, b0 = _rational(rng, True), _rational(rng, True)
        if a0 != b0:
            return {"q0": q0, "p0": p0, "a0": a0, "b0": b0}


def _checks(name: str, seed: int):
    """(check id, thunk) pairs of a workload, before the seeded shuffle."""
    if name == "ybe_twisted":
        ops = {n: model.cg_twisted_op(n) for n in YBE_TWISTED_RANKS}
        return [
            (f"ybe_cg2_n{n}", lambda op=op: verify.check_ybe(op)) for n, op in ops.items()
        ]
    if name == "g_relations":
        g, perm = model.g_op(G_RANK), model.permutation_op(G_RANK)
        return [
            (f"ybe_g_n{G_RANK}", lambda: verify.check_ybe(g)),
            (f"compat_g_n{G_RANK}", lambda: verify.check_compatibility(g)),
            (f"mixed_p_g_n{G_RANK}", lambda: verify.check_mixed_conditions(perm, g)),
            (f"gp_n{G_RANK}", lambda: verify.check_gp_relations(G_RANK)),
        ]
    if name == "oracles_window":
        # One call per identity, as ``cgybe identities --only`` makes it: the
        # same scans as one run_oracles call per window, in steps short
        # enough for the run's calibration to track the machine's speed.
        return [
            (
                f"oracles_{lo}_{hi}_pad{pad}",
                lambda lo=lo, hi=hi, pad=pad, identity=identity: oracles.run_oracles(
                    lo, hi, only=[identity], pad=pad
                ),
            )
            for lo, hi, pad in ORACLE_WINDOWS
            for identity in oracles.oracle_names()
        ]
    if name == "rational_point":
        params = rational_parameters(seed)
        numeric = model.cg_twisted_op(NUMERIC_RANK).eval_at(params["q0"], params["p0"])
        alpha, beta = LaurentQP.const(params["a0"]), LaurentQP.const(params["b0"])
        checks = [
            (
                f"ybe_numeric_n{NUMERIC_RANK}",
                lambda: verify.check_ybe(numeric, name="ybe_numeric"),
            ),
            (
                f"quadratic_n{QUADRATIC_RANK}",
                lambda: verify.check_quadratic(QUADRATIC_RANK, alpha, beta),
            ),
        ]
        checks += [
            (check_id, lambda argv=argv: run_cli(argv))
            for check_id, argv in CLI_COMMANDS.items()
        ]
        return checks
    raise KeyError(name)


WORKLOADS = ("ybe_twisted", "g_relations", "oracles_window", "rational_point")


def setup(name: str, seed: int) -> list:
    """Build the workload's operators; returns its checks in seeded order."""
    checks = _checks(name, seed)
    random.Random(f"{name}:{seed}").shuffle(checks)
    return checks


def run(checks: list) -> list[tuple[str, object]]:
    """Call every check once; a check that raises yields its exception."""
    results = []
    for check_id, thunk in checks:
        try:
            results.append((check_id, thunk()))
        except Exception as exc:  # reported as a failed check, never a pass
            results.append((check_id, exc))
    return results


# ----------------------------------------------------------------------
# outcomes


def line_digest(obj: dict) -> str:
    """SHA-256 of a report line with its elapsed_ms removed."""
    stable = {key: value for key, value in obj.items() if key != "elapsed_ms"}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_outcome(obj: dict, witness_key: str) -> dict:
    return {"passed": obj["passed"], "witness": obj[witness_key], "sha256": line_digest(obj)}


def observe(check_id: str, raw) -> dict[str, dict]:
    """Comparable outcomes of one check, keyed by outcome id."""
    if isinstance(raw, Exception):
        return {check_id: {"error": f"{type(raw).__name__}: {raw}"}}
    if isinstance(raw, verify.CheckReport):
        return {check_id: _report_outcome(raw.to_json_obj(), "witness")}
    if isinstance(raw, CliRun) and raw.argv[0] == "gen":
        data = raw.stdout.encode()
        return {
            check_id: {
                "exit": raw.exit_code,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        }
    if isinstance(raw, CliRun):
        outcomes = {f"{check_id}.exit": {"exit": raw.exit_code}}
        for line in raw.stdout.splitlines():
            obj = json.loads(line)
            outcomes[f"{check_id}.{obj['name']}"] = _report_outcome(obj, "witness")
        return outcomes
    outcomes = {}
    for report in raw:  # a list of OracleReport
        outcomes[f"{check_id}.{report.name}"] = _report_outcome(
            report.to_json_obj(), "counterexample"
        )
    return outcomes


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def gate(name: str, results, expected: dict) -> tuple[int, list[str]]:
    """(outcomes attempted, one message per outcome that differs from expected).

    Expected failures match like any other outcome; a missing or extra
    outcome is a mismatch too.
    """
    want = expected[name]
    got: dict[str, dict] = {}
    for check_id, raw in results:
        try:
            got.update(observe(check_id, raw))
        except (ValueError, KeyError, TypeError) as exc:  # unparsable output
            got[check_id] = {"error": f"{type(exc).__name__}: {exc}"}
    mismatches = []
    for outcome_id in sorted(set(want) | set(got)):
        if got.get(outcome_id) != want.get(outcome_id):
            mismatches.append(
                f"{name}/{outcome_id}: expected {want.get(outcome_id)}, got {got.get(outcome_id)}"
            )
    return len(set(want) | set(got)), mismatches
