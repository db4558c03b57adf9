"""Exact symbolic verification of the operator-level equations.

Every check states its equations as "this signed sum of operator products
is zero" and never builds either side or their difference.  Each sum is
written once, as a named row of ``EQUATIONS``: the operands it reads and
the builder of its list of flat signed words ``(scalar, *factors)``, the
factors applied right to left, a word with no factor standing for
scalar·I, in the order of the equation in its check's docstring.  For the
Yang-Baxter equation that is [(1, c12, c23, c12), (-1, c23, c12, c23)],
where c12 = (c, 12) and c23 = (c, 23) place a 2-fold operator at factors
(1,2) and (2,3) of the 3-fold power.  :func:`~cgybe.tensor._witness` alone
groups, places and walks the words; see :class:`~cgybe.tensor._Sum`.  A
check of ``CHECKS`` is its tensor power and an ordered list of rows, and
:func:`run_checks` walks a list of checks, a row two of them share once.

There is no tolerance, because there is nothing to tolerate: coefficients
are exact Laurent polynomials and a check passes iff each of its sums has
no entries after canonicalization.  A check of several equations evaluates
each sum only when the ones before it vanished.  On failure the report
carries the lexicographically smallest offending (input, output) pair
together with the nonzero coefficient of the sum there, which is the
coefficient of lhs − rhs, so failures are deterministic across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .laurent import LaurentQP, as_laurent
from .model import cg_op, g_op, permutation_op
from .tensor import TensorOp, Witness, _witness

__all__ = [
    "CheckReport",
    "check_ybe",
    "check_compatibility",
    "check_mixed_conditions",
    "check_hecke",
    "check_gp_relations",
    "check_quadratic",
]


@dataclass
class CheckReport:
    """Outcome of one operator-level check; passed is True iff witness is None."""

    name: str
    witness: Witness | None
    elapsed: float

    passed = property(lambda self: self.witness is None)

    def to_json_obj(self) -> dict:
        witness = None
        if self.witness is not None:
            inp, out, diff = self.witness
            witness = {"input": list(inp), "output": list(out), "diff": diff.to_json_obj()}
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": witness,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


def _cubic_words(a, b):
    """The cubic sum whose vanishing is the mixed condition of (a, b):

      a12 b23 b12 + b12 a23 b12 + b12 b23 a12
          − (a23 b12 b23 + b23 a12 b23 + b23 b12 a23)
    """
    a12, a23, b12, b23 = (a, 12), (a, 23), (b, 12), (b, 23)
    lhs = [(a12, b23, b12), (b12, a23, b12), (b12, b23, a12)]
    rhs = [(a23, b12, b23), (b23, a12, b23), (b23, b12, a23)]
    return [(1, *word) for word in lhs] + [(-1, *word) for word in rhs]


# Every equation a check may read, once: its name, the operands it reads
# and the builder of its words from them, in that order.  An operand is X,
# the checked operator; P, the flip; g; R = alpha*P + beta*g; or one of
# the scalars alpha and beta (the Hecke scalar s of check_hecke is alpha).
EQUATIONS = {
    "ybe": (("X",), lambda c: [(1, (c, 12), (c, 23), (c, 12)), (-1, (c, 23), (c, 12), (c, 23))]),
    "cubic(P,X)": (("P", "X"), _cubic_words),
    "cubic(X,P)": (("X", "P"), _cubic_words),
    "hecke": (("X", "alpha"), lambda r, s: [(1, r, r), (s.unit_inverse() - s, r), (-1,)]),
    "quadratic": (("R", "alpha", "beta"), lambda r, a, b: [(1, r, r), (-b, r), (-(a * (a - b)),)]),
    "g^2=g": (("g",), lambda g: [(1, g, g), (-1, g)]),
    "gP=-g": (("g", "P"), lambda g, perm: [(1, g, perm), (1, g)]),
    "Pg=g+P-I": (("P", "g"), lambda perm, g: [(1, perm, g), (-1, g), (-1, perm), (1,)]),
}

# Every check: the tensor power it works in and its equations, in the
# order they are walked.
CHECKS = {
    "compat": (3, ("cubic(P,X)",)),
    "gp": (2, ("g^2=g", "gP=-g", "Pg=g+P-I")),
    "hecke": (2, ("hecke",)),
    "mixed": (3, ("cubic(P,X)", "cubic(X,P)")),
    "quadratic": (2, ("quadratic",)),
    "ybe": (3, ("ybe",)),
}


def _reads(equation: str, x: str) -> list[str]:
    """The operands ``equation`` reads, X named ``x``."""
    return [x if name == "X" else name for name in EQUATIONS[equation][0]]


def operands_of(check: str, x: str = "X") -> set[str]:
    """The operands the equations of ``check`` read, X named ``x``."""
    return {name for equation in CHECKS[check][1] for name in _reads(equation, x)}


def run_checks(checks, build, x="X"):
    """One report per (report name, check) pair of ``checks``, each as it
    is made.  A check walks its equations in order and stops at the first
    whose sum is nonzero.  An equation is walked at most once per run: its
    witness (None when its sum vanishes) is kept for every later check that
    lists it.  ``build(name)`` gives the operand of that name, and X under
    the name ``x``; the run calls it when an equation first reads that
    name, and keeps the value only while a later check reads it.  Each
    operator keeps its packed factors and its lemma result (see
    :func:`~cgybe.tensor._witness`), so a kept operator is packed and
    lemma-checked once.
    """
    checks = list(checks)
    witnesses, values = {}, {}
    for i, (name, check) in enumerate(checks):
        started = time.perf_counter()
        for equation in CHECKS[check][1]:
            if equation not in witnesses:
                reads = _reads(equation, x)
                values.update((r, build(r)) for r in reads if r not in values)
                witnesses[equation] = _witness(EQUATIONS[equation][1](*map(values.get, reads)))
            witness = witnesses[equation]
            if witness is not None:
                break
        yield CheckReport(name, witness, time.perf_counter() - started)
        later = set().union(*(operands_of(c, x) for _, c in checks[i + 1 :]))
        values = {r: values[r] for r in values.keys() & later}


def check_ybe(c: TensorOp, name: str = "ybe") -> CheckReport:
    """c12 c23 c12 = c23 c12 c23 on V⊗V⊗V (rightmost factor acts first)."""
    return next(run_checks([(name, "ybe")], {"X": c}.get))


def check_compatibility(g: TensorOp, name: str = "compat") -> CheckReport:
    """The cubic condition making every alpha*P + beta*g a Yang-Baxter solution:

    P12 g23 g12 + g12 P23 g12 + g12 g23 P12
        = P23 g12 g23 + g23 P12 g23 + g23 g12 P23

    It is the first mixed condition of the pair (P, g).
    """
    return next(run_checks([(name, "compat")], {"P": permutation_op(g.n), "X": g}.get))


def check_mixed_conditions(f: TensorOp, g: TensorOp, name: str = "mixed") -> CheckReport:
    """Both mixed cubic conditions for the pair (f, g).

    Together with f and g each solving the Yang-Baxter equation, these make
    every linear combination alpha*f + beta*g a solution as well:

      f12 g23 g12 + g12 f23 g12 + g12 g23 f12
          = f23 g12 g23 + g23 f12 g23 + g23 g12 f23
    and the same with the roles of f and g exchanged.  The second is
    evaluated only when the first holds.
    """
    return next(run_checks([(name, "mixed")], {"P": f, "X": g}.get))


def hecke_scalar(value: LaurentQP) -> LaurentQP:
    """s as a LaurentQP, once it passes the one check of a Hecke scalar:
    exact (TypeError) and a unit of the Laurent ring (ValueError)."""
    value = as_laurent(value)
    if not value.is_unit():
        raise ValueError(f"Hecke scalar must be a unit of the Laurent ring: {value}")
    return value


def check_hecke(rmat: TensorOp, qscalar: LaurentQP, name: str = "hecke") -> CheckReport:
    """(R - s*I)(R + s^-1*I) = 0 for the given unit scalar s.

    Checked expanded: R∘R + (s^-1 - s)*R - I = 0.
    """
    return next(run_checks([(name, "hecke")], {"X": rmat, "alpha": hecke_scalar(qscalar)}.get))


def check_gp_relations(n: int, name: str = "gp") -> CheckReport:
    """The three relations tying g to the flip: g^2 = g, gP = -g, Pg = g + P - I."""
    return next(run_checks([(name, "gp")], {"g": g_op(n), "P": permutation_op(n)}.get))


def check_quadratic(
    n: int, alpha: LaurentQP, beta: LaurentQP, name: str = "quadratic"
) -> CheckReport:
    """R^2 = beta*R + alpha*(alpha-beta)*I for R = alpha*P + beta*g."""
    operands = {"R": cg_op(n, alpha, beta), "alpha": alpha, "beta": beta}
    return next(run_checks([(name, "quadratic")], operands.get))
