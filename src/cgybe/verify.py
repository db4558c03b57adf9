"""Exact symbolic verification of the operator-level equations.

Every check states its equation as "this signed sum of operator products
is zero", e.g. c12∘c23∘c12 − c23∘c12∘c23 for the Yang-Baxter equation.
It builds the two-factor products the words end in, summing those that
share a left factor, and hands the rest to one
:func:`~cgybe.tensor.compose_sum` call, so neither side and no
difference operator is ever built.  There is no tolerance, because there
is nothing to tolerate: coefficients are exact Laurent polynomials and a
check passes iff the sum has no entries after canonicalization.  A check
of several equations builds each sum only when the ones before it
vanished.  On failure the report carries the lexicographically smallest
offending (input, output) pair together with the nonzero coefficient of
the sum there, which is the coefficient of lhs − rhs, so failures are
deterministic across runs.

The 3-fold checks (ybe, compat, mixed) evaluate each word right to left
from its rightmost lifted factor restricted to a set S of inputs, which
builds the sum on S alone: (f∘g)|_S = f∘(g|_S).  S is the 3-fold inputs
with min index 1, about 3n² of the n³, when every 2-fold operator of the
check passes the translation lemma
(:func:`~cgybe.tensor._translation_invariant`): the column at each input
with min index >= 2 is the column at the input one step down, with its
outputs shifted up by one.  Lifts, products and sums keep that property,
so a nonzero column of the sum at an input with min index m is the
translate of a nonzero column at the input m − 1 steps down, which has
min index 1 and is lexicographically smaller.  The sum therefore vanishes
iff it vanishes on S, and its smallest entry, the witness with its
coefficient, lies in S: pass/fail and the report are those of the full
check.  P, g, both Cremmer-Gervais matrices and their evaluations pass
the lemma.  When an operator fails it, as a random one does, S is every
input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from .laurent import LaurentQP, as_laurent
from .model import cg_op, g_op, permutation_op
from .tensor import (
    TensorOp,
    Witness,
    _restrict_min_index_one,
    _translation_invariant,
    compose_sum,
    lift12,
    lift23,
)

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
    passed: bool
    witness: Witness | None
    elapsed: float

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


def _report(name: str, differences, started: float) -> CheckReport:
    """Build each lhs − rhs from its thunk in turn; the first nonzero one fails."""
    for difference in differences:
        witness = difference().first_entry()
        if witness is not None:
            return CheckReport(name, False, witness, time.perf_counter() - started)
    return CheckReport(name, True, None, time.perf_counter() - started)


class _Lifts(NamedTuple):
    """The factors a 2-fold operator x gives the cubic words: x12 and x23
    as left factors, and x12 and −x23 restricted to the inputs the check
    reads (see :func:`_lifts`) as rightmost factors."""

    l12: TensorOp
    l23: TensorOp
    r12: TensorOp
    neg_r23: TensorOp


def _lifts(*ops: TensorOp) -> list[_Lifts]:
    """The :class:`_Lifts` of each operator.  The rightmost factors are
    restricted to the 3-fold inputs with min index 1 when every operator
    passes the translation lemma, else to every input."""
    reduced = all(_translation_invariant(op) for op in ops)
    restrict = _restrict_min_index_one if reduced else lambda x: x
    lifts = []
    for op in ops:
        x12, x23 = lift12(op), lift23(op)
        lifts.append(_Lifts(x12, x23, restrict(x12), -restrict(x23)))
    return lifts


def _cubic_difference(a: _Lifts, b: _Lifts) -> TensorOp:
    """The cubic sum whose vanishing is the mixed condition of (a, b):

      a12 b23 b12 + b12 a23 b12 + b12 b23 a12
          − (a23 b12 b23 + b23 a12 b23 + b23 b12 a23)

    Each word is evaluated right to left from its restricted rightmost
    factor, and the words are grouped by left factor: two products and two
    sums of two products, then one sum of four terms.
    """
    return compose_sum(
        [
            (a.l12, b.l23 @ b.r12),
            (b.l12, compose_sum([(a.l23, b.r12), (b.l23, a.r12)])),
            (a.l23, b.l12 @ b.neg_r23),
            (b.l23, compose_sum([(a.l12, b.neg_r23), (b.l12, a.neg_r23)])),
        ]
    )


def check_ybe(c: TensorOp, name: str = "ybe") -> CheckReport:
    """c12 c23 c12 = c23 c12 c23 on V⊗V⊗V (rightmost factor acts first)."""
    started = time.perf_counter()
    (c,) = _lifts(c)
    return _report(
        name,
        [lambda: compose_sum([(c.l12, c.l23 @ c.r12), (c.l23, c.l12 @ c.neg_r23)])],
        started,
    )


def check_compatibility(g: TensorOp, name: str = "compat") -> CheckReport:
    """The cubic condition making every alpha*P + beta*g a Yang-Baxter solution:

    g12 g23 P12 + g12 P23 g12 + P12 g23 g12
        = g23 g12 P23 + g23 P12 g23 + P23 g12 g23

    It is the first mixed condition of the pair (P, g).
    """
    started = time.perf_counter()
    perm, g = _lifts(permutation_op(g.n), g)
    return _report(name, [lambda: _cubic_difference(perm, g)], started)


def check_mixed_conditions(f: TensorOp, g: TensorOp, name: str = "mixed") -> CheckReport:
    """Both mixed cubic conditions for the pair (f, g).

    Together with f and g each solving the Yang-Baxter equation, these make
    every linear combination alpha*f + beta*g a solution as well:

      f12 g23 g12 + g12 f23 g12 + g12 g23 f12
          = f23 g12 g23 + g23 f12 g23 + g23 g12 f23
    and the same with the roles of f and g exchanged.  The second is
    built only when the first holds.
    """
    started = time.perf_counter()
    f._check_match(g)
    f, g = _lifts(f, g)
    return _report(
        name,
        [lambda: _cubic_difference(f, g), lambda: _cubic_difference(g, f)],
        started,
    )


def check_hecke(rmat: TensorOp, qscalar: LaurentQP, name: str = "hecke") -> CheckReport:
    """(R - s*I)(R + s^-1*I) = 0 for the given unit scalar s.

    Checked expanded: R∘R + (s^-1 - s)*R - I = 0.
    """
    qscalar = as_laurent(qscalar)
    if not qscalar.is_unit():
        raise ValueError(f"Hecke scalar must be a unit of the Laurent ring: {qscalar}")
    started = time.perf_counter()
    identity = TensorOp.identity(rmat.n, rmat.arity)
    terms = [(rmat, rmat), (qscalar.unit_inverse() - qscalar, rmat), (-1, identity)]
    return _report(name, [lambda: compose_sum(terms)], started)


def check_gp_relations(n: int, name: str = "gp") -> CheckReport:
    """The three relations tying g to the flip: g^2 = g, gP = -g, Pg = g + P - I."""
    started = time.perf_counter()
    g = g_op(n)
    perm = permutation_op(n)
    return _report(
        name,
        [
            lambda: compose_sum([(g, g), (-1, g)]),
            lambda: compose_sum([(g, perm), (1, g)]),
            lambda: compose_sum([(perm, g), (-1, g), (-1, perm), (1, TensorOp.identity(n))]),
        ],
        started,
    )


def check_quadratic(
    n: int, alpha: LaurentQP, beta: LaurentQP, name: str = "quadratic"
) -> CheckReport:
    """R^2 = beta*R + alpha*(alpha-beta)*I for R = alpha*P + beta*g."""
    started = time.perf_counter()
    rmat = cg_op(n, alpha, beta)
    terms = [(rmat, rmat), (-beta, rmat), (-(alpha * (alpha - beta)), TensorOp.identity(n))]
    return _report(name, [lambda: compose_sum(terms)], started)
