"""Exact symbolic verification of the operator-level equations.

Every check states its equation as "this signed sum of operator products
is zero", e.g. c12∘c23∘c12 − c23∘c12∘c23 for the Yang-Baxter equation,
and never builds either side or their difference.  There is no
tolerance, because there is nothing to tolerate: coefficients are exact
Laurent polynomials and a check passes iff the sum has no entries after
canonicalization.  A check of several equations evaluates each sum only
when the ones before it vanished.  On failure the report carries the
lexicographically smallest offending (input, output) pair together with
the nonzero coefficient of the sum there, which is the coefficient of
lhs − rhs, so failures are deterministic across runs.

Every check follows one rule.  Each of its sums is a list of words for
:class:`~cgybe.tensor._Sum`, the one kernel behind every operator sum,
and is walked one input column at a time (:func:`~cgybe.tensor._witness`):
for each input basis vector e_t in sorted order, each word is applied
right to left to e_t, reading the 2-fold operators' columns at their
places, a scalar of a word scaling e_t, and the words sharing a left
factor are summed before it is applied.  No lift, product, scalar
multiple of the identity or intermediate operator is built, and the first
input with a nonzero column gives the witness, so a failing check stops
there.  The 3-fold checks (ybe, compat, mixed) place each 2-fold operator
at 12 or 23 of the 3-fold inputs; the 2-fold checks (hecke, gp,
quadratic) apply it to the 2-fold inputs whole.

The inputs walked are those with min index 1, about 3n² of the n³ at
arity 3 and 2n − 1 of the n² at arity 2, when every 2-fold operator of the
check passes the translation lemma
(:func:`~cgybe.tensor._translation_invariant`): the column at each input
with min index >= 2 is the column at the input one step down, with its
outputs shifted up by one.  Lifts, products and sums keep that property,
as does the identity, so a nonzero column of the sum at an input with min
index m is the translate of a nonzero column at the input m − 1 steps
down, which has min index 1 and is lexicographically smaller.  The sum
therefore vanishes iff it vanishes on those inputs, and its smallest
entry, the witness with its coefficient, lies among them: pass/fail and
the report are those of the full check.  P, g, both Cremmer-Gervais
matrices and their evaluations pass the lemma.  When an operator fails
it, as a random one does, every input is walked.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .laurent import LaurentQP, as_laurent
from .model import cg_op, g_op, permutation_op
from .tensor import (
    TensorOp,
    Witness,
    _translation_invariant,
    _witness,
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


def _inputs(n: int, arity: int, reduced: bool):
    """The inputs a check walks, in sorted order: those with min index 1
    when ``reduced``, else all n^arity."""
    for t in itertools.product(range(1, n + 1), repeat=arity):
        if not reduced or 1 in t:
            yield t


def _report(name: str, arity: int, ops, sums, started: float) -> CheckReport:
    """Report of a check on the arity-fold tensor power whose operators
    are ``ops``: each of ``sums``, a list of words (see
    :class:`~cgybe.tensor._Sum`), must vanish, and is walked only when the
    ones before it vanished.  The inputs are those with min index 1 when
    every operator passes the translation lemma, else all of them."""
    n = ops[0].n
    reduced = all(_translation_invariant(op) for op in ops)
    tables: dict = {}
    for words in sums:
        witness = _witness(n, arity, words, _inputs(n, arity, reduced), tables)
        if witness is not None:
            return CheckReport(name, False, witness, time.perf_counter() - started)
    return CheckReport(name, True, None, time.perf_counter() - started)


def _places(op: TensorOp):
    """The factors of a 2-fold operator at place 12 and at place 23 of a
    3-fold word."""
    if op.arity != 2:
        raise ValueError(f"a 3-fold check takes arity-2 operators, got arity {op.arity}")
    return (op, op.n), (op, 1)


def _ybe_words(c):
    """c12 c23 c12 − c23 c12 c23 as words grouped by left factor."""
    c12, c23 = _places(c)
    return [(c12, [(1, c23, c12)]), (c23, [(-1, c12, c23)])]


def _cubic_words(a, b):
    """The cubic sum whose vanishing is the mixed condition of (a, b):

      a12 b23 b12 + b12 a23 b12 + b12 b23 a12
          − (a23 b12 b23 + b23 a12 b23 + b23 b12 a23)

    as words grouped by left factor: four groups of one, two, one and two
    words."""
    (a12, a23), (b12, b23) = _places(a), _places(b)
    return [
        (a12, [(1, b23, b12)]),
        (b12, [(1, a23, b12), (1, b23, a12)]),
        (a23, [(-1, b12, b23)]),
        (b23, [(-1, a12, b23), (-1, b12, a23)]),
    ]


def check_ybe(c: TensorOp, name: str = "ybe") -> CheckReport:
    """c12 c23 c12 = c23 c12 c23 on V⊗V⊗V (rightmost factor acts first)."""
    started = time.perf_counter()
    return _report(name, 3, [c], [_ybe_words(c)], started)


def check_compatibility(g: TensorOp, name: str = "compat") -> CheckReport:
    """The cubic condition making every alpha*P + beta*g a Yang-Baxter solution:

    g12 g23 P12 + g12 P23 g12 + P12 g23 g12
        = g23 g12 P23 + g23 P12 g23 + P23 g12 g23

    It is the first mixed condition of the pair (P, g).
    """
    started = time.perf_counter()
    perm = permutation_op(g.n)
    return _report(name, 3, [perm, g], [_cubic_words(perm, g)], started)


def check_mixed_conditions(f: TensorOp, g: TensorOp, name: str = "mixed") -> CheckReport:
    """Both mixed cubic conditions for the pair (f, g).

    Together with f and g each solving the Yang-Baxter equation, these make
    every linear combination alpha*f + beta*g a solution as well:

      f12 g23 g12 + g12 f23 g12 + g12 g23 f12
          = f23 g12 g23 + g23 f12 g23 + g23 g12 f23
    and the same with the roles of f and g exchanged.  The second is
    evaluated only when the first holds.
    """
    started = time.perf_counter()
    f._check_match(g)
    return _report(name, 3, [f, g], [_cubic_words(f, g), _cubic_words(g, f)], started)


def check_hecke(rmat: TensorOp, qscalar: LaurentQP, name: str = "hecke") -> CheckReport:
    """(R - s*I)(R + s^-1*I) = 0 for the given unit scalar s.

    Checked expanded: R∘R + (s^-1 - s)*R - I = 0.
    """
    qscalar = as_laurent(qscalar)
    if not qscalar.is_unit():
        raise ValueError(f"Hecke scalar must be a unit of the Laurent ring: {qscalar}")
    started = time.perf_counter()
    identity = TensorOp.identity(rmat.n, rmat.arity)
    scalar = qscalar.unit_inverse() - qscalar
    words = [(rmat, [(1, rmat)]), (None, [(scalar, rmat), (-1, identity)])]
    return _report(name, rmat.arity, [rmat], [words], started)


def check_gp_relations(n: int, name: str = "gp") -> CheckReport:
    """The three relations tying g to the flip: g^2 = g, gP = -g, Pg = g + P - I."""
    started = time.perf_counter()
    g, perm = g_op(n), permutation_op(n)
    sums = [
        [(g, [(1, g)]), (None, [(-1, g)])],
        [(g, [(1, perm)]), (None, [(1, g)])],
        [(perm, [(1, g)]), (None, [(-1, g), (-1, perm), (1, TensorOp.identity(n))])],
    ]
    return _report(name, 2, [g, perm], sums, started)


def check_quadratic(
    n: int, alpha: LaurentQP, beta: LaurentQP, name: str = "quadratic"
) -> CheckReport:
    """R^2 = beta*R + alpha*(alpha-beta)*I for R = alpha*P + beta*g."""
    started = time.perf_counter()
    rmat = cg_op(n, alpha, beta)
    identity = TensorOp.identity(n)
    words = [(rmat, [(1, rmat)]), (None, [(-beta, rmat), (-(alpha * (alpha - beta)), identity)])]
    return _report(name, 2, [rmat], [words], started)
