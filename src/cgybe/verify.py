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

The 2-fold checks (hecke, gp, quadratic) build the two-factor products
of their sum with one :func:`~cgybe.tensor.compose_sum` call.  The 3-fold
checks (ybe, compat, mixed) evaluate their sum one input column at a
time: for each input basis vector e_t in sorted order, each word is
applied right to left to e_t, reading the 2-fold operators' columns at
their places, and the words sharing a left factor are summed before it
is applied (:func:`~cgybe.tensor._cubic_witness`).  No lift and no
intermediate 3-fold operator is built, and the first input with a
nonzero column gives the witness, so a failing check stops there.

The inputs walked are those with min index 1, about 3n² of the n³, when
every 2-fold operator of the check passes the translation lemma
(:func:`~cgybe.tensor._translation_invariant`): the column at each input
with min index >= 2 is the column at the input one step down, with its
outputs shifted up by one.  Lifts, products and sums keep that property,
so a nonzero column of the sum at an input with min index m is the
translate of a nonzero column at the input m − 1 steps down, which has
min index 1 and is lexicographically smaller.  The sum therefore vanishes
iff it vanishes on those inputs, and its smallest entry, the witness
with its coefficient, lies among them: pass/fail and the report are
those of the full check.  P, g, both Cremmer-Gervais matrices and their
evaluations pass the lemma.  When an operator fails it, as a random one
does, every input is walked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .laurent import LaurentQP, as_laurent
from .model import cg_op, g_op, permutation_op
from .tensor import (
    TensorOp,
    Witness,
    _cubic_witness,
    _translation_invariant,
    _word_factors,
    compose_sum,
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


def _report(name: str, witnesses, started: float) -> CheckReport:
    """Find the witness of each lhs − rhs from its thunk in turn; the first
    that is not None fails."""
    for witness in witnesses:
        witness = witness()
        if witness is not None:
            return CheckReport(name, False, witness, time.perf_counter() - started)
    return CheckReport(name, True, None, time.perf_counter() - started)


def _inputs(n: int, reduced: bool):
    """The 3-fold inputs a check walks, in sorted order: those with min
    index 1 when ``reduced``, else all n³."""
    indices = range(1, n + 1)
    for t in ((i, j, k) for i in indices for j in indices for k in indices):
        if not reduced or 1 in t:
            yield t


def _cubic_report(name: str, ops, sums, started: float) -> CheckReport:
    """Report of a 3-fold check of the 2-fold operators ``ops``: each of
    ``sums``, a function of their factors giving a sum of words, must
    vanish, and is evaluated one input at a time only when the ones before
    it vanished.  The inputs are those with min index 1 when every
    operator passes the translation lemma, else all of them."""
    n = ops[0].n
    factors = _word_factors(*ops)
    reduced = all(_translation_invariant(op) for op in ops)
    witnesses = [
        lambda words=words: _cubic_witness(n, words(*factors), _inputs(n, reduced))
        for words in sums
    ]
    return _report(name, witnesses, started)


def _ybe_words(c):
    """c12 c23 c12 − c23 c12 c23 as words grouped by left factor."""
    return [(1, c[12], [(c[23], c[12])]), (-1, c[23], [(c[12], c[23])])]


def _cubic_words(a, b):
    """The cubic sum whose vanishing is the mixed condition of (a, b):

      a12 b23 b12 + b12 a23 b12 + b12 b23 a12
          − (a23 b12 b23 + b23 a12 b23 + b23 b12 a23)

    as words grouped by left factor: four groups of one, two, one and two
    words."""
    return [
        (1, a[12], [(b[23], b[12])]),
        (1, b[12], [(a[23], b[12]), (b[23], a[12])]),
        (-1, a[23], [(b[12], b[23])]),
        (-1, b[23], [(a[12], b[23]), (b[12], a[23])]),
    ]


def check_ybe(c: TensorOp, name: str = "ybe") -> CheckReport:
    """c12 c23 c12 = c23 c12 c23 on V⊗V⊗V (rightmost factor acts first)."""
    started = time.perf_counter()
    return _cubic_report(name, [c], [_ybe_words], started)


def check_compatibility(g: TensorOp, name: str = "compat") -> CheckReport:
    """The cubic condition making every alpha*P + beta*g a Yang-Baxter solution:

    g12 g23 P12 + g12 P23 g12 + P12 g23 g12
        = g23 g12 P23 + g23 P12 g23 + P23 g12 g23

    It is the first mixed condition of the pair (P, g).
    """
    started = time.perf_counter()
    return _cubic_report(name, [permutation_op(g.n), g], [_cubic_words], started)


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
    return _cubic_report(
        name, [f, g], [_cubic_words, lambda f, g: _cubic_words(g, f)], started
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
    return _report(name, [lambda: compose_sum(terms).first_entry()], started)


def check_gp_relations(n: int, name: str = "gp") -> CheckReport:
    """The three relations tying g to the flip: g^2 = g, gP = -g, Pg = g + P - I."""
    started = time.perf_counter()
    g = g_op(n)
    perm = permutation_op(n)
    return _report(
        name,
        [
            lambda: compose_sum([(g, g), (-1, g)]).first_entry(),
            lambda: compose_sum([(g, perm), (1, g)]).first_entry(),
            lambda: compose_sum(
                [(perm, g), (-1, g), (-1, perm), (1, TensorOp.identity(n))]
            ).first_entry(),
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
    return _report(name, [lambda: compose_sum(terms).first_entry()], started)
