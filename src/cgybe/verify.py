"""Exact symbolic verification of the operator-level equations.

Every check states its equation as "this signed sum of operator products
is zero" and never builds either side or their difference.  Each sum is a
list of flat signed words ``(scalar, *factors)``, the factors applied right
to left, a word with no factor standing for scalar·I, written in the order
of the equation in its check's docstring.  For the Yang-Baxter equation
that is [(1, c12, c23, c12), (-1, c23, c12, c23)], where c12 = (c, 12) and
c23 = (c, 23) place a 2-fold operator at factors (1,2) and (2,3) of the
3-fold power.  :func:`~cgybe.tensor._witness` alone groups, places and
walks the words; see :class:`~cgybe.tensor._Sum`.

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


def _report(name: str, sums, started: float) -> CheckReport:
    """Report of a check each of whose ``sums``, a list of flat words (see
    :class:`~cgybe.tensor._Sum`), must vanish; a sum is walked only when
    the ones before it vanished."""
    tables: dict = {}
    for words in sums:
        witness = _witness(words, tables)
        if witness is not None:
            return CheckReport(name, False, witness, time.perf_counter() - started)
    return CheckReport(name, True, None, time.perf_counter() - started)


def _cubic_words(a, b):
    """The cubic sum whose vanishing is the mixed condition of (a, b):

      a12 b23 b12 + b12 a23 b12 + b12 b23 a12
          − (a23 b12 b23 + b23 a12 b23 + b23 b12 a23)
    """
    a12, a23, b12, b23 = (a, 12), (a, 23), (b, 12), (b, 23)
    return [
        (1, a12, b23, b12),
        (1, b12, a23, b12),
        (1, b12, b23, a12),
        (-1, a23, b12, b23),
        (-1, b23, a12, b23),
        (-1, b23, b12, a23),
    ]


def check_ybe(c: TensorOp, name: str = "ybe") -> CheckReport:
    """c12 c23 c12 = c23 c12 c23 on V⊗V⊗V (rightmost factor acts first)."""
    started = time.perf_counter()
    c12, c23 = (c, 12), (c, 23)
    return _report(name, [[(1, c12, c23, c12), (-1, c23, c12, c23)]], started)


def check_compatibility(g: TensorOp, name: str = "compat") -> CheckReport:
    """The cubic condition making every alpha*P + beta*g a Yang-Baxter solution:

    P12 g23 g12 + g12 P23 g12 + g12 g23 P12
        = P23 g12 g23 + g23 P12 g23 + g23 g12 P23

    It is the first mixed condition of the pair (P, g).
    """
    started = time.perf_counter()
    perm = permutation_op(g.n)
    return _report(name, [_cubic_words(perm, g)], started)


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
    return _report(name, [_cubic_words(f, g), _cubic_words(g, f)], started)


def check_hecke(rmat: TensorOp, qscalar: LaurentQP, name: str = "hecke") -> CheckReport:
    """(R - s*I)(R + s^-1*I) = 0 for the given unit scalar s.

    Checked expanded: R∘R + (s^-1 - s)*R - I = 0.
    """
    qscalar = as_laurent(qscalar)
    if not qscalar.is_unit():
        raise ValueError(f"Hecke scalar must be a unit of the Laurent ring: {qscalar}")
    started = time.perf_counter()
    words = [(1, rmat, rmat), (qscalar.unit_inverse() - qscalar, rmat), (-1,)]
    return _report(name, [words], started)


def check_gp_relations(n: int, name: str = "gp") -> CheckReport:
    """The three relations tying g to the flip: g^2 = g, gP = -g, Pg = g + P - I."""
    started = time.perf_counter()
    g, perm = g_op(n), permutation_op(n)
    sums = [
        [(1, g, g), (-1, g)],
        [(1, g, perm), (1, g)],
        [(1, perm, g), (-1, g), (-1, perm), (1,)],
    ]
    return _report(name, sums, started)


def check_quadratic(
    n: int, alpha: LaurentQP, beta: LaurentQP, name: str = "quadratic"
) -> CheckReport:
    """R^2 = beta*R + alpha*(alpha-beta)*I for R = alpha*P + beta*g."""
    started = time.perf_counter()
    rmat = cg_op(n, alpha, beta)
    words = [(1, rmat, rmat), (-beta, rmat), (-(alpha * (alpha - beta)),)]
    return _report(name, [words], started)
