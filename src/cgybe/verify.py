"""Exact symbolic verification of the operator-level equations.

Every check states its equation as "this signed sum of operator products
is zero", e.g. c12∘c23∘c12 − c23∘c12∘c23 for the Yang-Baxter equation.
It builds only the two-factor products the words share and hands the
rest to one :func:`~cgybe.tensor.compose_sum` call, so neither side and
no difference operator is ever built.  There is no tolerance, because
there is nothing to tolerate: coefficients are exact Laurent polynomials
and a check passes iff the sum has no entries after canonicalization.  A
check of several equations builds each sum only when the ones before it
vanished.  On failure the report carries the lexicographically smallest
offending (input, output) pair together with the nonzero coefficient of
the sum there, which is the coefficient of lhs − rhs, so failures are
deterministic across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .laurent import LaurentQP, as_laurent
from .model import cg_op, g_op, permutation_op
from .tensor import TensorOp, Witness, compose_sum, lift12, lift23

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


def _cubic_difference(a12, a23, b12, b23) -> TensorOp:
    """The cubic sum whose vanishing is the mixed condition of (a, b):

      a12 b23 b12 + b12 a23 b12 + b12 b23 a12
          − (a23 b12 b23 + b23 a12 b23 + b23 b12 a23)

    Six words over four shared two-factor products, one kernel call.
    """
    b12b23, b23b12 = b12 @ b23, b23 @ b12
    b12a23, b23a12 = b12 @ a23, b23 @ a12
    neg_a23, neg_b23 = -a23, -b23
    return compose_sum(
        [
            (a12, b23b12),
            (b12a23, b12),
            (b12b23, a12),
            (neg_a23, b12b23),
            (b23a12, neg_b23),
            (b23b12, neg_a23),
        ]
    )


def check_ybe(c: TensorOp, name: str = "ybe") -> CheckReport:
    """c12 c23 c12 = c23 c12 c23 on V⊗V⊗V (rightmost factor acts first)."""
    started = time.perf_counter()
    c12, c23 = lift12(c), lift23(c)
    x = c12 @ c23
    return _report(name, [lambda: compose_sum([(x, c12), (-c23, x)])], started)


def check_compatibility(g: TensorOp, name: str = "compat") -> CheckReport:
    """The cubic condition making every alpha*P + beta*g a Yang-Baxter solution:

    g12 g23 P12 + g12 P23 g12 + P12 g23 g12
        = g23 g12 P23 + g23 P12 g23 + P23 g12 g23

    It is the first mixed condition of the pair (P, g).
    """
    started = time.perf_counter()
    perm = permutation_op(g.n)
    g12, g23 = lift12(g), lift23(g)
    p12, p23 = lift12(perm), lift23(perm)
    return _report(name, [lambda: _cubic_difference(p12, p23, g12, g23)], started)


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
    f12, f23 = lift12(f), lift23(f)
    g12, g23 = lift12(g), lift23(g)
    return _report(
        name,
        [
            lambda: _cubic_difference(f12, f23, g12, g23),
            lambda: _cubic_difference(g12, g23, f12, f23),
        ],
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
