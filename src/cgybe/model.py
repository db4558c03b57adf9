"""The concrete operators of the Cremmer-Gervais construction.

Everything here is generated by three integer-valued helper functions and
two basic operators:

* ``eta(i, j, k)`` is the signed indicator of the half-open interval
  between i and j: +1 when i <= k < j, -1 when j <= k < i, 0 otherwise.
  It equals ``step_u(k - i) - step_u(k - j)``.
* ``permutation_op(n)`` is the flip P: e_i⊗e_j -> e_j⊗e_i.
* ``g_op(n)`` acts by g(e_i⊗e_j) = sum_k eta(i,j,k) e_k ⊗ e_{i+j-k}.

The one-parameter R-matrix is alpha*P + beta*g; with alpha = q and
beta = q - q^-1 it is the Cremmer-Gervais solution of the Yang-Baxter
equation at p = 1.  ``cg_twisted_op`` builds the two-parameter family

    c(e_i⊗e_j) = q p^{i-j} e_j⊗e_i
                 + sum_k (q - q^-1) p^{i-k} eta(i,j,k) e_k ⊗ e_{i+j-k}

with both q and p symbolic, as G(cg_op(n, q, q - q^-1)).  The diagonal
gauge G multiplies each entry (a, b) <- (i, j) by p^{i-a}.  Substituting
p = 1 recovers cg_op(n, q, q - q^-1) exactly.

All constructors are pure and return immutable operators.  Each checks
its rank once, in :func:`_indices`, and adopts the columns it fills.
"""

from __future__ import annotations

from .laurent import LaurentQP, as_laurent, q
from .tensor import TensorOp, _gauged, _shape, compose_sum

__all__ = [
    "eta",
    "step_u",
    "kron_delta",
    "permutation_op",
    "g_op",
    "cg_op",
    "cg_twisted_op",
    "cg_inverse",
    "hecke_parameters",
]


def eta(i: int, j: int, k: int) -> int:
    """Signed interval indicator on all of Z^3: +1 if i<=k<j, -1 if j<=k<i, else 0."""
    if i <= k < j:
        return 1
    if j <= k < i:
        return -1
    return 0


def step_u(x: int) -> int:
    """Unit step: 1 for x >= 0, 0 for x < 0."""
    return 1 if x >= 0 else 0


def kron_delta(x: int) -> int:
    """Kronecker delta at zero."""
    return 1 if x == 0 else 0


def _indices(n: int) -> range:
    """1..n, once ``n`` passes the tensor constructor's check of a rank."""
    _shape(n, 2)
    return range(1, n + 1)


# Each builder fills columns {input: {output: value}} with no empty column
# and no zero value, and adopts them through TensorOp._trusted: int columns
# over the denominator 1 for permutation_op and g_op.


def permutation_op(n: int) -> TensorOp:
    """The flip P(e_i⊗e_j) = e_j⊗e_i."""
    indices = _indices(n)
    return TensorOp._trusted(n, 2, 1, {(i, j): {(j, i): 1} for i in indices for j in indices})


def g_op(n: int) -> TensorOp:
    """The operator g(e_i⊗e_j) = sum_k eta(i,j,k) e_k ⊗ e_{i+j-k}.

    Output pairs conserve the index sum i+j, so only k strictly between
    min(i,j) (inclusive) and max(i,j) (exclusive) contributes, and the
    second output index i+j-k automatically stays in 1..n.
    """
    indices = _indices(n)
    columns = {
        (i, j): {(k, i + j - k): eta(i, j, k) for k in range(min(i, j), max(i, j))}
        for i in indices
        for j in indices
        if i != j
    }
    return TensorOp._trusted(n, 2, 1, columns)


def cg_op(n: int, alpha: LaurentQP, beta: LaurentQP) -> TensorOp:
    """The one-parameter family alpha*P + beta*g on an n-space."""
    return compose_sum([(alpha, permutation_op(n)), (beta, g_op(n))])


def hecke_parameters() -> tuple[LaurentQP, LaurentQP]:
    """(alpha, beta) = (q, q - q^-1), the choice that makes cg_op Hecke."""
    return q, q - q**-1


def cg_twisted_op(n: int) -> TensorOp:
    """The two-parameter Cremmer-Gervais matrix with symbolic q and p:
    G(cg_op(n, q, q - q^-1)), G the gauge ``tensor._gauged``.

    c(e_i⊗e_j) = q p^{i-j} e_j⊗e_i
                 + sum_k (q - q^-1) p^{i-k} eta(i,j,k) e_k⊗e_{i+j-k}

    For i > j the k = j term merges with the flip term, turning its
    coefficient into q^-1 p^{i-j}.  Every entry (a, b) <- (i, j) keeps
    i + j and has p exponent i - a in each term, so the result passes the
    gauge lemma, and its ybe and hecke checks run in q alone on its own
    values with p dropped, those of cg_op(n, q, q - q^-1); no p-free copy
    is built (see ``tensor._witness``).
    """
    return _gauged(cg_op(n, *hecke_parameters()))


def cg_inverse(rmat: TensorOp, alpha: LaurentQP, beta: LaurentQP) -> TensorOp:
    """Closed-form inverse of R = alpha*P + beta*g.

    R satisfies R^2 = beta*R + alpha*(alpha-beta)*I, so whenever the scalar
    alpha*(alpha-beta) is a unit of the Laurent ring the inverse is
    (R - beta*I) / (alpha*(alpha-beta)).  The caller must pass the same
    (alpha, beta) the operator was built with.
    """
    alpha, beta = as_laurent(alpha), as_laurent(beta)
    if alpha == beta:
        raise ValueError("not invertible: alpha = beta")
    scalar = alpha * (alpha - beta)
    if not scalar.is_unit():
        raise ValueError(
            f"alpha*(alpha-beta) = {scalar} is not a unit of the Laurent ring; "
            "the closed-form inverse leaves the coefficient ring"
        )
    inverse = scalar.unit_inverse()
    return compose_sum([(inverse, rmat), (-beta * inverse,)])
