"""Exact construction and verification of Cremmer-Gervais R-matrices.

The package builds the flip P, the shift operator g, the one-parameter
family alpha*P + beta*g and the two-parameter (q, p) Cremmer-Gervais
matrix over an exact Laurent-polynomial ring, then verifies the
Yang-Baxter equation, the Hecke relation and every supporting scalar
identity symbolically, with no floating point anywhere.
"""

from .laurent import LaurentQP, as_laurent, one, p, q, zero
from .model import (
    cg_inverse,
    cg_op,
    cg_twisted_op,
    eta,
    g_op,
    hecke_parameters,
    kron_delta,
    permutation_op,
    step_u,
)
from .oracles import IntWindow, OracleReport, run_oracles, zeta
from .tensor import TensorOp, compose_sum, endo_eq, lift12, lift23
from .verify import (
    CheckReport,
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_mixed_conditions,
    check_quadratic,
    check_ybe,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentQP",
    "as_laurent",
    "q",
    "p",
    "one",
    "zero",
    "TensorOp",
    "compose_sum",
    "lift12",
    "lift23",
    "endo_eq",
    "eta",
    "step_u",
    "kron_delta",
    "permutation_op",
    "g_op",
    "cg_op",
    "cg_twisted_op",
    "cg_inverse",
    "hecke_parameters",
    "CheckReport",
    "check_ybe",
    "check_compatibility",
    "check_mixed_conditions",
    "check_hecke",
    "check_gp_relations",
    "check_quadratic",
    "IntWindow",
    "OracleReport",
    "zeta",
    "run_oracles",
]
