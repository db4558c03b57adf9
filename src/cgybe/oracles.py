"""Exhaustive integer-window checks of the scalar identities behind the
operator-level proofs.

Each identity quantifies over all integers; the oracle checks it on every
tuple of a finite hyper-rectangle window, wide enough to exercise every
sign case of the differences involved.  All arithmetic is plain machine
integers (eta, the unit step and the delta are integer-valued), so a
check is exact and a single counterexample refutes the implementation.

Sums over an unbounded index are truncated to the support interval
[min, max) of the relevant eta factor; every summation helper takes a
``pad`` argument that widens the range on both sides so the truncation
itself can be tested: padding must never change any sum.

The scan is staged.  Each identity is written as ``stage(pad, *prefix)``:
called once per prefix (every coordinate but the last), it evaluates the
factors that do not depend on the last coordinate and returns a predicate
of the last coordinate alone.  A sum becomes a list of ``(weight, ...)``
terms, where the weight is the product of the summand's prefix-only
factors, evaluated at every index of the padded support; terms of weight
0 are dropped, which leaves an integer sum unchanged exactly.  The scan
still walks ``[lo, hi]^arity`` in lexicographic order (prefix outer, last
coordinate inner) and checks every tuple, so reports, counterexamples and
padding semantics are those of a per-tuple check.  The public summation
helpers are built from the same term lists, so each sum has one
implementation, and every factor goes through ``cgybe.model``.

``run_oracles`` refuses a selection whose windows hold more than
``MAX_WINDOW_TUPLES`` tuples in total (about 15 s of scanning) before it
scans anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .model import eta, kron_delta, step_u

__all__ = [
    "IntWindow",
    "OracleReport",
    "zeta",
    "ybe_coeff_rhs",
    "eta_interval_sum",
    "eta_convolution",
    "g_idem_sum",
    "check_compat_coeffs",
    "check_step_identity",
    "check_eta_identities",
    "check_eta_convolution",
    "check_zeta_closed_form",
    "check_ybe_coeffs",
    "check_zeta_symmetry",
    "check_g_idempotent_identity",
    "run_oracles",
    "oracle_names",
    "DEFAULT_LO",
    "DEFAULT_HI",
    "MAX_WINDOW_TUPLES",
]

DEFAULT_LO = -3
DEFAULT_HI = 4

# Largest total tuple count run_oracles accepts.  The benchmark scans about
# 1e6 tuples per pass; 1e7 takes about 15 s, while --lo -50 --hi 50 would ask
# for about 7e10.
MAX_WINDOW_TUPLES = 10**7

# what _scan calls once per prefix: stage(*prefix) -> predicate of the last
# coordinate.  Registry entries take pad first; _check binds it.
Stage = Callable[..., Callable[[int], bool]]


@dataclass(frozen=True)
class IntWindow:
    """All integer tuples in [lo, hi]^arity, enumerated lexicographically."""

    lo: int
    hi: int
    arity: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")
        if self.arity < 1:
            raise ValueError(f"arity must be positive, got {self.arity}")

    def to_json_obj(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "arity": self.arity}


@dataclass
class OracleReport:
    """Outcome of one window check; passed is True iff counterexample is None."""

    name: str
    window: IntWindow
    passed: bool
    counterexample: tuple[int, ...] | None

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "window": self.window.to_json_obj(),
            "passed": self.passed,
            "counterexample": list(self.counterexample) if self.counterexample else None,
        }


def _scan(name: str, window: IntWindow, stage: Stage) -> OracleReport:
    """Report the lexicographically first tuple that fails, or a pass.

    ``stage(*prefix)`` runs once per prefix of ``arity - 1`` coordinates and
    returns the predicate of the last coordinate.
    """
    values = range(window.lo, window.hi + 1)
    for prefix in itertools.product(values, repeat=window.arity - 1):
        holds = stage(*prefix)
        for last in values:
            if not holds(last):
                return OracleReport(name, window, False, (*prefix, last))
    return OracleReport(name, window, True, None)


def _support(x: int, y: int, pad: int) -> range:
    """Summation range covering the support of eta(x, y, .), padded both sides."""
    return range(min(x, y) - pad, max(x, y) + pad)


# ----------------------------------------------------------------------
# term lists: every sum is built here, for the scans and the helpers alike


def _interval_terms(x: int, y: int, pad: int) -> list[tuple[int, int]]:
    """(eta(x, y, a), a) for every a of the padded support, zeros included."""
    return [(eta(x, y, a), a) for a in _support(x, y, pad)]


def _nonzero_interval_terms(x: int, y: int, pad: int) -> list[tuple[int, int]]:
    """The interval terms of nonzero weight, for sums whose other factors depend on more."""
    return [(w, a) for w, a in _interval_terms(x, y, pad) if w]


def _eta_sum(terms: list[tuple[int, int, int]], h: int) -> int:
    """sum of weight * eta(x, y, h) over the (weight, x, y) terms."""
    total = 0
    for w, x, y in terms:
        total += w * eta(x, y, h)
    return total


def _zeta_terms(
    first: list[tuple[int, int]], i: int, jk: int, c: int
) -> list[tuple[int, int, int]]:
    """zeta(i,j,k,c,.) as (weight, x, y) terms, given first = (eta(j,k,a), a)
    and jk = j + k: weight eta(j,k,a)eta(i,a,c), x = i+a-c, y = j+k-a."""
    return [(p, i + a - c, jk - a) for w, a in first if (p := w * eta(i, a, c))]


def _ybe_rhs_sum(first: list[tuple[int, int]], ij: int, k: int, c: int, h: int) -> int:
    """sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c), given first =
    (eta(i,j,s), s) and ij = i + j."""
    hc = h + c
    total = 0
    for w, s in first:
        second = eta(ij - s, k, hc - s)
        if second:
            total += w * second * eta(s, hc - s, c)
    return total


def _convolution_terms(t: int, s: int, b: int, d: int, pad: int) -> list[tuple[int, int, int]]:
    return [(w, b + a, d - a) for w, a in _nonzero_interval_terms(t, s, pad)]


def _g_idem_terms(i: int, j: int, pad: int) -> list[tuple[int, int, int]]:
    return [(w, k, i + j - k) for w, k in _nonzero_interval_terms(i, j, pad)]


# ----------------------------------------------------------------------
# summation helpers (exposed so truncation soundness is testable)


def zeta(i: int, j: int, k: int, c: int, h: int, pad: int = 0) -> int:
    """sum_a eta(j,k,a) * eta(i,a,c) * eta(i+a-c, j+k-a, h)."""
    return _eta_sum(_zeta_terms(_interval_terms(j, k, pad), i, j + k, c), h)


def ybe_coeff_rhs(i: int, j: int, k: int, c: int, h: int, pad: int = 0) -> int:
    """sum_s eta(i,j,s) * eta(i+j-s, k, h+c-s) * eta(s, h+c-s, c)."""
    return _ybe_rhs_sum(_nonzero_interval_terms(i, j, pad), i + j, k, c, h)


def eta_interval_sum(b: int, c: int, pad: int = 0) -> int:
    """sum_a eta(b, c, a); equals c - b."""
    return sum(w for w, _ in _interval_terms(b, c, pad))


def eta_convolution(t: int, s: int, b: int, d: int, h: int, pad: int = 0) -> int:
    """sum_a eta(t, s, a) * eta(b+a, d-a, h)."""
    return _eta_sum(_convolution_terms(t, s, b, d, pad), h)


def g_idem_sum(i: int, j: int, l: int, pad: int = 0) -> int:
    """sum_k eta(i,j,k) * eta(k, i+j-k, l); equals eta(i,j,l)."""
    return _eta_sum(_g_idem_terms(i, j, pad), l)


# ----------------------------------------------------------------------
# staged identities: stage(pad, *prefix) -> predicate of the last coordinate.
# Identities without a sum ignore pad.


def _compat_coeffs(pad, i, j, k, a):
    eta_ika, eta_jka = eta(i, k, a), eta(j, k, a)

    def holds(b):
        lhs = (
            eta(i, k, a + b - j) * eta(j, a + b - j, a)
            + eta(i, j, b + a - k) * eta(b + a - k, k, a)
            + eta(i, j, b) * eta(i + j - b, k, a)
        )
        rhs = (
            eta_ika * eta(i + k - a, j, b)
            + eta_jka * eta(i, j + k - a, b)
            + eta(j, k, j + k - b) * eta(i, j + k - b, a)
        )
        return lhs == rhs

    return holds


def _step_identity(pad, a, b, i, j):
    u = step_u
    lhs_rest = u(a + b - i - j) * (u(a - j) + u(b - i) - u(b - j) - u(j - b))
    u_ai = u(a - i)
    inner_rest = -u(j - b) - u(b - j)
    rhs_rest = u(b - i) * u(a - j)

    def holds(k):
        lhs = lhs_rest + u(k - b) * u(a + b - i - k)
        rhs = u_ai * (u(k - b) + inner_rest + u(b + a - i - k)) + rhs_rest
        return lhs == rhs

    return holds


def _eta_convolution(pad, t, s, b, d):
    terms = _convolution_terms(t, s, b, d, pad)

    def holds(h):
        rhs = (
            (s - t) * eta(b + t, d - t, h)
            + (d - h - s) * eta(d - s, d - t, h)
            + (h - b - s + 1) * eta(b + t, b + s, h)
        )
        return _eta_sum(terms, h) == rhs

    return holds


def _zeta_closed_form(pad, i, j, k, c):
    terms = _zeta_terms(_interval_terms(j, k, pad), i, j + k, c)
    eta_jkc, eta_ijc = eta(j, k, c), eta(i, j, c)

    def holds(h):
        rhs = 0
        if eta_jkc:
            rhs += eta_jkc * (
                (k - c - 1) * eta(i - c + k, j + k - c, h)
                + (j - h) * eta(j, j + k - c, h)
                + (h - i) * eta(i, i + k - c, h)
            )
        if eta_ijc:
            rhs += eta_ijc * (
                (c - i + 1) * eta(i + j - c, i + k - c, h)
                + (h - j) * eta(i + j - c, j, h)
                + (k - h) * eta(i + k - c, k, h)
            )
        return _eta_sum(terms, h) == rhs

    return holds


def _ybe_coeffs(pad, i, j, k, c):
    lhs = _zeta_terms(_interval_terms(j, k, pad), i, j + k, c)
    rhs = _nonzero_interval_terms(i, j, pad)
    return lambda h: _eta_sum(lhs, h) == _ybe_rhs_sum(rhs, i + j, k, c, h)


def _zeta_symmetry(pad, i, j, k, c):
    # eta(i,j,.) is the first factor of both sides: the rhs is
    # zeta(i+j-k, i, j, h+c-k, i+j-h), whose first factor is eta(i,j,a).
    first = _nonzero_interval_terms(i, j, pad)
    ij = i + j

    def holds(h):
        rhs = _eta_sum(_zeta_terms(first, ij - k, ij, h + c - k), ij - h)
        return _ybe_rhs_sum(first, ij, k, c, h) == rhs

    return holds


def _g_idempotent(pad, i, j):
    terms = _g_idem_terms(i, j, pad)

    def holds(l):
        eta_ijl = eta(i, j, l)
        return (
            _eta_sum(terms, l) == eta_ijl
            and eta(j, i, l) == -eta_ijl
            and eta(i, j, i + j - l) == eta_ijl + kron_delta(l - j) - kron_delta(l - i)
        )

    return holds


def _eta_translation(pad, a, b, c):
    eta_abc = eta(a, b, c)
    return lambda d: eta(a + d, b + d, c + d) == eta_abc


def _eta_antisymmetry(pad, a, b):
    return lambda c: eta(a, b, c) == -eta(b, a, c)


def _eta_reflection(pad, a, b):
    def holds(c):
        eta_abc = eta(a, b, c)
        return eta_abc == eta(-b, -a, -c - 1) and eta_abc == eta(a, b, a + b - c - 1)

    return holds


def _eta_delta_adjacent(pad, a):
    return lambda c: eta(a, a + 1, c) == kron_delta(a - c)


def _eta_interval_sum(pad, b):
    return lambda c: eta_interval_sum(b, c, pad) == c - b


def _eta_cocycle(pad, a, b, c):
    return lambda d: eta(a, b, d) + eta(b, c, d) == eta(a, c, d)


def _eta_annihilation(pad, a, b):
    return lambda c: eta(a, b + 1, c) * eta(c, a, b) == 0


def _eta_exchange(pad, a, b, c):
    eta_abc = eta(a, b, c)
    return lambda d: eta_abc * eta(c, b, d) == eta(a, b, d) * eta(a, d + 1, c)


def _eta_splitting(pad, a, b, c, d):
    eta_abc = eta(a, b, c)

    def holds(e):
        return eta_abc * eta(d, c, e) == eta_abc * eta(d, a, e) + eta(a, b, e) * eta(e + 1, b, c)

    return holds


# ----------------------------------------------------------------------
# registry: (name, command-line alias, arity, stage), the one table every
# entry point reads.  ids1..ids9 are the nine elementary eta identities.

_ORACLES: list[tuple[str, str, int, Stage]] = [
    ("compat_coeffs", "cond1", 5, _compat_coeffs),
    ("ybe_coeffs", "cond2", 5, _ybe_coeffs),
    ("step_identity", "uid", 5, _step_identity),
    ("eta_convolution", "prexi", 5, _eta_convolution),
    ("zeta_closed_form", "xi", 5, _zeta_closed_form),
    ("zeta_symmetry", "zeta_sym", 5, _zeta_symmetry),
    ("g_idempotent", "g_idem", 3, _g_idempotent),
    ("eta_translation", "ids1", 4, _eta_translation),
    ("eta_antisymmetry", "ids2", 3, _eta_antisymmetry),
    ("eta_reflection", "ids3", 3, _eta_reflection),
    ("eta_delta_adjacent", "ids4", 2, _eta_delta_adjacent),
    ("eta_interval_sum", "ids5", 2, _eta_interval_sum),
    ("eta_cocycle", "ids6", 4, _eta_cocycle),
    ("eta_annihilation", "ids7", 3, _eta_annihilation),
    ("eta_exchange", "ids8", 4, _eta_exchange),
    ("eta_splitting", "ids9", 5, _eta_splitting),
]

_BY_NAME = {name: (arity, stage) for name, _, arity, stage in _ORACLES}
_ALIASES = {alias: name for name, alias, _, _ in _ORACLES}


def _check(name: str, lo: int, hi: int, pad: int = 0) -> OracleReport:
    arity, stage = _BY_NAME[name]
    return _scan(name, IntWindow(lo, hi, arity), partial(stage, pad))


# ----------------------------------------------------------------------
# the checks


def check_compat_coeffs(lo: int = DEFAULT_LO, hi: int = DEFAULT_HI) -> OracleReport:
    """Coefficient form of the compatibility condition, over (i,j,k,a,b):

    eta(i,k,a+b-j)eta(j,a+b-j,a) + eta(i,j,b+a-k)eta(b+a-k,k,a)
        + eta(i,j,b)eta(i+j-b,k,a)
      = eta(i,k,a)eta(i+k-a,j,b) + eta(j,k,a)eta(i,j+k-a,b)
        + eta(j,k,j+k-b)eta(i,j+k-b,a)
    """
    return _check("compat_coeffs", lo, hi)


def check_step_identity(lo: int = DEFAULT_LO, hi: int = DEFAULT_HI) -> OracleReport:
    """The five-variable unit-step identity, over (a,b,i,j,k):

    u(a+b-i-j)(u(a-j)+u(b-i)-u(b-j)-u(j-b)) + u(k-b)u(a+b-i-k)
      = u(a-i)(u(k-b)-u(j-b)-u(b-j)+u(b+a-i-k)) + u(b-i)u(a-j)
    """
    return _check("step_identity", lo, hi)


def check_eta_identities(
    lo: int = DEFAULT_LO, hi: int = DEFAULT_HI, pad: int = 0, only: str | None = None
) -> list[OracleReport]:
    """The nine elementary eta identities, one report each.

    In order: translation invariance, antisymmetry, reflection, the
    adjacent-interval delta, the interval sum, the cocycle rule,
    annihilation, exchange, and splitting.
    """
    return [
        _check(name, lo, hi, pad)
        for name, alias, _, _ in _ORACLES
        if alias.startswith("ids") and only in (None, name)
    ]


def check_eta_convolution(
    lo: int = DEFAULT_LO, hi: int = DEFAULT_HI, pad: int = 0
) -> OracleReport:
    """Closed form of the sliding-product sum, over (t,s,b,d,h):

    sum_a eta(t,s,a)eta(b+a,d-a,h) = (s-t)eta(b+t,d-t,h)
        + (d-h-s)eta(d-s,d-t,h) + (h-b-s+1)eta(b+t,b+s,h)
    """
    return _check("eta_convolution", lo, hi, pad)


def check_zeta_closed_form(
    lo: int = DEFAULT_LO, hi: int = DEFAULT_HI, pad: int = 0
) -> OracleReport:
    """Closed form of zeta in six eta terms, over (i,j,k,c,h):

    zeta(i,j,k,c,h) = eta(j,k,c)((k-c-1)eta(i-c+k,j+k-c,h)
                        + (j-h)eta(j,j+k-c,h) + (h-i)eta(i,i+k-c,h))
                    + eta(i,j,c)((c-i+1)eta(i+j-c,i+k-c,h)
                        + (h-j)eta(i+j-c,j,h) + (k-h)eta(i+k-c,k,h))
    """
    return _check("zeta_closed_form", lo, hi, pad)


def check_ybe_coeffs(
    lo: int = DEFAULT_LO, hi: int = DEFAULT_HI, pad: int = 0
) -> OracleReport:
    """Coefficient form of the Yang-Baxter equation for g, over (i,j,k,c,h):

    sum_a eta(j,k,a)eta(i,a,c)eta(i+a-c,j+k-a,h)
      = sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c)
    """
    return _check("ybe_coeffs", lo, hi, pad)


def check_zeta_symmetry(
    lo: int = DEFAULT_LO, hi: int = DEFAULT_HI, pad: int = 0
) -> OracleReport:
    """The right side of the Yang-Baxter coefficient identity is itself a zeta:

    sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c)
      = zeta(i+j-k, i, j, h+c-k, i+j-h)
    """
    return _check("zeta_symmetry", lo, hi, pad)


def check_g_idempotent_identity(
    lo: int = DEFAULT_LO, hi: int = DEFAULT_HI, pad: int = 0
) -> OracleReport:
    """The scalar identities behind g^2 = g and its companions, over (i,j,l):

    sum_k eta(i,j,k)eta(k,i+j-k,l) = eta(i,j,l)
    eta(j,i,l) = -eta(i,j,l)
    eta(i,j,i+j-l) = eta(i,j,l) + delta(l-j) - delta(l-i)
    """
    return _check("g_idempotent", lo, hi, pad)


def oracle_names() -> list[str]:
    """Canonical check names, sorted."""
    return sorted(_BY_NAME)


def run_oracles(
    lo: int = DEFAULT_LO,
    hi: int = DEFAULT_HI,
    only: list[str] | None = None,
    pad: int = 0,
) -> list[OracleReport]:
    """Run all (or the selected) identity checks; reports sorted by name.

    Raises ValueError for an unknown or empty selection, an empty window,
    or windows holding more than MAX_WINDOW_TUPLES tuples in total; all
    before any scan starts.
    """
    if only is None:
        selected = set(_BY_NAME)
    else:
        if not only:
            raise ValueError("empty identity selection")
        selected = set()
        for raw in only:
            name = _ALIASES.get(raw, raw)
            if name not in _BY_NAME:
                raise ValueError(f"unknown identity check: {raw}")
            selected.add(name)
    side = max(hi - lo + 1, 0)  # IntWindow rejects an empty window below
    total = sum(side ** _BY_NAME[name][0] for name in selected)
    if total > MAX_WINDOW_TUPLES:
        raise ValueError(
            f"window [{lo},{hi}] needs {total} tuples, above the cap of {MAX_WINDOW_TUPLES}"
        )
    return [_check(name, lo, hi, pad) for name in sorted(selected)]
