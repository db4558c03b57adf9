"""Exhaustive integer-window checks of the scalar identities behind the
operator-level proofs.

Each identity quantifies over all integers; the oracle checks it on every
tuple of a finite hyper-rectangle window, wide enough to exercise every
sign case of the differences involved.  All arithmetic is plain machine
integers (eta, the unit step and the delta are integer-valued), so a
check is exact and a single counterexample refutes the implementation.

``run_oracles(lo, hi, only, pad)`` is the one entry point: it runs every
identity, or the ones ``only`` names by canonical name or command-line
alias, on ``[lo, hi]^arity`` and returns one ``OracleReport`` each, sorted
by name.  All sixteen identities live in one registry table, ``_ORACLES``,
as a row (name, alias, arity, stage); each stage's docstring states its
identity.  ``oracle_names`` lists the canonical names.

Sums over an unbounded index are truncated to the support interval
[min, max) of the relevant eta factor; every summation helper takes a
``pad`` argument that widens the range on both sides so the truncation
itself can be tested: padding must never change any sum.

The scan works on packed rows.  Each identity is written as
``stage(rows, *prefix)``: called once per prefix (every coordinate but the
last, h), it returns lhs - rhs over every h of the window as one integer,
a row whose k-th field of ``rows.bits`` bits holds the residual at
h = lo + k (see ``_Rows``).  A factor (eta, the unit step or the delta)
whose arguments are affine in h becomes a row by one call per field, kept
in a bounded cache that lives as long as the scan; a product of two
factors is an AND of their +1/-1 masks, and a weight affine in h is one
multiply plus a masked copy of a packed ramp of h.  A sum becomes a list of
``(weight, index)`` terms of its prefix-only first factor over the padded
support, cached per scan by (x, y); terms of weight 0 are dropped, which
leaves an integer sum unchanged exactly.  ``_scan`` walks the prefixes in
lexicographic order and reports the lowest nonzero field of the first
nonzero residual, which is the lexicographically first failing tuple; each
field sums over exactly its own tuple's padded support, so reports,
counterexamples and padding semantics are those of a per-tuple check.  The
public summation helpers run the same row code on a one-field window, so
each sum has one implementation, and every factor goes through
``cgybe.model``.

``run_oracles`` refuses a selection whose windows, padding included, cost
more than ``MAX_WINDOW_TUPLES`` before it scans anything.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
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
    "run_oracles",
    "oracle_names",
    "DEFAULT_LO",
    "DEFAULT_HI",
    "MAX_WINDOW_TUPLES",
]

DEFAULT_LO = -3
DEFAULT_HI = 4

# Largest scan cost run_oracles accepts: per identity, one unit for each
# tuple plus 2*pad for each prefix, whose sums may walk that many padded
# terms.  The benchmark costs about 1e6 per pass.  All sixteen identities on
# [-8, 7] (7.6e6 tuples) take 3.7 s on a 2-core x86-64 VM with Python 3.11,
# so 1e7 takes about 5 s, while --lo -50 --hi 50 would ask for about 7e10.
MAX_WINDOW_TUPLES = 10**7

# what _scan calls once per prefix: stage(rows, *prefix) -> residual row
# (see _Rows), zero iff the identity holds for every last coordinate.
Stage = Callable[..., int]

# Fields of factor rows a scan caches in one generation (see _Rows).  One
# generation holds every row of the benchmark windows (at most 7360 rows of
# 10 fields, compat_coeffs on [-4, 5]).  On the widest windows the tuple cap
# admits, the process peaks up to about 13 MB higher than with no cache
# (compat_coeffs on [-11, 10]); a scan whose rows in use overflow it, such as
# g_idempotent on [-107, 107], rebuilds them, one call per field each.
_FIELDS_KEPT = 1 << 20

# Interval terms a scan caches.  The 5-ary sums reuse the lists of at most
# 625 window pairs; the lists of g_idempotent are used once each.
_TERMS_KEPT = 1 << 16


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


def _factor(fn: Callable[..., int], *args: int) -> int:
    """fn(*args), which must be -1, 0 or 1."""
    value = fn(*args)
    if value not in (-1, 0, 1):
        raise _not_a_factor(fn, args, value)
    return value


def _not_a_factor(fn: Callable[..., int], args: tuple, value) -> ValueError:
    # a value outside {-1, 0, 1} would spill across the fields of a row
    name = getattr(fn, "__name__", repr(fn))
    return ValueError(f"{name}{args} = {value!r}; a factor must be -1, 0 or 1")


class _Rows:
    """Packed rows over the last coordinate h in [lo, hi], cached for one scan.

    A row is an int whose field k, ``bits`` wide, holds a signed value at
    h = lo + k; it is the sum of value_k << (bits * k), so +, - and
    multiplication by a constant act on every field at once and exactly.
    With M = reach, the largest |coordinate| (max(|lo|, |hi|) in a scan),
    every residual field a stage forms is at most 16 * (M + pad + 1) in
    absolute value: the largest, zeta_closed_form, has a sum of at most
    2M + 2*pad terms of size 1 and six weights of size at most 2M + 1.
    ``bits`` is one more than the bit length of that bound, so each nonzero
    field is below 2**(bits - 1) in size and ``_scan`` finds the lowest one
    from the lowest set bit of the row.

    Factor arguments are affine forms c + b*h, written with the symbol
    ``h = 2**bits``; every constant c a stage forms (at most four
    coordinates and a summation index) is below the same bound, so each
    form decodes to one (c, b).  A factor row is cached as (plus, minus),
    the 0/1 masks of its +1 and -1 fields; a product of two factors is then
    an AND of masks, and a weight affine in h multiplies a masked copy of
    the packed ramp h - lo.
    """

    def __init__(self, lo: int, hi: int, pad: int, reach: int):
        bits = (16 * (reach + pad + 1)).bit_length() + 1
        self.lo, self.width, self.pad, self.bits = lo, hi - lo + 1, pad, bits
        self.h = 1 << bits
        self.ones = sum(1 << bits * k for k in range(self.width))
        self._ramp = sum(k << bits * k for k in range(self.width))  # h - lo
        self._full = (1 << bits) - 1
        # the binary digits of one field holding value + 1, by value
        self._digits = {v: format(v + 1, f"0{bits}b") for v in (-1, 0, 1)}
        # factor rows by function and arguments, in two generations of at
        # most _FIELDS_KEPT fields: a row found in the old generation moves to
        # the young one, and a full young generation becomes the old one, so
        # the rows in use stay while memory stays bounded
        self._young: defaultdict[Callable, dict[tuple, tuple[int, int]]] = defaultdict(dict)
        self._old: defaultdict[Callable, dict[tuple, tuple[int, int]]] = defaultdict(dict)
        self._room = self._generation = max(_FIELDS_KEPT // self.width, 1)
        # rows with equal masks share one tuple: a window has few mask shapes
        self._shapes: dict[tuple[int, int], tuple[int, int]] = {}
        # interval term lists by (x, y), emptied when they pass _TERMS_KEPT
        # terms
        self._intervals: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._terms_room = _TERMS_KEPT

    def pack(self, f: Callable[[int], int]) -> int:
        """The row of f(h), one call per field."""
        return sum(f(self.lo + k) << self.bits * k for k in range(self.width))

    def _affine(self, form: int) -> tuple[int, int]:
        """(c, b) with form = c + b * self.h."""
        b = (form + (self.h >> 1)) >> self.bits
        return form - (b << self.bits), b

    def _build(self, fn: Callable[..., int], args: tuple) -> tuple[int, int]:
        """Cache and return (plus, minus) of fn at the affine forms args."""
        signs = self._old[fn].pop(args, None)
        if signs is None:
            signs = self._signs(fn, args)
            signs = self._shapes.setdefault(signs, signs)
        if not self._room:
            self._old, self._young, self._shapes = self._young, defaultdict(dict), {}
            self._room = self._generation
        self._room -= 1
        self._young[fn][args] = signs
        return signs

    def _signs(self, fn: Callable[..., int], args: tuple) -> tuple[int, int]:
        """(plus, minus) of fn at the affine forms args, one call per field."""
        forms = [self._affine(form) for form in args]
        lo, hi = self.lo, self.lo + self.width
        columns = [
            range(c + b * lo, c + b * hi, b) if b else itertools.repeat(c, self.width)
            for c, b in forms
        ]
        values = list(map(fn, *columns))
        values.reverse()  # the highest field comes first in a binary string
        try:  # each field as value + 1, in two binary digits
            shifted = int("".join(map(self._digits.__getitem__, values)), 2)
        except KeyError:
            k = next(k for k, value in enumerate(reversed(values)) if value not in (-1, 0, 1))
            raise _not_a_factor(fn, tuple(c + b * (lo + k) for c, b in forms), values[-1 - k])
        plus = shifted >> 1 & self.ones
        minus = self.ones & ~(shifted | shifted >> 1)
        return plus, minus

    def value(self, fn: Callable[..., int], *args: int) -> int:
        """The row of fn at the affine forms args."""
        plus, minus = self._young[fn].get(args) or self._build(fn, args)
        return plus - minus

    def eta(self, x: int, y: int, z: int) -> int:
        return self.value(eta, x, y, z)

    def times(self, fn: Callable[..., int], first: tuple, second: tuple) -> int:
        """The row of fn(*first) * fn(*second)."""
        cache = self._young[fn]
        p, n = cache.get(first) or self._build(fn, first)
        q, m = cache.get(second) or self._build(fn, second)
        return ((p & q) | (n & m)) - ((p & m) | (n & q))

    def weigh(self, weight: int, fn: Callable[..., int], *args: int) -> int:
        """The row of weight * fn(*args) for an affine weight c + b*h."""
        c, b = self._affine(weight)
        plus, minus = self._young[fn].get(args) or self._build(fn, args)
        row = (c + b * self.lo) * (plus - minus)
        if b:
            full, ramp = self._full, self._ramp
            row += b * ((ramp & plus * full) - (ramp & minus * full))
        return row

    def interval(self, x: int, y: int) -> list[tuple[int, int]]:
        """``_interval_terms(x, y, pad)``, cached."""
        key = (x, y)
        terms = self._intervals.get(key)
        if terms is None:
            terms = _interval_terms(x, y, self.pad)
            self._terms_room -= len(terms) + 1
            if self._terms_room < 0:
                self._intervals.clear()
                self._terms_room = _TERMS_KEPT - len(terms) - 1
            self._intervals[key] = terms
        return terms


def _scan(name: str, window: IntWindow, stage: Stage, pad: int = 0) -> OracleReport:
    """Report the lexicographically first tuple that fails, or a pass.

    ``stage(rows, *prefix)`` runs once per prefix of ``arity - 1``
    coordinates and returns the residual row of the last coordinate.  Its
    lowest set bit lies in its lowest nonzero field; an OR of residuals
    keeps that, so a stage checking several equations returns the OR of
    their residuals.
    """
    rows = _Rows(window.lo, window.hi, pad, max(abs(window.lo), abs(window.hi)))
    values = range(window.lo, window.hi + 1)
    for prefix in itertools.product(values, repeat=window.arity - 1):
        residual = stage(rows, *prefix)
        if residual:
            field = (residual & -residual).bit_length() // rows.bits
            return OracleReport(name, window, False, (*prefix, window.lo + field))
    return OracleReport(name, window, True, None)


def _support(x: int, y: int, pad: int) -> range:
    """Summation range covering the support of eta(x, y, .), padded both sides.

    A negative pad would cut terms off the support, so it raises ValueError.
    """
    if pad < 0:
        raise ValueError(f"pad must not be negative, got {pad}")
    return range(min(x, y) - pad, max(x, y) + pad)


# ----------------------------------------------------------------------
# sums as rows: every sum is built here, for the scans and the helpers
# alike.  Arguments after rows are coordinates; c and h may be affine in
# rows.h.


def _interval_terms(x: int, y: int, pad: int) -> list[tuple[int, int]]:
    """(eta(x, y, a), a) for every a of the padded support with a nonzero weight."""
    return [(w, a) for a in _support(x, y, pad) if (w := _factor(eta, x, y, a))]


def _zeta_row(rows: _Rows, i: int, j: int, k: int, c: int, h: int) -> int:
    """zeta(i,j,k,c,h) = sum_a eta(j,k,a) * eta(i,a,c) * eta(i+a-c, j+k-a, h)."""
    jk = j + k
    total = 0
    for w, a in rows.interval(j, k):
        total += w * rows.times(eta, (i, a, c), (i + a - c, jk - a, h))
    return total


def _ybe_rhs_row(rows: _Rows, i: int, j: int, k: int, c: int, h: int) -> int:
    """sum_s eta(i,j,s) * eta(i+j-s, k, h+c-s) * eta(s, h+c-s, c)."""
    ij, hc = i + j, h + c
    total = 0
    for w, s in rows.interval(i, j):
        total += w * rows.times(eta, (ij - s, k, hc - s), (s, hc - s, c))
    return total


def _convolution_row(rows: _Rows, t: int, s: int, b: int, d: int, h: int) -> int:
    """sum_a eta(t, s, a) * eta(b+a, d-a, h)."""
    return sum(w * rows.eta(b + a, d - a, h) for w, a in rows.interval(t, s))


def _g_idem_row(rows: _Rows, i: int, j: int, l: int) -> int:
    """sum_k eta(i,j,k) * eta(k, i+j-k, l)."""
    ij = i + j
    return sum(w * rows.eta(k, ij - k, l) for w, k in rows.interval(i, j))


def _point(pad: int, *coords: int) -> _Rows:
    """Rows of the one-field window at the last coordinate."""
    return _Rows(coords[-1], coords[-1], pad, max(map(abs, coords)))


# ----------------------------------------------------------------------
# summation helpers (exposed so truncation soundness is testable)


def zeta(i: int, j: int, k: int, c: int, h: int, pad: int = 0) -> int:
    """sum_a eta(j,k,a) * eta(i,a,c) * eta(i+a-c, j+k-a, h)."""
    rows = _point(pad, i, j, k, c, h)
    return _zeta_row(rows, i, j, k, c, rows.h)


def ybe_coeff_rhs(i: int, j: int, k: int, c: int, h: int, pad: int = 0) -> int:
    """sum_s eta(i,j,s) * eta(i+j-s, k, h+c-s) * eta(s, h+c-s, c)."""
    rows = _point(pad, i, j, k, c, h)
    return _ybe_rhs_row(rows, i, j, k, c, rows.h)


def eta_interval_sum(b: int, c: int, pad: int = 0) -> int:
    """sum_a eta(b, c, a); equals c - b."""
    return sum(w for w, _ in _interval_terms(b, c, pad))


def eta_convolution(t: int, s: int, b: int, d: int, h: int, pad: int = 0) -> int:
    """sum_a eta(t, s, a) * eta(b+a, d-a, h)."""
    rows = _point(pad, t, s, b, d, h)
    return _convolution_row(rows, t, s, b, d, rows.h)


def g_idem_sum(i: int, j: int, l: int, pad: int = 0) -> int:
    """sum_k eta(i,j,k) * eta(k, i+j-k, l); equals eta(i,j,l)."""
    rows = _point(pad, i, j, l)
    return _g_idem_row(rows, i, j, rows.h)


# ----------------------------------------------------------------------
# staged identities: stage(rows, *prefix) -> residual row of the last
# coordinate, written as rows.h.  Each docstring states the identity over
# the tuple the scan walks; each stage binds rows.h to the name of its last
# coordinate.  Identities without a sum ignore rows.pad.


def _compat_coeffs(rows, i, j, k, a):
    """Coefficient form of the compatibility condition, over (i,j,k,a,b):

    eta(i,k,a+b-j)eta(j,a+b-j,a) + eta(i,j,b+a-k)eta(b+a-k,k,a)
        + eta(i,j,b)eta(i+j-b,k,a)
      = eta(i,k,a)eta(i+k-a,j,b) + eta(j,k,a)eta(i,j+k-a,b)
        + eta(j,k,j+k-b)eta(i,j+k-b,a)
    """
    b, times = rows.h, rows.times
    lhs = (
        times(eta, (i, k, a + b - j), (j, a + b - j, a))
        + times(eta, (i, j, b + a - k), (b + a - k, k, a))
        + times(eta, (i, j, b), (i + j - b, k, a))
    )
    rhs = (
        times(eta, (i, k, a), (i + k - a, j, b))
        + times(eta, (j, k, a), (i, j + k - a, b))
        + times(eta, (j, k, j + k - b), (i, j + k - b, a))
    )
    return lhs - rhs


def _step_identity(rows, a, b, i, j):
    """The five-variable unit-step identity, over (a,b,i,j,k):

    u(a+b-i-j)(u(a-j)+u(b-i)-u(b-j)-u(j-b)) + u(k-b)u(a+b-i-k)
      = u(a-i)(u(k-b)-u(j-b)-u(b-j)+u(b+a-i-k)) + u(b-i)u(a-j)
    """
    k, ones, times = rows.h, rows.ones, rows.times

    def u(x):  # a prefix-only factor
        return _factor(step_u, x)

    u_aj, u_bi, u_bj, u_jb = u(a - j), u(b - i), u(b - j), u(j - b)
    lhs = u(a + b - i - j) * (u_aj + u_bi - u_bj - u_jb) * ones
    lhs += times(step_u, (k - b,), (a + b - i - k,))
    rhs = u(a - i) * (
        rows.value(step_u, k - b) - (u_jb + u_bj) * ones + rows.value(step_u, b + a - i - k)
    )
    rhs += u_bi * u_aj * ones
    return lhs - rhs


def _eta_convolution(rows, t, s, b, d):
    """Closed form of the sliding-product sum, over (t,s,b,d,h):

    sum_a eta(t,s,a)eta(b+a,d-a,h) = (s-t)eta(b+t,d-t,h)
        + (d-h-s)eta(d-s,d-t,h) + (h-b-s+1)eta(b+t,b+s,h)
    """
    h = rows.h
    rhs = (
        (s - t) * rows.eta(b + t, d - t, h)
        + rows.weigh(d - h - s, eta, d - s, d - t, h)
        + rows.weigh(h - b - s + 1, eta, b + t, b + s, h)
    )
    return _convolution_row(rows, t, s, b, d, h) - rhs


def _zeta_closed_form(rows, i, j, k, c):
    """Closed form of zeta in six eta terms, over (i,j,k,c,h):

    zeta(i,j,k,c,h) = eta(j,k,c)((k-c-1)eta(i-c+k,j+k-c,h)
                        + (j-h)eta(j,j+k-c,h) + (h-i)eta(i,i+k-c,h))
                    + eta(i,j,c)((c-i+1)eta(i+j-c,i+k-c,h)
                        + (h-j)eta(i+j-c,j,h) + (k-h)eta(i+k-c,k,h))
    """
    h = rows.h
    eta_jkc, eta_ijc = _factor(eta, j, k, c), _factor(eta, i, j, c)
    rhs = 0
    if eta_jkc:
        rhs += eta_jkc * (
            (k - c - 1) * rows.eta(i - c + k, j + k - c, h)
            + rows.weigh(j - h, eta, j, j + k - c, h)
            + rows.weigh(h - i, eta, i, i + k - c, h)
        )
    if eta_ijc:
        rhs += eta_ijc * (
            (c - i + 1) * rows.eta(i + j - c, i + k - c, h)
            + rows.weigh(h - j, eta, i + j - c, j, h)
            + rows.weigh(k - h, eta, i + k - c, k, h)
        )
    return _zeta_row(rows, i, j, k, c, h) - rhs


def _ybe_coeffs(rows, i, j, k, c):
    """Coefficient form of the Yang-Baxter equation for g, over (i,j,k,c,h):

    sum_a eta(j,k,a)eta(i,a,c)eta(i+a-c,j+k-a,h)
      = sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c)
    """
    h = rows.h
    return _zeta_row(rows, i, j, k, c, h) - _ybe_rhs_row(rows, i, j, k, c, h)


def _zeta_symmetry(rows, i, j, k, c):
    """The right side of the Yang-Baxter coefficient identity is itself a
    zeta, over (i,j,k,c,h):

    sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c)
      = zeta(i+j-k, i, j, h+c-k, i+j-h)
    """
    # eta(i,j,.) is the first factor of both sides, so both sums walk the
    # one cached term list of (i, j).
    h = rows.h
    rhs = _zeta_row(rows, i + j - k, i, j, h + c - k, i + j - h)
    return _ybe_rhs_row(rows, i, j, k, c, h) - rhs


def _g_idempotent(rows, i, j):
    """The scalar identities behind g^2 = g and its companions, over (i,j,l):

    sum_k eta(i,j,k)eta(k,i+j-k,l) = eta(i,j,l)
    eta(j,i,l) = -eta(i,j,l)
    eta(i,j,i+j-l) = eta(i,j,l) + delta(l-j) - delta(l-i)
    """
    l = rows.h
    eta_ijl = rows.eta(i, j, l)
    deltas = rows.value(kron_delta, l - j) - rows.value(kron_delta, l - i)
    return (
        (_g_idem_row(rows, i, j, l) - eta_ijl)
        | (rows.eta(j, i, l) + eta_ijl)
        | (rows.eta(i, j, i + j - l) - eta_ijl - deltas)
    )


def _eta_translation(rows, a, b, c):
    """Translation invariance, over (a,b,c,d): eta(a+d,b+d,c+d) = eta(a,b,c)."""
    d = rows.h
    return rows.eta(a + d, b + d, c + d) - _factor(eta, a, b, c) * rows.ones


def _eta_antisymmetry(rows, a, b):
    """Antisymmetry, over (a,b,c): eta(a,b,c) = -eta(b,a,c)."""
    c = rows.h
    return rows.eta(a, b, c) + rows.eta(b, a, c)


def _eta_reflection(rows, a, b):
    """Reflection, over (a,b,c): eta(a,b,c) = eta(-b,-a,-c-1) = eta(a,b,a+b-c-1)."""
    c = rows.h
    eta_abc = rows.eta(a, b, c)
    return (eta_abc - rows.eta(-b, -a, -c - 1)) | (eta_abc - rows.eta(a, b, a + b - c - 1))


def _eta_delta_adjacent(rows, a):
    """The adjacent-interval delta, over (a,c): eta(a,a+1,c) = delta(a-c)."""
    c = rows.h
    return rows.eta(a, a + 1, c) - rows.value(kron_delta, a - c)


def _eta_interval_sum(rows, b):
    """The interval sum, over (b,c): sum_a eta(b,c,a) = c - b."""
    return rows.pack(lambda c: eta_interval_sum(b, c, rows.pad) - (c - b))


def _eta_cocycle(rows, a, b, c):
    """The cocycle rule, over (a,b,c,d): eta(a,b,d) + eta(b,c,d) = eta(a,c,d)."""
    d = rows.h
    return rows.eta(a, b, d) + rows.eta(b, c, d) - rows.eta(a, c, d)


def _eta_annihilation(rows, a, b):
    """Annihilation, over (a,b,c): eta(a,b+1,c)eta(c,a,b) = 0."""
    c = rows.h
    return rows.times(eta, (a, b + 1, c), (c, a, b))


def _eta_exchange(rows, a, b, c):
    """Exchange, over (a,b,c,d): eta(a,b,c)eta(c,b,d) = eta(a,b,d)eta(a,d+1,c)."""
    d = rows.h
    lhs = _factor(eta, a, b, c) * rows.eta(c, b, d)
    return lhs - rows.times(eta, (a, b, d), (a, d + 1, c))


def _eta_splitting(rows, a, b, c, d):
    """Splitting, over (a,b,c,d,e):

    eta(a,b,c)eta(d,c,e) = eta(a,b,c)eta(d,a,e) + eta(a,b,e)eta(e+1,b,c)
    """
    e = rows.h
    eta_abc = _factor(eta, a, b, c)
    return eta_abc * (rows.eta(d, c, e) - rows.eta(d, a, e)) - rows.times(
        eta, (a, b, e), (e + 1, b, c)
    )


# ----------------------------------------------------------------------
# registry: (name, command-line alias, arity, stage), the one table that
# run_oracles and oracle_names read.  ids1..ids9 are the nine elementary eta
# identities.

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

    Raises ValueError for an unknown or empty selection, an empty window, a
    negative pad, or a selection whose cost is above MAX_WINDOW_TUPLES: per
    identity, side**(arity - 1) * (side + 2*pad) with side = hi - lo + 1,
    the tuple count when pad is 0.  All before any scan starts.
    """
    if pad < 0:
        raise ValueError(f"pad must not be negative, got {pad}")
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
    total = sum(side ** (_BY_NAME[name][0] - 1) * (side + 2 * pad) for name in selected)
    if total > MAX_WINDOW_TUPLES:
        needs = f"padded by {pad} costs {total}" if pad else f"needs {total} tuples"
        raise ValueError(f"window [{lo},{hi}] {needs}, above the cap of {MAX_WINDOW_TUPLES}")
    reports = []
    for name in sorted(selected):
        arity, stage = _BY_NAME[name]
        reports.append(_scan(name, IntWindow(lo, hi, arity), stage, pad))
    return reports
