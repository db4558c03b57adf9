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
as a row (name, alias, arity, packed, stage); each stage's docstring states
its identity.  ``oracle_names`` lists the canonical names.

Sums over an unbounded index are truncated to the support interval
[min, max) of the relevant eta factor; every summation helper takes a
``pad`` argument that widens the range on both sides so the truncation
itself can be tested: padding must never change any sum.

The scan works on packed rows.  Each identity is written as
``stage(rows, *prefix)``: called once per prefix (every coordinate but the
last ``packed`` ones), it returns lhs - rhs over every value of those as
one integer, a row of ``rows.bits``-bit fields (see ``_Rows``).  Most
stages pack the last two coordinates (g, h), so field k holds the residual
at (g, h) = (lo + k // side, lo + k % side); g_idempotent and
eta_interval_sum pack h alone, because the range of their sum depends on
the coordinate before it.  A factor (eta, the unit step or the delta) whose
arguments are affine in h becomes a row of one coordinate by one call per
field; a row in g and h is assembled from those, one per value of g.  Each
kind is kept in one cache that lives as long as the scan and is cleared
when full, at ``_FIELDS_KEPT`` fields.  A product of two
factors is an AND of their +1/-1 masks, and a weight affine in g and h is
one multiply plus masked copies of packed ramps of g and h.  A sum becomes
a list of ``(weight, index)`` terms of its prefix-only first factor over the
padded support; terms of weight 0 are dropped, which leaves an integer sum
unchanged exactly.  The 5-ary sums reuse their lists across prefixes, so a
scan keeps them by (x, y), at most side**2 of them; g_idempotent's pair
(i, j) is its whole prefix, so it builds each list once and keeps none.
``_scan`` walks the prefixes in lexicographic order and reports the lowest
nonzero field of the first nonzero residual, which is the lexicographically
first failing tuple; each field sums over exactly its own tuple's padded
support, so reports, counterexamples and padding semantics are those of a
per-tuple check.  The public summation helpers run the same row code on a
one-field window, and the eta_interval_sum scan sums each field through its
helper, so each sum has one implementation; every factor goes through
``cgybe.model``.

``run_oracles`` refuses a selection whose windows, padding included, cost
more than ``MAX_WINDOW_TUPLES`` before it scans anything; g_idempotent and
eta_interval_sum, which pack h alone, are charged their eta calls (see
``_cost``).
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
# terms, except eta_interval_sum and g_idempotent, which are charged their
# eta calls (see _cost).  The benchmark costs about 1e6 per pass.  All
# sixteen identities on [-8, 7] (7.6e6 tuples) take 0.9 s of CPU on a
# 2-core x86-64 VM with Python 3.11.  g_idempotent reads 2*side**2 distinct
# rows, more than the row cache holds (_FIELDS_KEPT // side) past side 101,
# so it is charged 2*(2*side**3 + (side**3 - side)/3 + 2*pad*side**2), twice
# its calls when no row is rebuilt.  The widest window it is admitted on,
# [-64, 63] (charge 9.8e6, 8.4e6 eta calls), takes 2.0-3.8 s of CPU on the
# same VM.  --lo -50 --hi 50 would ask for about 7e10.
MAX_WINDOW_TUPLES = 10**7

# what _scan calls once per prefix: stage(rows, *prefix) -> residual row
# (see _Rows), zero iff the identity holds at every value of the packed
# last coordinates.
Stage = Callable[..., int]

# Fields of factor rows a scan caches in each of its two caches: the rows of
# two coordinates and the rows of one they are assembled from (see _Rows).
# A full cache is cleared, and the rows in use are built again.  It holds
# every row of the benchmark windows (at most 2080 rows of 100 fields and
# 6360 of 10, compat_coeffs on [-4, 5]), so they never clear it.  On the
# widest windows the tuple cap admits, the process peaks up to about 11 MB
# higher than with a cache of one row (eta_antisymmetry on [-100, 99]).  A
# scan whose rows in use overflow it rebuilds them after each clear:
# g_idempotent on [-64, 63] one call per field each, ybe_coeffs on
# [-12, 12] (rows of 625 fields) one cached slice per g each.
_FIELDS_KEPT = 1 << 21


@dataclass(frozen=True)
class IntWindow:
    """All integer tuples in [lo, hi]^arity, enumerated lexicographically."""

    lo: int
    hi: int
    arity: int

    def __post_init__(self):
        _require_ints(lo=self.lo, hi=self.hi, arity=self.arity)
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")
        if self.arity < 1:
            raise ValueError(f"arity must be positive, got {self.arity}")

    def to_json_obj(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "arity": self.arity}


def _require_ints(**values) -> None:
    """Raise TypeError unless every value is an int; a bool is not one."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass
class OracleReport:
    """Outcome of one window check; passed is True iff counterexample is None."""

    name: str
    window: IntWindow
    counterexample: tuple[int, ...] | None

    passed = property(lambda self: self.counterexample is None)

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
    """Packed rows over the last one or two coordinates, cached for one scan.

    A row is an int of ``width`` fields, each ``bits`` wide, one per point
    of the packed coordinates.  With one packed coordinate h, field k holds
    the value at h = lo + k; with two, (g, h), field k = (g - lo)*side +
    (h - lo) holds the value at (g, h), so the fields run in lexicographic
    order of the tuple.  A row is the sum of value_k << (bits * k), so +, -
    and multiplication by a constant act on every field at once and
    exactly.  With M = reach, the largest |coordinate| (max(|lo|, |hi|) in
    a scan), every residual field a stage forms is at most
    16 * (M + pad + 1) in absolute value: the largest, zeta_closed_form, has
    a sum of at most 2M + 2*pad terms of size 1 and six weights of size at
    most 2M + 1.  ``bits`` is one more than the bit length of that bound,
    so each nonzero field is below 2**(bits - 1) in size and ``_scan``
    finds the lowest one from the lowest set bit of the row.

    Factor arguments are affine forms c + b_g*g + b_h*h, written with the
    symbols ``h = 2**bits`` and ``g = 2**(2*bits)``.  Every constant c a
    stage forms, also once a value of g is put in (at most four coordinates
    and a summation index), is below the same bound, so |c| < h/2; every
    coefficient b_g, b_h is at most 2 in size, and h >= 64.  So
    c + b_h*h is below g/2 in size and each form decodes to one
    (c, b_g, b_h): b_g from the form rounded to a multiple of g, then b_h
    from the rest rounded to a multiple of h.  A factor row is cached as
    (plus, minus), the 0/1 masks of its +1 and -1 fields; a product of two
    factors is then an AND of masks, and a weight affine in g and h
    multiplies masked copies of the packed ramps g - lo and h - lo.

    With two packed coordinates a factor row is assembled from rows of one
    coordinate, one slice per value of g: the row of the forms with that g
    put in, looked up in (or built into) the cache of an inner one-coordinate
    ``_Rows``.  A factor in h alone is one slice repeated, and one in g alone
    is the one-coordinate row over g spread over h.  So every value still
    comes from one call per field of a one-coordinate row.
    """

    def __init__(self, lo: int, hi: int, pad: int, reach: int, packed: int = 1):
        bits = (16 * (reach + pad + 1)).bit_length() + 1
        self.lo, self.side, self.pad, self.bits = lo, hi - lo + 1, pad, bits
        self.packed, self.width = packed, self.side**packed
        self.h, self.g = 1 << bits, 1 << 2 * bits
        line = sum(1 << bits * k for k in range(self.side))
        ramp = sum(k << bits * k for k in range(self.side))  # h - lo
        if packed == 1:
            self._line = None
            self.ones, self._ramp_h, self._ramp_g = line, ramp, 0
        else:  # the fields of one g are a line, stride bits from the next
            self._line = _Rows(lo, hi, pad, reach)
            self._stride = stride = bits * self.side
            self._lines = sum(1 << stride * k for k in range(self.side))  # 1 per g
            self.ones, self._ramp_h = line * self._lines, ramp * self._lines
            self._ramp_g = sum(k * line << stride * k for k in range(self.side))
        self._full = (1 << bits) - 1
        # the binary digits of one field holding value + 1, by value
        self._digits = {v: format(v + 1, f"0{bits}b") for v in (-1, 0, 1)}
        # factor rows by function and arguments, at most _FIELDS_KEPT fields
        # in all: a full cache is cleared, so memory stays bounded, and the
        # rows in use are built again as the scan asks for them
        self._cache: defaultdict[Callable, dict[tuple, tuple[int, int]]] = defaultdict(dict)
        self._room = self._kept = max(_FIELDS_KEPT // self.width, 1)
        # rows with equal masks share one tuple: a window has few mask shapes
        self._shapes: dict[tuple[int, int], tuple[int, int]] = {}
        # interval term lists by (x, y), kept for the whole scan.  A scan
        # asks only for pairs of window coordinates, so it holds at most
        # side**2 lists, each of fewer than side + 2*pad terms; a summation
        # helper asks for one
        self._intervals: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def pack(self, f: Callable[..., int]) -> int:
        """The row of f at each point (h) or (g, h), one call per field."""
        points = itertools.product(range(self.lo, self.lo + self.side), repeat=self.packed)
        return sum(f(*point) << self.bits * k for k, point in enumerate(points))

    def _split(self, form: int) -> tuple[int, int]:
        """(rest, b) with form = rest + b * self.g and rest free of g."""
        b = (form + (self.g >> 1)) >> 2 * self.bits
        return form - (b << 2 * self.bits), b

    def _affine(self, form: int) -> tuple[int, int]:
        """(c, b) with form = c + b * self.h, for a form free of g."""
        b = (form + (self.h >> 1)) >> self.bits
        return form - (b << self.bits), b

    def masks(self, fn: Callable[..., int], args: tuple) -> tuple[int, int]:
        """(plus, minus) of fn at the affine forms args, cached."""
        return self._cache[fn].get(args) or self._build(fn, args)

    def _build(self, fn: Callable[..., int], args: tuple) -> tuple[int, int]:
        """Cache and return (plus, minus) of fn at the affine forms args,
        clearing the cache first when it is full."""
        if not self._room:
            # in place, so the inner cache that _assemble holds stays current
            for cache in self._cache.values():
                cache.clear()
            self._shapes.clear()
            self._room = self._kept
        self._room -= 1
        signs = self._signs(fn, args) if self._line is None else self._assemble(fn, args)
        signs = self._cache[fn][args] = self._shapes.setdefault(signs, signs)
        return signs

    def _signs(self, fn: Callable[..., int], args: tuple) -> tuple[int, int]:
        """(plus, minus) of fn at the forms args in h, one call per field."""
        forms = [self._affine(form) for form in args]
        lo, top = self.lo, self.lo + self.side - 1
        # from the highest field down, as the digits of a binary string
        columns = [
            range(c + b * top, c + b * (lo - 1), -b) if b else itertools.repeat(c, self.side)
            for c, b in forms
        ]
        try:  # each field as value + 1, in two binary digits
            shifted = int("".join(map(self._digits.__getitem__, map(fn, *columns))), 2)
        except KeyError:  # name the lowest field outside {-1, 0, 1}
            for h in range(lo, top + 1):
                point = tuple(c + b * h for c, b in forms)
                if (value := fn(*point)) not in (-1, 0, 1):
                    raise _not_a_factor(fn, point, value) from None
            raise
        plus = shifted >> 1 & self.ones
        minus = self.ones & ~(shifted | shifted >> 1)
        return plus, minus

    def _assemble(self, fn: Callable[..., int], args: tuple) -> tuple[int, int]:
        """(plus, minus) of fn at the forms args in g and h, from one
        slice of the inner one-coordinate rows per value of g."""
        split = [self._split(form) for form in args]
        line, stride = self._line, self._stride
        if not any(b for _, b in split):  # in h alone: every slice is one row
            plus, minus = line.masks(fn, args)
            return plus * self._lines, minus * self._lines
        if not any(self._affine(rest)[1] for rest, _ in split):  # in g alone
            over_g = line.masks(fn, tuple(rest + b * self.h for rest, b in split))
            ones, bits = line.ones, self.bits
            return tuple(
                sum(ones << stride * k for k in range(self.side) if mask >> bits * k & 1)
                for mask in over_g
            )
        lo, hi = self.lo, self.lo + self.side
        columns = [
            range(rest + b * lo, rest + b * hi, b) if b else itertools.repeat(rest, self.side)
            for rest, b in split
        ]
        cache, plus, minus = line._cache[fn], 0, 0
        for shift, key in zip(range(0, stride * self.side, stride), zip(*columns)):
            p, m = cache.get(key) or line._build(fn, key)
            plus |= p << shift
            minus |= m << shift
        return plus, minus

    def value(self, fn: Callable[..., int], *args: int) -> int:
        """The row of fn at the affine forms args."""
        plus, minus = self.masks(fn, args)
        return plus - minus

    def eta(self, x: int, y: int, z: int) -> int:
        return self.value(eta, x, y, z)

    def _product(self, fn: Callable[..., int], first: tuple, second: tuple) -> tuple[int, int]:
        """(plus, minus) of fn(*first) * fn(*second)."""
        p, n = self.masks(fn, first)
        q, m = self.masks(fn, second)
        return (p & q) | (n & m), (p & m) | (n & q)

    def times(self, fn: Callable[..., int], first: tuple, second: tuple) -> int:
        """The row of fn(*first) * fn(*second)."""
        plus, minus = self._product(fn, first, second)
        return plus - minus

    def weigh(self, weight: int, fn: Callable[..., int], *factors: tuple) -> int:
        """The row of weight * fn(*first) [* fn(*second)] for the one or two
        argument tuples ``factors`` and an affine weight c + b_g*g + b_h*h:
        the constant times the row, plus b_h and b_g times the ramps of h
        and g under the masks spread to whole fields.  Every weight a stage
        passes has a g or an h term."""
        if len(factors) == 1:
            plus, minus = self.masks(fn, factors[0])
        else:
            plus, minus = self._product(fn, *factors)
        rest, b_g = self._split(weight)
        c, b_h = self._affine(rest)
        row = (c + (b_g + b_h) * self.lo) * (plus - minus)
        plus, minus = plus * self._full, minus * self._full
        if b_h:
            row += b_h * ((self._ramp_h & plus) - (self._ramp_h & minus))
        if b_g:
            row += b_g * ((self._ramp_g & plus) - (self._ramp_g & minus))
        return row

    def interval(self, x: int, y: int) -> list[tuple[int, int]]:
        """``_interval_terms(x, y, pad)``, cached."""
        terms = self._intervals.get((x, y))
        if terms is None:
            terms = self._intervals[x, y] = _interval_terms(x, y, self.pad)
        return terms


def _scan(
    name: str, window: IntWindow, stage: Stage, pad: int = 0, packed: int = 1
) -> OracleReport:
    """Report the lexicographically first tuple that fails, or a pass.

    ``stage(rows, *prefix)`` runs once per prefix of ``arity - packed``
    coordinates and returns the residual row of the last ``packed`` (one or
    two) coordinates.  Its lowest set bit lies in its lowest nonzero field;
    an OR of residuals keeps that, so a stage checking several equations
    returns the OR of their residuals.
    """
    lo, hi = window.lo, window.hi
    rows = _Rows(lo, hi, pad, max(abs(lo), abs(hi)), packed)
    for prefix in itertools.product(range(lo, hi + 1), repeat=window.arity - packed):
        residual = stage(rows, *prefix)
        if residual:
            field = (residual & -residual).bit_length() // rows.bits
            last = []
            for _ in range(packed):
                field, k = divmod(field, rows.side)
                last.append(lo + k)
            return OracleReport(name, window, (*prefix, *reversed(last)))
    return OracleReport(name, window, None)


# ----------------------------------------------------------------------
# sums as rows: every sum is built here, for the scans and the helpers
# alike.  Arguments after rows are coordinates; c and h may be affine in
# rows.h.


def _interval_terms(x: int, y: int, pad: int) -> list[tuple[int, int]]:
    """(eta(x, y, a), a) for every a of [min(x, y), max(x, y)), the support
    of eta(x, y, .), padded by pad on both sides, with a nonzero weight.

    A negative pad would cut terms off the support, so it raises ValueError.
    """
    if pad < 0:
        raise ValueError(f"pad must not be negative, got {pad}")
    support = range(min(x, y) - pad, max(x, y) + pad)
    return [(w, a) for a in support if (w := _factor(eta, x, y, a))]


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
    # the pair (i, j) is the whole prefix, so each list is read once: no memo
    ij = i + j
    return sum(w * rows.eta(k, ij - k, l) for w, k in _interval_terms(i, j, rows.pad))


def _point(pad: int, *coords: int) -> _Rows:
    """Rows of the one-field window at the last coordinate; TypeError when
    a coordinate or the pad is not an int (a bool is not one)."""
    _require_ints(pad=pad, **{f"coordinate {n}": x for n, x in enumerate(coords, 1)})
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
    _require_ints(b=b, c=c, pad=pad)
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
# coordinates, written as rows.g and rows.h.  Each docstring states the
# identity over the tuple the scan walks; each stage binds rows.h to the
# name of its last coordinate and, when it packs two, rows.g to the name of
# the one before.  Identities without a sum ignore rows.pad.


def _compat_coeffs(rows, i, j, k):
    """Coefficient form of the compatibility condition, over (i,j,k,a,b):

    eta(i,k,a+b-j)eta(j,a+b-j,a) + eta(i,j,b+a-k)eta(b+a-k,k,a)
        + eta(i,j,b)eta(i+j-b,k,a)
      = eta(i,k,a)eta(i+k-a,j,b) + eta(j,k,a)eta(i,j+k-a,b)
        + eta(j,k,j+k-b)eta(i,j+k-b,a)
    """
    a, b, times = rows.g, rows.h, rows.times
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


def _step_identity(rows, a, b, i):
    """The five-variable unit-step identity, over (a,b,i,j,k):

    u(a+b-i-j)(u(a-j)+u(b-i)-u(b-j)-u(j-b)) + u(k-b)u(a+b-i-k)
      = u(a-i)(u(k-b)-u(j-b)-u(b-j)+u(b+a-i-k)) + u(b-i)u(a-j)
    """
    j, k, times, u = rows.g, rows.h, rows.times, rows.value
    u_ai, u_bi = _factor(step_u, a - i), _factor(step_u, b - i)  # prefix-only
    abij = (a + b - i - j,)
    lhs = (
        times(step_u, abij, (a - j,))
        + u_bi * u(step_u, *abij)
        - times(step_u, abij, (b - j,))
        - times(step_u, abij, (j - b,))
        + times(step_u, (k - b,), (a + b - i - k,))
    )
    rhs = u_ai * (
        u(step_u, k - b) - u(step_u, j - b) - u(step_u, b - j) + u(step_u, b + a - i - k)
    )
    rhs += u_bi * u(step_u, a - j)
    return lhs - rhs


def _eta_convolution(rows, t, s, b):
    """Closed form of the sliding-product sum, over (t,s,b,d,h):

    sum_a eta(t,s,a)eta(b+a,d-a,h) = (s-t)eta(b+t,d-t,h)
        + (d-h-s)eta(d-s,d-t,h) + (h-b-s+1)eta(b+t,b+s,h)
    """
    d, h = rows.g, rows.h
    rhs = (
        (s - t) * rows.eta(b + t, d - t, h)
        + rows.weigh(d - h - s, eta, (d - s, d - t, h))
        + rows.weigh(h - b - s + 1, eta, (b + t, b + s, h))
    )
    return _convolution_row(rows, t, s, b, d, h) - rhs


def _zeta_closed_form(rows, i, j, k):
    """Closed form of zeta in six eta terms, over (i,j,k,c,h):

    zeta(i,j,k,c,h) = eta(j,k,c)((k-c-1)eta(i-c+k,j+k-c,h)
                        + (j-h)eta(j,j+k-c,h) + (h-i)eta(i,i+k-c,h))
                    + eta(i,j,c)((c-i+1)eta(i+j-c,i+k-c,h)
                        + (h-j)eta(i+j-c,j,h) + (k-h)eta(i+k-c,k,h))
    """
    c, h, weigh = rows.g, rows.h, rows.weigh
    jkc, ijc = (j, k, c), (i, j, c)
    return (
        _zeta_row(rows, i, j, k, c, h)
        - weigh(k - c - 1, eta, jkc, (i - c + k, j + k - c, h))
        - weigh(j - h, eta, jkc, (j, j + k - c, h))
        - weigh(h - i, eta, jkc, (i, i + k - c, h))
        - weigh(c - i + 1, eta, ijc, (i + j - c, i + k - c, h))
        - weigh(h - j, eta, ijc, (i + j - c, j, h))
        - weigh(k - h, eta, ijc, (i + k - c, k, h))
    )


def _ybe_coeffs(rows, i, j, k):
    """Coefficient form of the Yang-Baxter equation for g, over (i,j,k,c,h):

    sum_a eta(j,k,a)eta(i,a,c)eta(i+a-c,j+k-a,h)
      = sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c)
    """
    c, h = rows.g, rows.h
    return _zeta_row(rows, i, j, k, c, h) - _ybe_rhs_row(rows, i, j, k, c, h)


def _zeta_symmetry(rows, i, j, k):
    """The right side of the Yang-Baxter coefficient identity is itself a
    zeta, over (i,j,k,c,h):

    sum_s eta(i,j,s)eta(i+j-s,k,h+c-s)eta(s,h+c-s,c)
      = zeta(i+j-k, i, j, h+c-k, i+j-h)
    """
    # eta(i,j,.) is the first factor of both sides, so both sums walk the
    # one cached term list of (i, j).
    c, h = rows.g, rows.h
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


def _eta_translation(rows, a, b):
    """Translation invariance, over (a,b,c,d): eta(a+d,b+d,c+d) = eta(a,b,c)."""
    c, d = rows.g, rows.h
    return rows.eta(a + d, b + d, c + d) - rows.eta(a, b, c)


def _eta_antisymmetry(rows, a):
    """Antisymmetry, over (a,b,c): eta(a,b,c) = -eta(b,a,c)."""
    b, c = rows.g, rows.h
    return rows.eta(a, b, c) + rows.eta(b, a, c)


def _eta_reflection(rows, a):
    """Reflection, over (a,b,c): eta(a,b,c) = eta(-b,-a,-c-1) = eta(a,b,a+b-c-1)."""
    b, c = rows.g, rows.h
    eta_abc = rows.eta(a, b, c)
    return (eta_abc - rows.eta(-b, -a, -c - 1)) | (eta_abc - rows.eta(a, b, a + b - c - 1))


def _eta_delta_adjacent(rows):
    """The adjacent-interval delta, over (a,c): eta(a,a+1,c) = delta(a-c)."""
    a, c = rows.g, rows.h
    return rows.eta(a, a + 1, c) - rows.value(kron_delta, a - c)


def _eta_interval_sum(rows, b):
    """The interval sum, over (b,c): sum_a eta(b,c,a) = c - b."""
    return rows.pack(lambda c: eta_interval_sum(b, c, rows.pad) - (c - b))


def _eta_cocycle(rows, a, b):
    """The cocycle rule, over (a,b,c,d): eta(a,b,d) + eta(b,c,d) = eta(a,c,d)."""
    c, d = rows.g, rows.h
    return rows.eta(a, b, d) + rows.eta(b, c, d) - rows.eta(a, c, d)


def _eta_annihilation(rows, a):
    """Annihilation, over (a,b,c): eta(a,b+1,c)eta(c,a,b) = 0."""
    b, c = rows.g, rows.h
    return rows.times(eta, (a, b + 1, c), (c, a, b))


def _eta_exchange(rows, a, b):
    """Exchange, over (a,b,c,d): eta(a,b,c)eta(c,b,d) = eta(a,b,d)eta(a,d+1,c)."""
    c, d = rows.g, rows.h
    return rows.times(eta, (a, b, c), (c, b, d)) - rows.times(eta, (a, b, d), (a, d + 1, c))


def _eta_splitting(rows, a, b, c):
    """Splitting, over (a,b,c,d,e):

    eta(a,b,c)eta(d,c,e) = eta(a,b,c)eta(d,a,e) + eta(a,b,e)eta(e+1,b,c)
    """
    d, e = rows.g, rows.h
    eta_abc = _factor(eta, a, b, c)
    return eta_abc * (rows.eta(d, c, e) - rows.eta(d, a, e)) - rows.times(
        eta, (a, b, e), (e + 1, b, c)
    )


# ----------------------------------------------------------------------
# registry: (name, command-line alias, arity, packed, stage), the one table
# that run_oracles and oracle_names read.  ``packed`` is how many last
# coordinates one row of the stage covers: two, except where the range of a
# sum depends on the coordinate before the last (g_idempotent sums over
# interval(i, j), eta_interval_sum over the support of (b, c)).  ids1..ids9
# are the nine elementary eta identities.

_ORACLES: list[tuple[str, str, int, int, Stage]] = [
    ("compat_coeffs", "cond1", 5, 2, _compat_coeffs),
    ("ybe_coeffs", "cond2", 5, 2, _ybe_coeffs),
    ("step_identity", "uid", 5, 2, _step_identity),
    ("eta_convolution", "prexi", 5, 2, _eta_convolution),
    ("zeta_closed_form", "xi", 5, 2, _zeta_closed_form),
    ("zeta_symmetry", "zeta_sym", 5, 2, _zeta_symmetry),
    ("g_idempotent", "g_idem", 3, 1, _g_idempotent),
    ("eta_translation", "ids1", 4, 2, _eta_translation),
    ("eta_antisymmetry", "ids2", 3, 2, _eta_antisymmetry),
    ("eta_reflection", "ids3", 3, 2, _eta_reflection),
    ("eta_delta_adjacent", "ids4", 2, 2, _eta_delta_adjacent),
    ("eta_interval_sum", "ids5", 2, 1, _eta_interval_sum),
    ("eta_cocycle", "ids6", 4, 2, _eta_cocycle),
    ("eta_annihilation", "ids7", 3, 2, _eta_annihilation),
    ("eta_exchange", "ids8", 4, 2, _eta_exchange),
    ("eta_splitting", "ids9", 5, 2, _eta_splitting),
]

_BY_NAME = {name: (arity, packed, stage) for name, _, arity, packed, stage in _ORACLES}
_ALIASES = {alias: name for name, alias, *_ in _ORACLES}


def oracle_names() -> list[str]:
    """Canonical check names, sorted."""
    return sorted(_BY_NAME)


def _cost(name: str, side: int, pad: int) -> int:
    """What scanning ``name`` on a window of ``side`` values per coordinate
    with ``pad`` costs: side**(arity - 1) * (side + 2*pad), the tuple count
    when pad is 0.  The two identities that pack h alone, because the range
    of their sum depends on the coordinate before it, are charged their eta
    calls instead.  Each of the side**2 tuples (b, c) of eta_interval_sum
    sums over its own padded support of |c - b| + 2*pad values,
    (side**3 - side)/3 + 2*pad*side**2 in all.  g_idempotent makes the same
    interval calls for its pairs (i, j) and builds 2*side**2 distinct rows
    of side calls each: 2*side**3 calls while they fit the row cache, up to
    side 101.  Past that it rebuilds rows after each clear, which adds less
    than as many again up to side 128, so it is charged twice the calls of
    a scan that never clears, 2*(2*side**3 + (side**3 - side)/3 +
    2*pad*side**2), and side 129 is refused at any pad."""
    if name == "eta_interval_sum":
        return (side**3 - side) // 3 + 2 * pad * side**2
    if name == "g_idempotent":
        return 2 * (2 * side**3 + _cost("eta_interval_sum", side, pad))
    return side ** (_BY_NAME[name][0] - 1) * (side + 2 * pad)


def run_oracles(
    lo: int = DEFAULT_LO,
    hi: int = DEFAULT_HI,
    only: list[str] | None = None,
    pad: int = 0,
) -> list[OracleReport]:
    """Run all (or the selected) identity checks; reports sorted by name.

    Raises TypeError when lo, hi or pad is not an int (a bool is not one)
    or ``only`` is a bare str, and ValueError for an unknown or empty
    selection, an empty window, a negative pad, or a selection whose cost
    is above MAX_WINDOW_TUPLES: the sum over the identities of their
    ``_cost`` with side = hi - lo + 1, side**(arity - 1) * (side + 2*pad)
    for each but eta_interval_sum and g_idempotent, which are charged
    their eta calls.  All before any scan starts.
    """
    _require_ints(lo=lo, hi=hi, pad=pad)
    if isinstance(only, str):
        raise TypeError(f"only must be a list of identity names, not the str {only!r}")
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
    total = sum(_cost(name, side, pad) for name in selected)
    if total > MAX_WINDOW_TUPLES:
        needs = f"padded by {pad} costs {total}" if pad else f"costs {total}"
        raise ValueError(f"window [{lo},{hi}] {needs}, above the cap of {MAX_WINDOW_TUPLES}")
    reports = []
    for name in sorted(selected):
        arity, packed, stage = _BY_NAME[name]
        reports.append(_scan(name, IntWindow(lo, hi, arity), stage, pad, packed))
    return reports
