"""Exact Laurent-polynomial arithmetic in the two symbols q and p.

A value is a finite sum ``sum c[a, b] * q**a * p**b`` with rational
coefficients and integer (possibly negative) exponents.  Terms live in a
dict keyed by the exponent pair ``(a, b)``; zero coefficients are never
stored, so equality of term dicts is exactly equality of polynomials and
the zero polynomial is the empty dict.

Each coefficient has one canonical stored form: an ``int`` when its value
is an integer, a :class:`fractions.Fraction` with denominator > 1
otherwise.  Every operator the package builds lives in Z[q^±1, p^±1], so
the ring operations mostly add and multiply plain ints; a ``Fraction``
appears only through division (``unit_inverse`` of a coefficient other
than ±1), rational ``eval``/``subs_p`` points or rational input, and is
demoted back to ``int`` whenever a result is integral.

No floating point enters anywhere in this package, because every
downstream identity check relies on "this coefficient is zero" being an
exact statement.  This module owns the rule: an exact number is exactly
an ``int`` or a ``Fraction``, so a ``bool`` or any other ``int`` subclass
is not one.  :func:`_exact` is its one check, and every door applies it,
raising ``TypeError`` otherwise: coefficients, the other operand of a
ring operation, evaluation points (:func:`_point`), and through
:func:`as_laurent` the scalars of ``cgybe.tensor``; a ``**`` exponent is
exactly an ``int``.  JSON input takes a coefficient only as an integer
or a ``"num/den"`` string, and refuses a repeated (q, p) term.  One
repeated squaring, :func:`_power`, serves ``**`` and the CLI grammar.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterator, Mapping

__all__ = [
    "LaurentQP",
    "q",
    "p",
    "one",
    "zero",
    "as_laurent",
    "rational_to_str",
]

ExpPair = tuple[int, int]
Coeff = int | Fraction

_NUM_DEN = re.compile(r"-?[0-9]+/[1-9][0-9]*")


def rational_to_str(value: Coeff) -> str:
    """Canonical "num/den" string, denominator always present."""
    return f"{value.numerator}/{value.denominator}"


def _exact(value, what: str = "coefficients") -> Coeff:
    """An exact number (exactly an int, or a Fraction) in its stored form:
    int if integral, else Fraction.  Else TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"{what} must be int or Fraction, not {type(value).__name__}")


def _point(value) -> Fraction:
    """A nonzero exact evaluation point, as a Fraction."""
    value = Fraction(_exact(value, "evaluation points"))
    if not value:
        raise ValueError("evaluation points must be nonzero")
    return value


def _power(base, exponent: int, multiply):
    """base ** exponent by repeated squaring, each product made by
    ``multiply``; a negative exponent inverts the unit base first."""
    if exponent < 0:
        base, exponent = base.unit_inverse(), -exponent
    result = LaurentQP.one()
    while True:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if not exponent:
            return result
        base = multiply(base, base)


def _coeff_from_json(value) -> Coeff:
    """A JSON coefficient: an integer or a "num/den" string, nothing else."""
    if type(value) is int:
        return value
    if not isinstance(value, str):
        raise TypeError(f"JSON coefficient must be an integer or a num/den string: {value!r}")
    if not _NUM_DEN.fullmatch(value):
        raise ValueError(f"JSON coefficient string must read num/den: {value!r}")
    return Fraction(value)


def _ring_operation(method):
    """``method`` with its other operand passed through :func:`as_laurent`;
    an operand that is neither a LaurentQP nor an exact number gives
    NotImplemented, so that Python tries the operand's own method."""

    @functools.wraps(method)
    def operation(self, other):
        try:
            other = as_laurent(other)
        except TypeError:
            return NotImplemented
        return method(self, other)

    return operation


class LaurentQP:
    """Immutable sparse Laurent polynomial in q and p over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExpPair, Coeff] | None = None):
        normalized: dict[ExpPair, Coeff] = {}
        if terms:
            for (a, b), coeff in terms.items():
                if type(a) is not int or type(b) is not int:
                    raise TypeError(f"exponents must be int, got ({a!r}, {b!r})")
                coeff = _exact(coeff)
                if coeff:
                    normalized[(a, b)] = coeff
        self._terms = normalized

    @classmethod
    def _trusted(cls, acc: dict[ExpPair, Coeff]) -> "LaurentQP":
        """Value from an accumulator of int/Fraction sums, skipping ``__init__``.

        Ring operations and ``cgybe.tensor`` produce only int or Fraction
        values under int exponent keys, so only zeros and integral
        Fractions need fixing.
        """
        terms = {}
        for key, coeff in acc.items():
            if coeff:
                if type(coeff) is not int and coeff.denominator == 1:
                    coeff = coeff.numerator
                terms[key] = coeff
        result = object.__new__(cls)
        result._terms = terms
        return result

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentQP":
        return cls()

    @classmethod
    def one(cls) -> "LaurentQP":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, value: Coeff) -> "LaurentQP":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, coeff: Coeff, qexp: int = 0, pexp: int = 0) -> "LaurentQP":
        return cls({(qexp, pexp): coeff})

    # ------------------------------------------------------------------
    # structure

    def terms(self) -> dict[ExpPair, Coeff]:
        """Copy of the term dict, exponent pair -> nonzero coefficient."""
        return dict(self._terms)

    def items_sorted(self) -> list[tuple[ExpPair, Coeff]]:
        """Terms sorted by (q exponent, p exponent)."""
        return sorted(self._terms.items())

    def __iter__(self) -> Iterator[tuple[ExpPair, Coeff]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit(self) -> bool:
        """True iff the value is a single term, hence invertible in the ring."""
        return len(self._terms) == 1

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def constant_value(self) -> Coeff:
        """The value as a plain rational; raises if q or p actually occurs."""
        if not self._terms:
            return 0
        if set(self._terms) == {(0, 0)}:
            return self._terms[(0, 0)]
        raise ValueError(f"not a constant: {self}")

    def unit_inverse(self) -> "LaurentQP":
        """Inverse of a single-term value c*q^a*p^b, namely (1/c)*q^-a*p^-b."""
        if len(self._terms) != 1:
            raise ValueError(f"not a unit of the Laurent ring: {self}")
        ((a, b), coeff), = self._terms.items()
        return LaurentQP._trusted({(-a, -b): Fraction(1, coeff)})

    # ------------------------------------------------------------------
    # ring operations

    @_ring_operation
    def __add__(self, other) -> "LaurentQP":
        acc = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc[exps] = acc.get(exps, 0) + coeff
        return LaurentQP._trusted(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentQP":
        return LaurentQP._trusted({exps: -coeff for exps, coeff in self._terms.items()})

    @_ring_operation
    def __sub__(self, other) -> "LaurentQP":
        return self + -other

    @_ring_operation
    def __rsub__(self, other) -> "LaurentQP":
        return other + -self

    @_ring_operation
    def __mul__(self, other) -> "LaurentQP":
        acc: dict[ExpPair, Coeff] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return LaurentQP._trusted(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentQP":
        if type(exponent) is not int:
            return NotImplemented
        return _power(self, exponent, LaurentQP.__mul__)

    @_ring_operation
    def __eq__(self, other) -> bool:
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Constants hash like their int or Fraction so e.g. one() == 1 stays sane.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # evaluation and substitution

    def eval(self, qval: Coeff, pval: Coeff) -> Fraction:
        """Exact value at the point (qval, pval); both must be nonzero."""
        qval, pval = _point(qval), _point(pval)
        total = Fraction(0)
        for (a, b), coeff in self._terms.items():
            total += coeff * qval**a * pval**b
        return total

    def subs_p(self, pval: Coeff) -> "LaurentQP":
        """Substitute a nonzero rational for p, leaving q symbolic."""
        pval = _point(pval)
        acc: dict[ExpPair, Coeff] = {}
        for (a, b), coeff in self._terms.items():
            key = (a, 0)
            acc[key] = acc.get(key, 0) + coeff * pval**b
        return LaurentQP._trusted(acc)

    # ------------------------------------------------------------------
    # serialization and display

    def to_json_obj(self) -> list[dict]:
        """List of {"q": a, "p": b, "coeff": "num/den"}, sorted by (a, b)."""
        return [
            {"q": a, "p": b, "coeff": rational_to_str(coeff)}
            for (a, b), coeff in self.items_sorted()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "LaurentQP":
        """Inverse of ``to_json_obj``; a float exponent or coefficient, and
        a repeated (q, p) term, raise."""
        terms = {(term["q"], term["p"]): _coeff_from_json(term["coeff"]) for term in obj}
        if len(terms) != len(obj):
            raise ValueError("repeated (q, p) term in JSON input")
        return cls(terms)

    @staticmethod
    def _monomial_str(a: int, b: int, latex: bool) -> str:
        parts = []
        for sym, exp in (("q", a), ("p", b)):
            if exp == 0:
                continue
            if exp == 1:
                parts.append(sym)
            elif latex:
                parts.append(f"{sym}^{{{exp}}}")
            else:
                parts.append(f"{sym}^{exp}")
        return (" " if latex else "*").join(parts)

    def _render(self, latex: bool) -> str:
        if not self._terms:
            return "0"
        # Leading q-powers first for readability: q^2 - q^-2, not the reverse.
        chunks = []
        for (a, b), coeff in sorted(self._terms.items(), reverse=True):
            mono = self._monomial_str(a, b, latex)
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if mag.denominator == 1:
                coeff_str = str(mag.numerator)
            elif latex:
                coeff_str = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            else:
                coeff_str = f"{mag.numerator}/{mag.denominator}"
            if mono and coeff_str == "1":
                body = mono
            elif mono:
                body = f"{coeff_str} {mono}" if latex else f"{coeff_str}*{mono}"
            else:
                body = coeff_str
            chunks.append((sign, body))
        head_sign, head = chunks[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self._render(latex=False)

    def __repr__(self) -> str:
        return f"LaurentQP({self})"

    def to_latex(self) -> str:
        return self._render(latex=True)


def as_laurent(value: "LaurentQP | Coeff") -> LaurentQP:
    """Pass a LaurentQP through and make an exact number a constant
    polynomial; anything else raises TypeError (:func:`_exact`)."""
    if isinstance(value, LaurentQP):
        return value
    return LaurentQP.const(value)


q = LaurentQP.monomial(1, 1, 0)
p = LaurentQP.monomial(1, 0, 1)
one = LaurentQP.one()
zero = LaurentQP.zero()
