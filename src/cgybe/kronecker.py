"""The values of an operator sum as ints or int-keyed term dicts.

A sum of products of operators (``cgybe.tensor._Sum``) packs its values in
one of two forms, chosen from its operators and scalars by :func:`form`:

* when none carries p, the q form: scale each operator and scalar by
  q^−low and by d, for low its least q exponent and d the lcm of its
  denominators; its values are then polynomials in q with int
  coefficients, and each is one int at q = 2^k (:func:`encode`).  Under
  the gauge lemma the operators may carry p: the q form reads their own
  values with p dropped, and no p-stripped copy is built.
  Products and sums of those ints are the values of the products and sums
  of the polynomials.  When 2^k > 2C for a bound C on every coefficient
  of the sum, each coefficient is one balanced base-2^k digit,
  |digit| < 2^(k−1), so an int is zero exactly when its polynomial is,
  and :func:`decode` reads the polynomial back.  A constant operator
  or scalar has low 0 and span 0, so a sum of constants is a sum of its
  ints over one common denominator, each int one digit at q^0;
* otherwise term dicts, each term q^a·p^b keyed by the one int
  a·base + b (:func:`decode_terms`).

The q form's ints are dense: a value spanning s powers of q takes about
k·s bits, however few its terms.  When every coefficient is an int, a
product of two such ints costs more than the term products it replaces
once they are wide; with a ``Fraction`` anywhere, the term products are
``Fraction`` products, and the ints stay the cheaper.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .laurent import LaurentQP

# Widest value, k·s bits, that the q form takes when every coefficient is
# an int.  ybe of alpha*P + beta*g at n = 10, alpha and beta of 3 int terms,
# costs as much on ints as on the term dicts near k·s = 1300 bits: 0.15 s
# on both at 16-bit coefficients and s = 21, 1.6 times the terms' cost at
# 1760 bits, 6 times at 4305 bits (64-bit coefficients, |exponent| 10);
# below 900 bits the ints take 0.2-0.6 times the terms' cost.  2-core
# x86-64 VM, Python 3.11.
WIDEST_INT_VALUE = 1024


def form(words, op_scale, gauge: bool) -> tuple[int | None, tuple | None, list]:
    """(base, digits, the start value of each word) of a sum whose words
    are given as (scalar, [(operator, place), ...]), ``op_scale(op)``
    giving an operator's :func:`scale`.  The form and the base are read
    off the scales alone.  The q form, with ``digits`` = (k, least, den) of
    :func:`q_starts`, when no scalar carries p, no operator either unless
    ``gauge`` is set, and :func:`q_starts` takes it.  ``gauge`` says that
    every operator passes the gauge lemma, each of its entries one p
    exponent in every term: then the q form reads each operator's own
    values with p dropped, as :func:`encode` does, which are the values of
    the operator with p stripped.  Else the term form, with ``base``: a
    word multiplies at most m values, its scalar and its operators, so
    base = 2·(mB + 1) for the largest reach B of any scalar or operator
    lets the exponents of a product add as one int and read back; the
    operators keep their p there."""
    scalars = [scalar for scalar, _ in words]
    scales = [scale([{None: s}], None) for s in scalars]
    scalar_reach = max(s[4] for s in scales)
    op_reach = max(op_scale(op)[4] for _, factors in words for op, _ in factors)
    if not scalar_reach and (gauge or not op_reach):
        q_form = q_starts(words, scales, op_scale)
        if q_form is not None:
            return (None, *q_form)
    base = 2 * (max(len(word) + 1 for _, word in words) * max(scalar_reach, op_reach) + 1)
    return base, None, [{a * base + b: x for (a, b), x in s._terms.items()} for s in scalars]


def scale(columns, den: int | None) -> tuple[int, int, int, int, int]:
    """(low, d, norm, span, reach) of ``columns`` of values, dicts by
    output: stored ints over ``den``, or LaurentQP values when ``den`` is
    None.  low is the least q exponent (0 for no term), span the greatest
    less low, d the lcm of the denominators (``den`` for stored ints), norm
    the largest sum of |coefficient|·d over a column's outputs and terms,
    and reach the largest |p exponent|.  Only reach reads p, so an operator
    and its p-stripped copy under the gauge lemma have the same low, d,
    norm and span."""
    if den is not None:
        return 0, den, max((sum(map(abs, column.values())) for column in columns), default=0), 0, 0
    low = high = None
    den, reach = 1, 0
    for column in columns:
        for value in column.values():
            for (a, b), x in value._terms.items():
                if abs(b) > reach:
                    reach = abs(b)
                if low is None:
                    low = high = a
                elif a < low:
                    low = a
                elif a > high:
                    high = a
                if type(x) is not int and den % x.denominator:
                    den = lcm(den, x.denominator)
    if low is None:
        low = high = 0
    norm = max(
        (
            sum(abs(x.numerator) * (den // x.denominator) for v in c.values() for x in v._terms.values())
            for c in columns
        ),
        default=0,
    )
    return low, den, norm, high - low, reach


def q_starts(words, scales, op_scale) -> tuple[tuple[int, int, int], list[int]] | None:
    """((k, least, den), the start int of each word) for the words
    (scalar, [(operator, place), ...]) of a sum in q alone.  ``scales``
    holds each scalar's :func:`scale`, and ``op_scale(op)`` an operator's.
    None when every coefficient is an int and some value is wider than
    ``WIDEST_INT_VALUE`` bits, k·span.

    A word is scaled by the product of its values' d and by q^−low for the
    sum of their lows; den is the lcm of the words' d and least the least
    of their lows.  Each word starts at its scalar's int times den over its
    own d and times 2^(k·(its low − least)), so every int of the sum is den
    times the sum at q^−least, at q = 2^k.  C = Σ over words of the norm
    of its scalar times the norms of its factors, times den over its d,
    bounds every coefficient of a column (a placed factor has its
    operator's norm), and k is the least with 2^k > 2C."""
    lows, dens, norms, spans = [], [], [], []
    for (_, factors), (low, den, norm, span, _) in zip(words, scales):
        spans.append(span)
        for op, _ in factors:
            op_low, op_den, op_norm, op_span, _ = op_scale(op)
            low, den, norm = low + op_low, den * op_den, norm * op_norm
            spans.append(op_span)
        lows.append(low)
        dens.append(den)
        norms.append(norm)
    den, least = lcm(*dens), min(lows)
    k = (2 * sum(norm * (den // d) for norm, d in zip(norms, dens)) + 1).bit_length()
    if den == 1 and k * max(spans) > WIDEST_INT_VALUE:
        return None
    return (k, least, den), [
        encode(scalar._terms, low, d, k) * (den // word_den) << k * (word_low - least)
        for (scalar, _), (low, d, *_), word_low, word_den in zip(words, scales, lows, dens)
    ]


def encode(terms: dict, low: int, den: int, k: int) -> int:
    """``terms`` times den·q^−low, at q = 2^k, their p exponents dropped."""
    return sum(x.numerator * (den // x.denominator) << k * (a - low) for (a, _), x in terms.items())


def decode(raw: int, k: int, low: int, den: int) -> LaurentQP:
    """The polynomial whose int is ``raw``, divided by den·q^−low: the
    balanced base-2^k digits of ``raw``, the lowest the coefficient of
    q^low."""
    terms = {}
    half, mask = 1 << (k - 1), (1 << k) - 1
    while raw:
        digit = raw & mask
        if digit >= half:
            digit -= mask + 1
        if digit:
            terms[low, 0] = digit if den == 1 else Fraction(digit, den)
        raw = (raw - digit) >> k
        low += 1
    return LaurentQP._trusted(terms)


def decode_terms(raw: dict, base: int) -> LaurentQP:
    """The LaurentQP of a term dict, each key a·base + b read back as the
    exponents (a, b) for |b| < base/2."""
    half = base // 2
    terms = {}
    for key, x in raw.items():
        a, b = divmod(key + half, base)
        terms[a, b - half] = x
    return LaurentQP._trusted(terms)
