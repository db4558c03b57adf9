"""The values of an operator sum as ints or int-keyed term dicts of ints.

A sum of products of operators (``cgybe.tensor._Sum``) scales each of its
operators and scalars by d, the lcm of its denominators, and the sum by
den, the lcm of the products of d over its words, so that every
coefficient it adds is an int: den times the sum's own coefficient.  It
packs its values in one of two forms, chosen from the scales of its
operators and scalars by :func:`form`:

* when none carries p, and no value is wider than ``WIDEST_INT_VALUE``,
  the q form: scale each operator and scalar also by q^−low, for low its
  least q exponent; its values are then polynomials in q with int
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
* otherwise term dicts of ints, each term q^a·p^b keyed by the one int
  a·base + b (:func:`encode_terms`, :func:`decode_terms`).

The q form's ints are dense: a value spanning s powers of q takes about
k·s bits, however few its terms, so a product of two wide ints costs more
than the term products it replaces.  The two forms differ only in how
they lay out a value; both add ints over the same den.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .laurent import LaurentQP

# Widest value, k·s bits, that the q form takes; a wider sum takes the
# term form, whose coefficients are ints over the same denominator.  ybe
# of alpha*P + beta*g at n = 10, alpha and beta of 3 int terms, costs as
# much on ints as on the term dicts near k·s = 1300 bits: 0.15 s on both
# at 16-bit coefficients and s = 21, 1.6 times the terms' cost at 1760
# bits, 6 times at 4305 bits (64-bit coefficients, |exponent| 10); below
# 900 bits the ints take 0.2-0.6 times the terms' cost.  2-core x86-64
# VM, Python 3.11.
WIDEST_INT_VALUE = 1024


def form(words, op_scale, gauge: bool) -> tuple[int | None, tuple[int, int, int], list]:
    """(base, (k, least, den), the start value of each word) of a sum
    whose words are given as (scalar, [(operator, place), ...]),
    ``op_scale(op)`` giving an operator's :func:`scale`.  The form, its
    digits and its base are read off the scales alone.

    A word is scaled by the product of its values' d; den is the lcm of
    the words' d, so every value of the sum is den times its coefficient,
    an int in either form.  Each word starts at its scalar times its own d
    and den over the word's d.  In the q form a word is also scaled by
    q^−low for the sum of its values' lows and starts at 2^(k·(its low −
    least)), least the least of the words' lows, so every int of the sum
    is den times the sum at q^−least, at q = 2^k.  C = Σ over words of the
    norm of its scalar times the norms of its factors, times den over its
    d, bounds every coefficient of a column (a placed factor has its
    operator's norm), and k is the least with 2^k > 2C.

    The q form, ``base`` None, when no scalar carries p, no operator either
    unless ``gauge`` is set, and no value is wider than
    ``WIDEST_INT_VALUE`` bits, k·span.  ``gauge`` says that every operator
    passes the gauge lemma, each of its entries one p exponent in every
    term: then the q form reads each operator's own values with p dropped,
    as :func:`encode` does, which are the values of the operator with p
    stripped.  Else the term form, with ``base``: a word multiplies at
    most m values, its scalar and its operators, so base = 2·(mB + 1) for
    the largest reach B of any scalar or operator lets the exponents of a
    product add as one int and read back; the operators keep their p
    there, and only den of the digits is read."""
    scales, lows, dens, norms = [], [], [], []
    span = scalar_reach = op_reach = 0
    for scalar, factors in words:
        scales.append(scale([{None: scalar}], None))
        low, d, norm, width, reach = scales[-1]
        span, scalar_reach = max(span, width), max(scalar_reach, reach)
        for op, _ in factors:
            op_low, op_d, op_norm, width, reach = op_scale(op)
            low, d, norm = low + op_low, d * op_d, norm * op_norm
            span, op_reach = max(span, width), max(op_reach, reach)
        lows.append(low)
        dens.append(d)
        norms.append(norm)
    den, least = lcm(*dens), min(lows)
    k = (2 * sum(norm * (den // d) for norm, d in zip(norms, dens)) + 1).bit_length()
    if not scalar_reach and (gauge or not op_reach) and k * span <= WIDEST_INT_VALUE:
        return None, (k, least, den), [
            encode(scalar._terms, low, d * (den // word_den), k) << k * (word_low - least)
            for (scalar, _), (low, d, *_), word_low, word_den in zip(words, scales, lows, dens)
        ]
    base = 2 * (max(len(word) + 1 for _, word in words) * max(scalar_reach, op_reach) + 1)
    return base, (k, least, den), [
        dict(encode_terms(scalar._terms, d * (den // word_den), base))
        for (scalar, _), (_, d, *_), word_den in zip(words, scales, dens)
    ]


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


def encode_terms(terms: dict, den: int, base: int) -> tuple:
    """``terms`` times den, as (a·base + b, int coefficient) for each term
    q^a·p^b."""
    return tuple((a * base + b, x.numerator * (den // x.denominator)) for (a, b), x in terms.items())


def decode_terms(raw: dict, base: int, den: int) -> LaurentQP:
    """The LaurentQP of a term dict divided by den, each key a·base + b
    read back as the exponents (a, b) for |b| < base/2."""
    half = base // 2
    terms = {}
    for key, x in raw.items():
        a, b = divmod(key + half, base)
        terms[a, b - half] = x if den == 1 else Fraction(x, den)
    return LaurentQP._trusted(terms)
