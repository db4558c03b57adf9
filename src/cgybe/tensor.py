"""Sparse linear operators on 2- and 3-fold tensor powers of an n-space.

Basis vectors of V⊗V and V⊗V⊗V are labelled by tuples of 1-based indices
(i, j) or (i, j, k) with each index in 1..n.  An operator stores only its
nonzero columns, ``{input: {output: value}}``: the image of each basis
input that has one.  Sparsity matters: the operators built downstream have
O(n^3) nonzero entries out of n^4, and their 3-fold lifts would be hopeless
dense with symbolic entries.  The column is the unit every algorithm reads:
a product f∘g adds, for each column of g, f's column at each of its
outputs; a lift copies whole columns; a 3-fold check applies 2-fold
columns to one input vector at a time; the translation lemma compares a
column with the one below it.

The values of an operator take one of two forms, recorded in ``den``:

* ``den`` is an int when every coefficient is a constant -- P, g, their
  lifts and products, any operator evaluated at a rational point.  Each
  value is then the int coefficient·den.  The constructor takes for
  ``den`` the lcm of the denominators; a sum keeps the one it worked over.
* ``den`` is None when q or p occurs in some coefficient.  Each value is
  then the :class:`~cgybe.laurent.LaurentQP` coefficient itself.

The form is chosen once, when an operator is built, and each coefficient
read out of it (entries, ``apply``, witnesses, equality, export) goes
through one helper that turns a stored value into a LaurentQP.

Operators are immutable values.  Composition, sums and scalar multiples
return new operators; ``f @ g`` is the operator product f∘g (g applied
first).

All of that arithmetic is one call of :func:`compose_sum`.  Each term is a
pair (f, g): an operator f adds f∘g, a scalar f (``int``, ``Fraction`` or
``LaurentQP``) adds f·g, read as (f·I)∘g for the diagonal operator f·I on
g's outputs.  So ``f + g`` is [(1, f), (1, g)], ``-f`` is [(-1, f)],
``s * f`` is [(s, f)] and the Yang-Baxter sum c12∘c23∘c12 − c23∘c12∘c23
is [(c12, c23∘c12), (c23, c12∘(−c23))].  When every operator and scalar
in the terms is constant, the sum adds int products over the lcm L of
its terms' denominators, with no exponent pairs, term dicts or
``Fraction`` arithmetic, and a sum that vanishes is exactly int 0.
Otherwise the sum is built one column at a time, one per input of a
right factor: every product of LaurentQP coefficients is added term by
term into one raw ``{(a, b): coeff}`` dict per output, with no LaurentQP
per product or partial sum, and each column is made canonical before the
next is read.  Both paths drop the entries that sum to zero and give the
same operator.
An equation is therefore checked without building its two sides or their
difference.

The 3-fold checks build no 3-fold operator at all.  :func:`_cubic_witness`
applies the words of a check, such as c12∘c23∘c12 − c23∘c12∘c23, right to
left to one input basis vector e_t at a time: a 2-fold factor at place 12
reads its column at (i, j) of each (i, j, k) and at place 23 its column
at (j, k), so no lift is stored.  The words that share a left factor are
summed before it is applied, as in a sum of products, and the walk stops
at the first input whose column does not vanish.

The public constructor validates its input (user code, JSON): the rank,
the arity and every index must be an ``int``, and a ``bool`` is not one.
It groups the entries by input and chooses the form.  Results built from
operators that are already valid (products, sums, differences, negations,
scalar multiples and the lifts) go through the private
``TensorOp._trusted`` instead and are not validated again.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .laurent import LaurentQP, as_laurent, rational_to_str

__all__ = ["TensorOp", "compose_sum", "lift12", "lift23", "endo_eq"]

Key = tuple[tuple[int, ...], tuple[int, ...]]
Witness = tuple[tuple[int, ...], tuple[int, ...], LaurentQP]
Columns = dict[tuple[int, ...], dict[tuple[int, ...], int | LaurentQP]]


class TensorOp:
    """Sparse endomorphism of the arity-fold tensor power of an n-space."""

    __slots__ = ("n", "arity", "_den", "_columns")

    def __init__(
        self,
        n: int,
        arity: int,
        entries: Mapping[Key, LaurentQP | Fraction | int] | None = None,
    ):
        if type(n) is not int or type(arity) is not int:
            raise TypeError(f"rank and arity must be int, got {n!r} and {arity!r}")
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        if arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {arity}")
        columns: dict = {}
        if entries:
            for (out, inp), coeff in entries.items():
                if not isinstance(coeff, LaurentQP):
                    coeff = LaurentQP.const(coeff)
                if coeff.is_zero():
                    continue
                out = tuple(out)
                inp = tuple(inp)
                if len(out) != arity or len(inp) != arity:
                    raise ValueError(f"entry {out}<-{inp} does not have arity {arity}")
                for idx in (*out, *inp):
                    if type(idx) is not int:
                        raise TypeError(f"index {idx!r} is not an int")
                    if not 1 <= idx <= n:
                        raise ValueError(f"index {idx} out of range 1..{n}")
                columns.setdefault(inp, {})[out] = coeff
        self.n = n
        self.arity = arity
        self._den, self._columns = _stored_form(columns)

    @classmethod
    def _trusted(cls, n: int, arity: int, den: int | None, columns: Columns) -> "TensorOp":
        """Operator adopting ``(den, columns)`` as they are, skipping ``__init__``.

        For results built from already-valid operators: every key is an
        arity-tuple with indices in 1..n, no column is empty and no value
        zero, and ``den`` follows the storage rule of the module docstring.
        The column dicts may be shared with other operators, so nothing
        writes to them once an operator holds them.
        """
        result = object.__new__(cls)
        result.n = n
        result.arity = arity
        result._den = den
        result._columns = columns
        return result

    def _entry_items(self):
        """((output, input), coefficient) for every stored entry."""
        den = self._den
        return (
            ((out, inp), _coeff(value, den))
            for inp, column in self._columns.items()
            for out, value in column.items()
        )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int, arity: int = 2) -> "TensorOp":
        return cls(n, arity)

    @classmethod
    def identity(cls, n: int, arity: int = 2) -> "TensorOp":
        entries = {
            (tpl, tpl): LaurentQP.one()
            for tpl in itertools.product(range(1, n + 1), repeat=arity)
        }
        return cls(n, arity, entries)

    # ------------------------------------------------------------------
    # structure

    @property
    def entries(self) -> Mapping[Key, LaurentQP]:
        """The nonzero entries keyed by (output, input), built on each read."""
        return MappingProxyType(dict(self._entry_items()))

    def is_zero(self) -> bool:
        return not self._columns

    def sorted_entries(self) -> list[tuple[Key, LaurentQP]]:
        """Entries sorted by (input tuple, output tuple)."""
        den, columns = self._den, self._columns
        return [
            ((out, inp), _coeff(columns[inp][out], den))
            for inp in sorted(columns)
            for out in sorted(columns[inp])
        ]

    def first_entry(self) -> Witness | None:
        """(input, output, coeff) of the entry with the smallest (input, output).

        None for the zero operator.  Applied to a difference it is the
        deterministic witness of an inequality.
        """
        if not self._columns:
            return None
        inp = min(self._columns)
        column = self._columns[inp]
        out = min(column)
        return inp, out, _coeff(column[out], self._den)

    def apply(self, *indices: int) -> dict[tuple[int, ...], LaurentQP]:
        """Image of the basis vector e_{i1}⊗...⊗e_{ik} as output tuple -> coefficient."""
        if len(indices) != self.arity:
            raise ValueError(f"expected {self.arity} indices, got {len(indices)}")
        for idx in indices:
            if type(idx) is not int:
                raise TypeError(f"index {idx!r} is not an int")
            if not 1 <= idx <= self.n:
                raise ValueError(f"index {idx} out of range 1..{self.n}")
        column = self._columns.get(indices, {})
        return {out: _coeff(value, self._den) for out, value in column.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorOp):
            return NotImplemented
        return (
            self.n == other.n
            and self.arity == other.arity
            and dict(self._entry_items()) == dict(other._entry_items())
        )

    __hash__ = None  # immutable values compared by coefficient; none is used as a key

    def __repr__(self) -> str:
        nnz = sum(map(len, self._columns.values()))
        return f"<TensorOp n={self.n} arity={self.arity} entries={nnz}>"

    # ------------------------------------------------------------------
    # algebra

    def _check_match(self, other: "TensorOp") -> None:
        if self.n != other.n or self.arity != other.arity:
            raise ValueError(
                f"operator mismatch: n={self.n},arity={self.arity} "
                f"vs n={other.n},arity={other.arity}"
            )

    def __add__(self, other: "TensorOp") -> "TensorOp":
        return compose_sum([(1, self), (1, other)])

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        return compose_sum([(1, self), (-1, other)])

    def __neg__(self) -> "TensorOp":
        return compose_sum([(-1, self)])

    def scale(self, scalar) -> "TensorOp":
        return compose_sum([(scalar, self)])

    def __rmul__(self, scalar) -> "TensorOp":
        if isinstance(scalar, (LaurentQP, Fraction, int)):
            return self.scale(scalar)
        return NotImplemented

    def compose(self, other: "TensorOp") -> "TensorOp":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return compose_sum([(self, other)])

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self.compose(other)

    def map_coeffs(self, fn) -> "TensorOp":
        """Apply fn to every coefficient, dropping entries that become zero."""
        return TensorOp(
            self.n,
            self.arity,
            {key: fn(coeff) for key, coeff in self._entry_items()},
        )

    def eval_at(self, qval: Fraction | int, pval: Fraction | int) -> "TensorOp":
        """Numeric specialization: every coefficient evaluated at (qval, pval)."""
        return self.map_coeffs(lambda c: LaurentQP.const(c.eval(qval, pval)))

    # ------------------------------------------------------------------
    # export

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "arity": self.arity,
            "entries": [
                {"out": list(out), "in": list(inp), "coeff": coeff.to_json_obj()}
                for (out, inp), coeff in self.sorted_entries()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TensorOp":
        entries = {
            (tuple(e["out"]), tuple(e["in"])): LaurentQP.from_json_obj(e["coeff"])
            for e in obj["entries"]
        }
        return cls(obj["n"], obj["arity"], entries)

    def basis_tuples(self) -> list[tuple[int, ...]]:
        """All basis labels in row-major order: (1,..,1), (1,..,2), ..."""
        return list(itertools.product(range(1, self.n + 1), repeat=self.arity))

    def _dense_rows(self, cell) -> list[list]:
        """Dense matrix of ``cell(coefficient)``, a missing entry read as zero.

        Row r is the flattened input tuple (row-major, 1-based), column c the
        flattened output tuple.  The one copy of the dense loop behind every
        dense export; row r reads the stored column at its input, so the
        cost is O(nnz + n^(2*arity)), and ``cell`` runs once per entry plus
        once for all the zero cells.
        """
        den = self._den
        blank = cell(LaurentQP.zero())
        basis = self.basis_tuples()
        rows = []
        for inp in basis:
            column = self._columns.get(inp, {})
            image = {out: cell(_coeff(value, den)) for out, value in column.items()}
            rows.append([image.get(out, blank) for out in basis])
        return rows

    def to_numeric_rows(self) -> list[list[Fraction]]:
        """Dense rational matrix of a numerically evaluated operator.

        Row r is the flattened input tuple (row-major, 1-based), column c the
        flattened output tuple.  Raises if any coefficient still contains q or p.
        """
        return self._dense_rows(LaurentQP.constant_value)

    def to_numeric_csv(self) -> str:
        """CSV rendering of :meth:`to_numeric_rows` with num/den cells."""
        rows = self._dense_rows(lambda coeff: rational_to_str(coeff.constant_value()))
        return "\n".join(",".join(row) for row in rows) + "\n"

    def to_latex(self) -> str:
        """Dense pmatrix; rows flatten input tuples, columns output tuples."""
        body = " \\\\\n".join(" & ".join(row) for row in self._dense_rows(LaurentQP.to_latex))
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"


def _coeff(value, den: int | None) -> LaurentQP:
    """The coefficient a stored value stands for: the value itself when
    ``den`` is None, else the LaurentQP of the nonzero value/den in
    canonical form, built without ``__init__``."""
    if den is None:
        return value
    if den != 1:
        value = Fraction(value, den)
        if value.denominator == 1:
            value = value.numerator
    coeff = object.__new__(LaurentQP)
    coeff._terms = {(0, 0): value}
    return coeff


def _stored_form(columns: Columns) -> tuple[int | None, Columns]:
    """``(den, columns)`` for nonempty columns of nonzero LaurentQP values.

    If every value is a constant, ``den`` is the lcm of their denominators
    and each value becomes the int value·den; otherwise ``den`` is None and
    the columns are kept.  The scan stops at the first value in which q or
    p occurs.
    """
    den = 1
    ints: dict = {}
    for inp, column in columns.items():
        int_column = ints[inp] = {}
        for out, coeff in column.items():
            terms = coeff._terms
            value = terms.get((0, 0))
            if value is None or len(terms) != 1:
                return None, columns
            if type(value) is not int and den % value.denominator:
                den = lcm(den, value.denominator)
            int_column[out] = value
    if den != 1:
        for int_column in ints.values():
            for out, value in int_column.items():
                int_column[out] = value.numerator * (den // value.denominator)
    return den, ints


def lift12(f: TensorOp) -> TensorOp:
    """f⊗Id: act as f on tensor factors (1,2), identity on factor 3."""
    if f.arity != 2:
        raise ValueError("lift12 expects an arity-2 operator")
    return _lift(f, lambda pair, m: (*pair, m))


def lift23(f: TensorOp) -> TensorOp:
    """Id⊗f: act as f on tensor factors (2,3), identity on factor 1."""
    if f.arity != 2:
        raise ValueError("lift23 expects an arity-2 operator")
    return _lift(f, lambda pair, m: (m, *pair))


def _lift(f: TensorOp, place) -> TensorOp:
    """The 3-fold operator whose column at place(inp, m) is f's column at
    inp with each output placed the same way, for every m; the values and
    ``den`` are f's."""
    lifted = {
        place(inp, m): {place(out, m): value for out, value in column.items()}
        for inp, column in f._columns.items()
        for m in range(1, f.n + 1)
    }
    return TensorOp._trusted(f.n, 3, f._den, lifted)


def _translation_invariant(f: TensorOp) -> bool:
    """True iff f passes the translation lemma: for every input inp with
    min index >= 2, the column at inp is the column at inp - (1, ..., 1)
    with each output index raised by 1, empty columns included.

    This implies the interval property, that every output index of an
    entry out <- inp lies in [min(inp), max(inp)]: shifting the input down
    to min index 1, or up to max index n, would carry an output index
    outside the interval below 1 or above n.  P, g, both Cremmer-Gervais
    matrices and their evaluations pass, since their entries depend only
    on index differences.  O(nnz).

    Only nonempty columns are stored: each must have one below it, and the
    column above it must be its shift, so no empty column is skipped.
    """
    columns = f._columns
    return all(
        (min(inp) == 1 or tuple(i - 1 for i in inp) in columns)
        and (
            max(inp) == f.n
            or columns.get(tuple(i + 1 for i in inp))
            == {tuple(i + 1 for i in out): value for out, value in column.items()}
        )
        for inp, column in columns.items()
    )


def _scalar_op(s, g: TensorOp) -> TensorOp:
    """s·I on g's outputs, so that a scalar term (s, g) is (s·I)∘g; the one
    place that reads the kind of a scalar (int, Fraction or LaurentQP).
    It takes the int form over the denominator of s when s and g are both
    constant, else the Laurent form with the one LaurentQP s as every
    value, even for a constant s: the sum then takes the Laurent kernel
    anyway, and this transient operator, outside the storage rule, never
    leaves :func:`compose_sum`.  A zero s gives no columns."""
    s = as_laurent(s)
    if g._den is not None and s.is_constant():
        value, den = s.constant_value().as_integer_ratio()
    else:
        value, den = s, None
    columns = {}
    if value:
        columns = {out: {out: value} for column in g._columns.values() for out in column}
    return TensorOp._trusted(g.n, g.arity, den, columns)


def _constant_sum(n: int, arity: int, pairs) -> TensorOp:
    """The sum of the ``(f, g)`` operator pairs that :func:`compose_sum`
    passes when every operator is in the int form, in plain int arithmetic
    over the lcm L of the terms' denominators den_f·den_g.

    Each term's factor L // (den_f·den_g) scales each value of g once, and
    is skipped when it is 1.  Each input column of the result accumulates
    ``{output: value * L}`` and drops its zeros, and the result keeps L as
    its ``den``.

    L is not reduced by the gcd of the result's values: 1/3 + 2/3 is held
    as 15 over 15 when the other term has denominator 5.  A result used as
    a factor of a further sum carries its L into that sum's denominator,
    so the stored ints grow with the depth of a chain of sums even when
    the entries are integral.  The checks chain at most three deep.
    """
    den = lcm(*(f._den * g._den for f, g in pairs))
    acc = {}
    for f, g in pairs:
        scale = den // (f._den * g._den)
        f_columns = f._columns
        for inp, g_column in g._columns.items():
            column = acc.get(inp)
            if column is None:
                column = acc[inp] = {}
            for mid, c_g in g_column.items():
                f_column = f_columns.get(mid)
                if f_column is None:
                    continue
                if scale != 1:
                    c_g *= scale
                for out, c_f in f_column.items():
                    column[out] = column.get(out, 0) + c_f * c_g
    columns = {}
    for inp, column in acc.items():
        kept = {out: value for out, value in column.items() if value}
        if kept:
            columns[inp] = kept
    return TensorOp._trusted(n, arity, den, columns)


def _laurent_columns(f: TensorOp) -> Columns:
    """f's columns with LaurentQP values: a constant f's ints go through
    :func:`_coeff`, once per sum that reads them."""
    den = f._den
    if den is None:
        return f._columns
    return {
        inp: {out: _coeff(value, den) for out, value in column.items()}
        for inp, column in f._columns.items()
    }


def _laurent_sum(n: int, arity: int, pairs) -> TensorOp:
    """The sum of the ``(f, g)`` operator pairs in LaurentQP arithmetic,
    one result column per input of a right factor, in first-seen order:
    c_f·c_g for f's column at each mid of g's column is added term by term
    into one raw dict per output.  A column's dicts are made ``_trusted``,
    and its zeros dropped, before the next input is read.  A result whose
    values are all constant takes the int form."""
    pairs = [(_laurent_columns(f), _laurent_columns(g)) for f, g in pairs]
    columns = {}
    for inp in dict.fromkeys(inp for _, g in pairs for inp in g):
        acc: dict = {}
        for f, g in pairs:
            g_column = g.get(inp)
            if g_column is None:
                continue
            for mid, c_g in g_column.items():
                f_column = f.get(mid)
                if f_column is None:
                    continue
                g_terms = c_g._terms.items()
                for out, c_f in f_column.items():
                    terms = acc.get(out)
                    if terms is None:
                        terms = acc[out] = {}
                    for (a1, b1), x in c_f._terms.items():
                        for (a2, b2), y in g_terms:
                            exps = (a1 + a2, b1 + b2)
                            terms[exps] = terms.get(exps, 0) + x * y
        column = {}
        for out, terms in acc.items():
            value = LaurentQP._trusted(terms)
            if value._terms:
                column[out] = value
        if column:
            columns[inp] = column
    return TensorOp._trusted(n, arity, *_stored_form(columns))


def compose_sum(terms) -> TensorOp:
    """The sum of ``terms``, each a pair (f, g) of an operator g and a left
    factor f: an operator f adds f∘g, a scalar f (int, Fraction or
    LaurentQP) adds f·g.

    No product, scalar multiple or partial sum is built as an operator.  A
    term of two operators is negated by negating one of them; negate the
    smaller.  All operators must share
    one rank and arity.  A term that is not a pair, or whose right factor
    is not an operator, raises TypeError.

    One pass validates each term, checks its shape and turns a scalar f
    into f·I (:func:`_scalar_op`).  The operator pairs are then summed by
    :func:`_constant_sum` if all are in the int form, else by
    :func:`_laurent_sum` (see the module docstring), with the same result.
    """
    pairs = []
    shape = None
    for term in terms:
        if not (isinstance(term, tuple) and len(term) == 2 and isinstance(term[1], TensorOp)):
            raise TypeError(f"a compose_sum term must be a pair (f, operator), got {term!r}")
        f, g = term
        if shape is None:
            shape = g
        shape._check_match(g)
        if isinstance(f, TensorOp):
            shape._check_match(f)
        else:
            f = _scalar_op(f, g)
        pairs.append((f, g))
    if shape is None:
        raise ValueError("compose_sum needs at least one term")
    if all(f._den is not None and g._den is not None for f, g in pairs):
        return _constant_sum(shape.n, shape.arity, pairs)
    return _laurent_sum(shape.n, shape.arity, pairs)


class _Factor(NamedTuple):
    """A 2-fold operator at place 12 or 23 of the words of a 3-fold check.
    A 3-fold code is pair·stride plus the code of the index the factor
    leaves alone: stride is n at place 12 and 1 at place 23.
    ``table[pair]`` lists (output pair·stride, value) for the operator's
    column at the pair.  ``den`` is the operator's in the int form and
    None in the Laurent form, where ``base`` is the check's exponent base
    (see :func:`_word_factors`)."""

    stride: int
    den: int | None
    base: int | None
    table: list


def _word_factors(*ops: TensorOp) -> list[dict[int, _Factor]]:
    """Each 2-fold operator of one 3-fold check as ``{12: factor, 23:
    factor}``, every value in the check's one form: the stored ints when
    every operator is in the int form, else the terms of a LaurentQP, which
    :func:`_laurent_columns` gives once per check.

    A 3-fold basis vector (i, j, k) is the row-major code
    ((i−1)·n + j−1)·n + k−1, and a pair (i, j) the code (i−1)·n + j−1, so
    codes sort as the tuples do and placing an output pair is one
    addition.  In the same way a term q^a·p^b is keyed by a·base + b, with
    base = 2·(3B + 1) for the largest |b| = B of any term, so that the
    exponents of a product of three terms add as one int and |b| < base/2
    still reads them back (:func:`_exponents`).
    """
    for op in ops:
        if op.arity != 2:
            raise ValueError(f"a 3-fold check takes arity-2 operators, got arity {op.arity}")
    laurent = any(op._den is None for op in ops)
    columns = [_laurent_columns(op) if laurent else op._columns for op in ops]
    base = None
    if laurent:
        bound = max(
            (
                abs(b)
                for cols in columns
                for column in cols.values()
                for value in column.values()
                for _, b in value._terms
            ),
            default=0,
        )
        base = 2 * (3 * bound + 1)
    factors = []
    for op, cols in zip(ops, columns):
        n = op.n
        den = None if laurent else op._den
        table12 = [[] for _ in range(n * n)]
        table23 = [[] for _ in range(n * n)]
        for (i, j), column in cols.items():
            pair = (i - 1) * n + j - 1
            for (o1, o2), value in column.items():
                if laurent:
                    value = tuple((a * base + b, x) for (a, b), x in value._terms.items())
                out = (o1 - 1) * n + o2 - 1
                table12[pair].append((out * n, value))
                table23[pair].append((out, value))
        factors.append({12: _Factor(n, den, base, table12), 23: _Factor(1, den, base, table23)})
    return factors


def _exponents(key: int, base: int) -> tuple[int, int]:
    """The exponents (a, b) of the term key a·base + b, for |b| < base/2."""
    half = base // 2
    a, b = divmod(key + half, base)
    return a, b - half


def _apply_ints(factor: _Factor, nn: int, vector: dict, acc: dict) -> None:
    """Add the factor's image of the int-valued ``vector`` into ``acc``,
    skipping zero values; ``nn`` is n²."""
    stride, table = factor.stride, factor.table
    for key, v in vector.items():
        if v:
            pair = key // stride % nn
            offset = key - pair * stride
            for out, c in table[pair]:
                out += offset
                acc[out] = acc.get(out, 0) + c * v


def _apply_terms(factor: _Factor, nn: int, vector: dict, acc: dict) -> None:
    """Add the factor's image of ``vector``, whose values are raw ``{term
    key: coeff}`` dicts, into ``acc`` term by term, skipping zero
    coefficients; ``nn`` is n²."""
    stride, table = factor.stride, factor.table
    for key, v in vector.items():
        v_terms = [item for item in v.items() if item[1]]
        if v_terms:
            pair = key // stride % nn
            offset = key - pair * stride
            for out, c_terms in table[pair]:
                out += offset
                terms = acc.get(out)
                if terms is None:
                    terms = acc[out] = {}
                for e1, x in c_terms:
                    for e2, y in v_terms:
                        e2 += e1
                        terms[e2] = terms.get(e2, 0) + x * y


def _cubic_witness(n: int, words, inputs) -> Witness | None:
    """The witness of a sum of 3-fold words, evaluated one input at a time.

    ``words`` lists ``(sign, left, [(middle, right), ...])``: the words
    sign·left∘middle∘right grouped by left factor, each factor from
    :func:`_word_factors`.  For each input t of ``inputs``, in the order
    given, the rightmost factors are applied to sign·e_t, each group's
    middle images are summed, and its left factor is applied to that sum,
    all into one accumulator; no lift or product operator is built.  The
    first t whose accumulated column has a nonzero entry gives the
    witness (t, its smallest such output, the coefficient there), and no
    input after it is read.  None when every column vanishes.

    In the int form a word's value is its coefficient times den, the
    product of its three factors' dens; every word of a check is
    homogeneous (each operator occurs equally often in each), so den is
    read off the first word.  In the Laurent form the values are raw term
    dicts, made canonical only for the witness.
    """
    _, left, [(middle, right), *_] = words[0]
    base = left.base
    laurent = base is not None
    den = None if laurent else left.den * middle.den * right.den
    apply = _apply_terms if laurent else _apply_ints
    nn = n * n
    for t in inputs:
        i, j, k = t
        code = ((i - 1) * n + j - 1) * n + k - 1
        acc: dict = {}
        for sign, left, pairs in words:
            start = {code: {0: sign} if laurent else sign}
            vector: dict = {}
            for middle, right in pairs:
                placed: dict = {}
                apply(right, nn, start, placed)
                apply(middle, nn, placed, vector)
            apply(left, nn, vector, acc)
        nonzero = [out for out, v in acc.items() if (any(v.values()) if laurent else v)]
        if nonzero:
            out = min(nonzero)
            pair, o3 = divmod(out, n)
            o1, o2 = divmod(pair, n)
            if laurent:
                terms = {_exponents(key, base): x for key, x in acc[out].items()}
                coeff = LaurentQP._trusted(terms)
            else:
                coeff = _coeff(acc[out], den)
            return t, (o1 + 1, o2 + 1, o3 + 1), coeff
    return None


def endo_eq(f: TensorOp, g: TensorOp):
    """Exact equality test with a deterministic counterexample.

    Returns (True, None) when f == g, else (False, (input, output, diff))
    where (input, output) is the lexicographically smallest differing entry
    and diff the nonzero coefficient of f - g there.
    """
    witness = compose_sum([(1, f), (-1, g)]).first_entry()
    return witness is None, witness
