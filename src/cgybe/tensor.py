"""Sparse linear operators on 2- and 3-fold tensor powers of an n-space.

Basis vectors of V⊗V and V⊗V⊗V are labelled by tuples of 1-based indices
(i, j) or (i, j, k) with each index in 1..n.  An operator stores only its
nonzero columns, ``{input: {output: value}}``: the image of each basis
input that has one.  Sparsity matters: the operators built downstream have
O(n^3) nonzero entries out of n^4, and their 3-fold lifts would be hopeless
dense with symbolic entries.  The column is the unit every algorithm reads:
a sum applies its factors' columns to one input vector at a time, so a
product f∘g adds f's column at each output of a column of g; a lift copies
whole columns; the translation lemma compares a column with the one below
it.

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
``LaurentQP``) adds f·g.  So ``f + g`` is [(1, f), (1, g)], ``-f`` is
[(-1, f)], ``s * f`` is [(s, f)] and the Yang-Baxter sum
c12∘c23∘c12 − c23∘c12∘c23 is [(c12, c23∘c12), (c23, c12∘(−c23))].

Every sum, of :func:`compose_sum` and of every check, is evaluated by one
kernel, :class:`_Sum`, one input column at a time: for an input basis
vector e_t its words are applied right to left to e_t, a scalar of a word
scaling the start vector, and the words that share a left factor are
summed before it is applied.  A factor reads its operator's column at the
input's digits in its place: all of them for an operator of the sum's
arity, and (i, j) of (i, j, k) for a 2-fold operator at place 12 of a
3-fold word, (j, k) at place 23.  So no lift, product or scalar multiple
is built.  :func:`compose_sum` keeps the column at every input of a right
factor; a check keeps only the first nonzero one (:func:`_witness`).
When every operator and scalar of the sum is constant the kernel adds int
products over one common denominator, with no exponent pairs or
``Fraction`` arithmetic; otherwise it adds the terms of LaurentQP
coefficients into one raw dict per output.  An equation is therefore
checked without building its two sides or their difference.

The public constructor validates its input (user code, JSON): the rank,
the arity and every index must be an ``int``, and a ``bool`` is not one.
It groups the entries by input and chooses the form.  Results built from
operators that are already valid (products, sums, differences, negations,
scalar multiples and the lifts) go through the private
``TensorOp._trusted`` instead and are not validated again.
"""

from __future__ import annotations

import functools
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


def compose_sum(terms) -> TensorOp:
    """The sum of ``terms``, each a pair (f, g) of an operator g and a left
    factor f: an operator f adds f∘g, a scalar f (int, Fraction or
    LaurentQP) adds f·g.

    No product, scalar multiple or partial sum is built as an operator.  A
    term of two operators is negated by negating one of them; negate the
    smaller.  All operators must share one rank and arity.  A term that is
    not a pair, or whose right factor is not an operator, raises TypeError.

    Each term is one word of a :class:`_Sum`, a scalar f the start value
    of its word, so no f·I is built.  The result holds the sum's column at
    each input of a right factor, in first-seen order, and keeps the sum's
    ``den``; a Laurent sum whose values are all constant takes the int
    form.
    """
    words, rights = [], []
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
            words.append((f, [(1, g)]))
        else:
            words.append((None, [(f, g)]))
        rights.append(g)
    if shape is None:
        raise ValueError("compose_sum needs at least one term")
    total = _Sum(shape.n, shape.arity, words)
    columns = {}
    for inp in dict.fromkeys(inp for g in rights for inp in g._columns):
        column = total.column(inp)
        if column:
            columns[inp] = column if total.base is None else {
                out: total.value(raw) for out, raw in column.items()
            }
    if total.den is None:
        return TensorOp._trusted(shape.n, shape.arity, *_stored_form(columns))
    return TensorOp._trusted(shape.n, shape.arity, total.den, columns)


def _witness(n: int, arity: int, words, inputs, tables: dict) -> Witness | None:
    """The witness of the :class:`_Sum` of ``words``, walked one input at a
    time: the first t of ``inputs``, in the order given, whose column has a
    nonzero entry gives (t, its smallest such output, the coefficient
    there), and no input after it is read.  None when every column
    vanishes.  ``tables`` keeps the packed factors for further sums over
    the same operators."""
    total = _Sum(n, arity, words, tables)
    for t in inputs:
        column = total.column(t)
        if column:
            out = min(column)
            return t, out, _coeff(total.value(column[out]), total.den)
    return None


class _Factor(NamedTuple):
    """An operator placed in the words of a :class:`_Sum`.  A basis vector
    is the row-major code of its index tuple, whose base-n digits are the
    indices − 1, so codes sort as the tuples do.  The operator acts on
    ``arity`` of those digits from ``stride`` up: on all of them at stride
    1, and a 2-fold operator on a 3-fold code at place 12 at stride n and
    at place 23 at stride 1.  ``table[c]`` lists (output code·stride,
    value) for the operator's column at input code c, one of ``size``."""

    stride: int
    size: int
    table: list


def _placed(factor) -> tuple[TensorOp, int]:
    """A factor of a :class:`_Sum` word as (operator, stride)."""
    return (factor, 1) if isinstance(factor, TensorOp) else factor


@functools.lru_cache(maxsize=8)
def _basis(n: int, arity: int) -> tuple[list, dict]:
    """(the index tuples in code order, their codes) of the arity-fold basis
    of an n-space; see :class:`_Factor`.  Cached, so every caller shares
    them and none may write to them."""
    tuples = list(itertools.product(range(1, n + 1), repeat=arity))
    return tuples, {t: code for code, t in enumerate(tuples)}


class _Sum:
    """A signed sum of operator products, packed to be evaluated one input
    column at a time; every check and every :func:`compose_sum` is one.

    ``words`` lists groups ``(left, chains)``, the words left∘chain for
    each chain, which share the left factor (None for none).  A chain is
    ``(scalar, right)`` or ``(scalar, middle, right)``, whose factors apply
    right to left to scalar·e_t.  A factor is an operator of the sum's
    arity, or a pair (operator, stride) that places a 2-fold one in a
    3-fold word (see :class:`_Factor`).  :meth:`column` applies each chain to its start
    vector, sums a group's chains and applies the group's left factor to
    that sum, all into one accumulator; no lift or product operator is
    built.  Each operator is packed once per place and form into
    ``tables``, which sums over the same live operators may share.

    Every value of the sum takes one form, chosen from its operators and
    scalars:

    * when all are constant, ints over ``den``, the lcm of the words'
      denominators, each the product of its scalar's and its operators'
      dens.  A word starts at its scalar's numerator times ``den`` over its
      own, so no ``Fraction`` is built.  ``den`` is not reduced by the gcd
      of the values: 1/3 + 2/3 is held as 15 over 15 when another word has
      denominator 5, and a result used as a factor of a further sum carries
      its den into that sum's;
    * otherwise raw term dicts ``{a·base + b: coeff}`` for the terms
      q^a·p^b, and ``den`` is None.  A word multiplies at most k values,
      its scalar and its operators, so base = 2·(kB + 1) for the largest
      |b| = B of any term lets the exponents of a product add as one int
      and read back (:meth:`value`).  Equal operator values share one
      packed tuple of terms.
    """

    __slots__ = ("den", "base", "basis", "codes", "words")

    def __init__(self, n: int, arity: int, words, tables: dict | None = None):
        self.basis, self.codes = _basis(n, arity)
        flat = [
            (as_laurent(scalar), [_placed(f)[0] for f in ([] if left is None else [left]) + chain])
            for left, chains in words
            for scalar, *chain in chains
        ]
        self.den, self.base, starts = _starts(flat)
        starts = iter(starts)
        tables = {} if tables is None else tables
        interned: dict = {}

        def factor(spec) -> _Factor:
            op, stride = _placed(spec)
            key = (id(op), stride, self.base)
            placed = tables.get(key)
            if placed is None:
                placed = tables[key] = _factor(op, n, stride, self.base, interned)
            return placed

        self.words = [
            (
                None if left is None else factor(left),
                [
                    (next(starts), factor(c[-1]), None if len(c) == 1 else factor(c[0]))
                    for _, *c in chains
                ],
            )
            for left, chains in words
        ]

    def column(self, inp: tuple[int, ...]) -> dict:
        """The sum's column at ``inp``: its nonzero raw values by output tuple."""
        laurent = self.base is not None
        apply = _apply_terms if laurent else _apply_ints
        code = self.codes[inp]
        acc: dict = {}
        for left, chains in self.words:
            vector = acc if left is None else {}
            for start, right, middle in chains:
                if middle is None:
                    apply(right, {code: start}, vector)
                else:
                    placed: dict = {}
                    apply(right, {code: start}, placed)
                    apply(middle, placed, vector)
            if left is not None:
                apply(left, vector, acc)
        basis = self.basis
        return {basis[out]: v for out, v in acc.items() if (any(v.values()) if laurent else v)}

    def value(self, raw):
        """The stored value of a nonzero raw value: the int itself, or the
        LaurentQP of its terms, each key a·base + b read back as (a, b) for
        |b| < base/2."""
        base = self.base
        if base is None:
            return raw
        half = base // 2
        terms = {}
        for key, x in raw.items():
            a, b = divmod(key + half, base)
            terms[a, b - half] = x
        return LaurentQP._trusted(terms)


def _starts(words) -> tuple[int | None, int | None, list]:
    """(den, base, the start value of each word) of a :class:`_Sum` whose
    words are given as (scalar, [operator, ...]), in the form its class
    docstring describes: the int form when every operator and scalar is
    constant, else the Laurent form."""
    ops = {id(op): op for _, word in words for op in word}.values()
    scalars = [scalar for scalar, _ in words]
    if all(op._den is not None for op in ops) and all(s.is_constant() for s in scalars):
        ratios = []
        for scalar, word in words:
            num, den = scalar.constant_value().as_integer_ratio()
            for op in word:
                den *= op._den
            ratios.append((num, den))
        den = lcm(*(den for _, den in ratios))
        return den, None, [num * (den // word_den) for num, word_den in ratios]
    values = (v for op in ops if op._den is None for c in op._columns.values() for v in c.values())
    bound = max((abs(b) for v in itertools.chain(values, scalars) for _, b in v._terms), default=0)
    base = 2 * (max(len(word) + 1 for _, word in words) * bound + 1)
    return None, base, [{a * base + b: x for (a, b), x in s._terms.items()} for s in scalars]


def _factor(op: TensorOp, n: int, stride: int, base: int | None, interned: dict) -> _Factor:
    """op at ``stride``, its values as stored in the int form (``base`` is
    None), else as tuples of (term key, coeff), one per distinct value in
    ``interned``: keyed by (value, den) for an int-form operator and by
    its terms for a Laurent one."""
    den, size = op._den, n**op.arity
    codes = _basis(n, op.arity)[1]

    def pack(value):
        key = tuple(value._terms.items()) if den is None else (value, den)
        packed = interned.get(key)
        if packed is None:
            terms = _coeff(value, den)._terms.items()
            packed = interned[key] = tuple((a * base + b, x) for (a, b), x in terms)
        return packed

    table = [[] for _ in range(size)]
    for inp, column in op._columns.items():
        entries = table[codes[inp]]
        for out, value in column.items():
            entries.append((codes[out] * stride, value if base is None else pack(value)))
    return _Factor(stride, size, table)


def _apply_ints(factor: _Factor, vector: dict, acc: dict) -> None:
    """Add the factor's image of the int-valued ``vector`` into ``acc``,
    skipping zero values."""
    stride, size, table = factor
    for key, v in vector.items():
        if v:
            inp = key // stride % size
            offset = key - inp * stride
            for out, c in table[inp]:
                out += offset
                acc[out] = acc.get(out, 0) + c * v


def _apply_terms(factor: _Factor, vector: dict, acc: dict) -> None:
    """Add the factor's image of ``vector``, whose values are raw ``{term
    key: coeff}`` dicts, into ``acc`` term by term, skipping zero
    coefficients."""
    stride, size, table = factor
    for key, v in vector.items():
        v_terms = [item for item in v.items() if item[1]]
        if v_terms:
            inp = key // stride % size
            offset = key - inp * stride
            for out, c_terms in table[inp]:
                out += offset
                terms = acc.get(out)
                if terms is None:
                    terms = acc[out] = {}
                for e1, x in c_terms:
                    for e2, y in v_terms:
                        e2 += e1
                        terms[e2] = terms.get(e2, 0) + x * y


def endo_eq(f: TensorOp, g: TensorOp):
    """Exact equality test with a deterministic counterexample.

    Returns (True, None) when f == g, else (False, (input, output, diff))
    where (input, output) is the lexicographically smallest differing entry
    and diff the nonzero coefficient of f - g there.
    """
    witness = compose_sum([(1, f), (-1, g)]).first_entry()
    return witness is None, witness
