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
it, and the mirror lemma with its reflection.

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
first).  What the sums derive from an operator, its packed factors, its
scale and its translation-, mirror- and gauge-lemma results, is kept in its
private ``_cache`` on first use (:class:`_Sum`, :func:`_witness`), so it
lives and dies with the operator.

Every sum, of :func:`compose_sum` and of every check, is a list of flat
signed words ``(scalar, *factors)``: a scalar (``int``, ``Fraction`` or
``LaurentQP``) and at most three factors applied right to left, a word
with no factor standing for scalar·I.  A factor is an operator, or a pair
(operator, 12 or 23) placing a 2-fold operator in a 3-fold word.  So
``f + g`` is [(1, f), (1, g)], ``-f`` is [(-1, f)], ``s * f`` is [(s, f)]
and ``f @ g`` is [(1, f, g)].

A sum is evaluated by one kernel, :class:`_Sum`, one input column at a
time: for an input basis vector e_t each word is applied right to left to
scalar·e_t, and the three-factor words that share a left factor are summed
before it is applied.  A factor reads its operator's column at the input's
digits in its place: all of them for an operator applied whole, and
(i, j) of (i, j, k) for a 2-fold operator placed at 12 in a 3-fold word,
(j, k) at 23.  So no lift, product, identity or scalar multiple is built.
:func:`compose_sum` keeps the column at every input; a check keeps only
the first nonzero one (:func:`_witness`), walking only the inputs with min
index 1 when the translation lemma allows.  At arity 3 it computes the
column of only one input of each pair that the mirror τ matches: τ reverses
the tensor factors and takes each index i to n+1−i, and it applies when the
operators pass the mirror lemma and the words are τ-symmetric up to a sign,
as YBE and the cubic sums are (``eta_reflection``, ids3, is the scalar twin
of that lemma).  Every sum is scaled to int coefficients over one
denominator, and its kernel adds int products with no ``Fraction``
arithmetic (:mod:`cgybe.kronecker`); its values take one of two forms.
When no operator or scalar of the sum carries p and its values are narrow
enough, each value is a Laurent polynomial in q with int coefficients,
substituted at q = 2^k for a k that keeps every coefficient one digit.  An
operator stored as ints is read as it is stored, so a sum of constants
adds int products over one common denominator, with no exponent pairs.
Otherwise the kernel adds the int terms of the coefficients into one raw
dict per output.  The gauge is a lemma whose operators are read with p
dropped; no copy is built: a check over operators that pass it, as the
two-parameter matrix does, runs in the q form on their own values and
puts p back into its witness (:func:`_witness`).  An equation is
therefore checked without building its two sides or their difference.

Each kind of input is checked once, at its door: a rank and an arity by
:func:`_shape` (the constructor, ``identity``, ``cgybe.model``); a basis
label by :func:`_label` (each key of the constructor, even with a zero
coefficient, and ``apply``); an exact number by
:func:`~cgybe.laurent.as_laurent` (coefficients, scalars); a word by
:func:`_word`; a repeated JSON entry by ``from_json_obj``.  A ``bool``,
or any other ``int`` subclass, is not an ``int`` at any of them.  Inside the doors nothing is checked
again: an operator built from valid operators, or from columns its
builder filled, adopts them through the private ``TensorOp._trusted``.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import kronecker
from .laurent import LaurentQP, as_laurent

__all__ = ["TensorOp", "compose_sum", "lift12", "lift23", "endo_eq"]

Key = tuple[tuple[int, ...], tuple[int, ...]]
Witness = tuple[tuple[int, ...], tuple[int, ...], LaurentQP]
Columns = dict[tuple[int, ...], dict[tuple[int, ...], int | LaurentQP]]


class TensorOp:
    """Sparse endomorphism of the arity-fold tensor power of an n-space."""

    __slots__ = ("n", "arity", "_den", "_columns", "_cache")

    def __init__(
        self,
        n: int,
        arity: int,
        entries: Mapping[Key, LaurentQP | Fraction | int] | None = None,
    ):
        _shape(n, arity)
        columns: dict = {}
        if entries:
            for (out, inp), coeff in entries.items():
                out, inp = _label(out, n, arity), _label(inp, n, arity)
                coeff = as_laurent(coeff)
                if not coeff.is_zero():
                    columns.setdefault(inp, {})[out] = coeff
        self.n = n
        self.arity = arity
        self._den, self._columns = _stored_form(columns)
        self._cache = {}

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
        result._cache = {}
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
        _shape(n, arity)
        return cls._trusted(n, arity, 1, {t: {t: 1} for t in _basis(n, arity)[0]})

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
        column = self._columns.get(_label(indices, self.n, self.arity), {})
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

    def __add__(self, other: "TensorOp") -> "TensorOp":
        return compose_sum([(1, self), (1, other)])

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        return compose_sum([(1, self), (-1, other)])

    def __neg__(self) -> "TensorOp":
        return compose_sum([(-1, self)])

    def scale(self, scalar) -> "TensorOp":
        return compose_sum([(scalar, self)])

    def __rmul__(self, scalar) -> "TensorOp":
        try:
            scalar = as_laurent(scalar)
        except TypeError:
            return NotImplemented
        return self.scale(scalar)

    def compose(self, other: "TensorOp") -> "TensorOp":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return compose_sum([(1, self, other)])

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self.compose(other)

    def map_coeffs(self, fn) -> "TensorOp":
        """Apply fn to every coefficient, dropping entries that become zero.
        Only the values of fn are checked; the keys are this operator's."""
        columns: dict = {}
        for (out, inp), coeff in self._entry_items():
            coeff = as_laurent(fn(coeff))
            if coeff:
                columns.setdefault(inp, {})[out] = coeff
        return TensorOp._trusted(self.n, self.arity, *_stored_form(columns))

    def eval_at(self, qval: Fraction | int, pval: Fraction | int) -> "TensorOp":
        """Numeric specialization: every coefficient evaluated at (qval, pval),
        the entries that vanish there dropped, stored as ints."""
        return self.map_coeffs(lambda c: c.eval(qval, pval))

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
        """Inverse of ``to_json_obj``; a repeated (out, in) entry raises
        ValueError, and the constructor checks the rest."""
        entries = {
            (tuple(e["out"]), tuple(e["in"])): LaurentQP.from_json_obj(e["coeff"])
            for e in obj["entries"]
        }
        if len(entries) != len(obj["entries"]):
            raise ValueError("repeated (out, in) entry in JSON input")
        return cls(obj["n"], obj["arity"], entries)

    def basis_tuples(self) -> list[tuple[int, ...]]:
        """All basis labels in row-major order: (1,..,1), (1,..,2), ..."""
        return list(_basis(self.n, self.arity)[0])

    def _dense_rows(self, cell):
        """Dense matrix of ``cell(coefficient)``, a missing entry read as zero,
        one row at a time.

        Row r is the flattened input tuple (row-major, 1-based), column c the
        flattened output tuple.  The one copy of the dense loop behind every
        dense export; row r reads the stored column at its input, so the
        cost is O(nnz + n^(2*arity)), and ``cell`` runs once per entry plus
        once for all the zero cells.
        """
        den = self._den
        blank = cell(LaurentQP.zero())
        basis, codes = _basis(self.n, self.arity)
        for inp in basis:
            row = [blank] * len(basis)
            for out, value in self._columns.get(inp, {}).items():
                row[codes[out]] = cell(_coeff(value, den))
            yield row

    def to_numeric_rows(self) -> list[list[Fraction]]:
        """Dense rational matrix of a numerically evaluated operator.

        Row r is the flattened input tuple (row-major, 1-based), column c the
        flattened output tuple.  Raises if any coefficient still contains q or p.
        """
        return list(self._dense_rows(LaurentQP.constant_value))


def _shape(n: int, arity: int) -> None:
    """The one check of a rank and an arity: both an int and not a bool
    (TypeError), the rank positive and the arity 2 or 3 (ValueError)."""
    if type(n) is not int or type(arity) is not int:
        raise TypeError(f"rank and arity must be int, got {n!r} and {arity!r}")
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if arity not in (2, 3):
        raise ValueError(f"arity must be 2 or 3, got {arity}")


def _label(label, n: int, arity: int) -> tuple[int, ...]:
    """The one check of a basis label, as a tuple: ``arity`` indices
    (ValueError otherwise), each an int and not a bool (TypeError) in 1..n
    (ValueError)."""
    label = tuple(label)
    if len(label) != arity:
        raise ValueError(f"basis label {label} does not have arity {arity}")
    for idx in label:
        if type(idx) is not int:
            raise TypeError(f"index {idx!r} is not an int")
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n}")
    return label


def _coeff(value, den: int | None) -> LaurentQP:
    """The coefficient a stored value stands for: the value itself when
    ``den`` is None, else the constant value/den (``LaurentQP._trusted``)."""
    if den is None:
        return value
    return LaurentQP._trusted({(0, 0): value if den == 1 else Fraction(value, den)})


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


def _mirror_lemma(f: TensorOp) -> bool:
    """True iff f passes the mirror lemma: every entry out <- inp equals
    the entry τ(out) <- τ(inp), for the mirror τ(t) = (n+1−t[−1], ...,
    n+1−t[0]), which reverses the tensor factors and takes each index i to
    n+1−i.  τ is an involution, so an image with an equal value for every
    entry makes τ a bijection of the entries; columns are compared whole,
    as the translation lemma compares them.  P, g, both Cremmer-Gervais
    matrices (the p exponent i−a of cg2 is τ-invariant since a+b = i+j),
    their evaluations and their JSON read-backs pass.  Its scalar twin is
    ``eta_reflection`` (ids3) of :mod:`cgybe.oracles`.  O(nnz).
    """
    columns, top = f._columns, f.n + 1
    return all(
        columns.get(tuple(top - i for i in reversed(inp)))
        == {tuple(top - i for i in reversed(out)): value for out, value in column.items()}
        for inp, column in columns.items()
    )


def _mirrored(words) -> bool:
    """True iff the words meet the word condition of the mirror: places 12
    and 23 swapped in every word give the words again as a multiset, times
    one sign ε = ±1, operators compared by identity and scalars by
    equality.  YBE and both cubic sums meet it, each lhs word mapping to
    its rhs word; a single word such as g12·g23 does not."""

    def counts(swap: dict, sign: int) -> Counter:
        return Counter(
            (sign * scalar, tuple((id(op), swap.get(place, place)) for op, place in factors))
            for scalar, factors in words
        )

    return counts({12: 23, 23: 12}, 1) in (counts({}, 1), counts({}, -1))


def compose_sum(words) -> TensorOp:
    """The sum of the flat signed ``words`` ``(scalar, *factors)`` of the
    module docstring, as an operator.

    No product, scalar multiple or partial sum is built as an operator.  A
    word that is not a tuple of a scalar and factors raises TypeError, and
    operators that do not fit one rank and arity ValueError (:class:`_Sum`).

    The result holds the sum's nonzero column at each input, in sorted
    order.  In the q form, when the least q exponent is 0 and every int is
    one balanced digit, as in every sum of constants, each int is its
    value at q^0 times the sum's denominator, and the columns are stored
    as they are over it.  Otherwise each raw value is read back, equal
    q-form ints once, sharing one LaurentQP, and the result is stored by
    :func:`_stored_form`, so a sum whose values are all constant is stored
    as ints.
    """
    total = _Sum([_word(word) for word in words])
    columns = {inp: column for inp in total.basis if (column := total.column(inp))}
    read = total.value
    if total.base is None:
        k, least, den = total.digits
        half = 1 << (k - 1)
        if least == 0 and all(-half < v < half for c in columns.values() for v in c.values()):
            return TensorOp._trusted(total.n, total.arity, den, columns)
        read = functools.cache(read)
    for column in columns.values():
        for out, raw in column.items():
            column[out] = read(raw)
    return TensorOp._trusted(total.n, total.arity, *_stored_form(columns))


def _inputs(n: int, arity: int, reduced: bool):
    """The inputs :func:`_witness` walks, in sorted order: those with min
    index 1 when ``reduced``, else all n^arity."""
    for t in _basis(n, arity)[0]:
        if not reduced or 1 in t:
            yield t


def _witness(words) -> Witness | None:
    """The witness of the :class:`_Sum` of the flat ``words``: the first
    input t in sorted order whose column has a nonzero entry gives (t, its
    smallest such output, the coefficient there), and no input after it is
    read.  None when every column vanishes.

    The rank and arity are the sum's.  When every operator of the words
    passes the translation lemma (:func:`_translation_invariant`), only the
    inputs with min index 1 are walked: about 3n² of the n³ at arity 3 and
    2n − 1 of the n² at arity 2, and at arity 3 the mirror below computes
    the columns of about half of them.  The column at an input with min index
    >= 2 is the column at the input one step down, its outputs shifted up
    by one; placed factors, products and sums keep that property, as does a
    word with no factor.  So a nonzero column at an input with min index m
    is the translate of one at the input m − 1 steps down, which has min
    index 1 and is smaller: the sum vanishes iff it vanishes there, and its
    witness, with its coefficient, lies there.  When some operator fails
    the lemma, as a random one does, every input is walked.

    When, at arity 3, every operator also passes the mirror lemma
    (:func:`_mirror_lemma`) and the words meet its word condition
    (:func:`_mirrored`), the sum S satisfies τSτ = εS: τ turns a factor
    at 12 into the same operator at 23 and back, keeps a bare operator and
    the identity, and keeps the order of each word's factors.  So the column at τ(t) is nonzero iff
    the column at t is, and so, after a translation down, is the column at
    σ(t) = (m+1−t[2], m+1−t[1], m+1−t[0]), m = max(t), which has min
    index 1 too.  σ is an involution on those inputs, so the first nonzero
    one in sorted order is the smaller of its pair: the walk skips every t
    with σ(t) < t and still reaches it first, with the same witness,
    output and coefficient, the gauge's power of p included.  At arity 2
    σ fixes every input with min index 1, so no 2-fold sum runs the mirror
    lemma.

    The gauge is a lemma whose operators are read with p dropped; no copy
    is built.  It is read when some operator carries q or p, and applies
    when every operator passes it (:func:`_gauge_lemma`).  The gauge G
    multiplies entry (a, b) <- (i, j) by p^(i−a); it is conjugation by
    diag(p^−a) on e_a⊗e_b, and, because every entry keeps a+b = i+j, a
    factor placed at 12 or 23 is conjugation by diag(p^−(2a+b)) on
    e_a⊗e_b⊗e_c.  Scalars and words with no factor commute with it, so the
    sum over G(X) is the conjugated sum over X: the same support, and the
    coefficient at (a, b) <- (i, j) times p^(i−a), at (a, b, c) <- (i, j, k)
    times p^((2i+j)−(2a+b)).  An operator that passes the lemma is G(X) for X its
    values with p dropped, so when no scalar carries p the q form of
    :class:`_Sum` runs the sum over X by reading the operators' own values,
    and the witness gets its power of p back.  In the term form, taken for
    a scalar that carries p or for wide values, the operators keep their
    p, and the coefficient is already the true one.  Each operator
    keeps its lemma results, so a later sum over it does not run them
    again.
    """
    words = [_word(word) for word in words]
    ops = {id(op): op for _, factors in words for op, _ in factors}.values()
    reduced = all(_cached(op, "lemma", _translation_invariant) for op in ops)
    gauge = any(op._den is None for op in ops) and all(_cached(op, "gauge", _gauge_lemma) for op in ops)
    total = _Sum(words, gauge)
    mirrored = reduced and total.arity == 3 and _mirrored(words)
    mirrored = mirrored and all(_cached(op, "mirror", _mirror_lemma) for op in ops)
    for t in _inputs(total.n, total.arity, reduced):
        if mirrored and tuple(max(t) + 1 - i for i in reversed(t)) < t:
            continue
        column = total.column(t)
        if column:
            out = min(column)
            coeff = total.value(column[out])
            if gauge and total.base is None:
                shift = t[0] - out[0] if total.arity == 2 else 2 * (t[0] - out[0]) + t[1] - out[1]
                coeff = LaurentQP._trusted({(a, b + shift): x for (a, b), x in coeff._terms.items()})
            return t, out, coeff
    return None


def _cached(op: TensorOp, key: str, lemma):
    """``lemma(op)``, kept in ``op._cache[key]`` on first use."""
    if key not in op._cache:
        op._cache[key] = lemma(op)
    return op._cache[key]


def _gauged(op: TensorOp) -> TensorOp:
    """op with each entry (a, b) <- (i, j) multiplied by p^(i−a); equal
    result values share one LaurentQP.  This is the diagonal gauge G of
    :func:`_witness` (an abelian twist, N. Reshetikhin, LMP 20 (1990)),
    which turns the one-parameter matrix at the Hecke pair into the
    two-parameter one."""
    columns: dict = {}
    interned: dict = {}
    for (out, inp), coeff in op._entry_items():
        shift = inp[0] - out[0]
        terms = tuple(((a, b + shift), x) for (a, b), x in coeff._terms.items())
        value = interned.get(terms)
        if value is None:
            value = interned[terms] = LaurentQP._trusted(dict(terms))
        columns.setdefault(inp, {})[out] = value
    return TensorOp._trusted(op.n, op.arity, *_stored_form(columns))


def _gauge_lemma(op: TensorOp) -> bool:
    """True iff op passes the gauge lemma: a 2-fold operator each of whose
    entries (a, b) <- (i, j) keeps i+j and has p exponent i−a in every
    term.  Then op = G(X) for the gauge G of :func:`_witness` and X op's
    values with p dropped, as :func:`~cgybe.kronecker.encode` reads them;
    no copy of X is built.  O(nnz), read off the entries as the
    translation lemma is."""
    return op.arity == 2 and all(
        out[0] + out[1] == inp[0] + inp[1] and all(b == inp[0] - out[0] for _, b in coeff._terms)
        for (out, inp), coeff in op._entry_items()
    )


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


def _word(word) -> tuple[LaurentQP, list]:
    """A word of a :class:`_Sum` as (its scalar, its factors as (operator,
    place)): place 12 or 23 for a 2-fold operator placed in a 3-fold word,
    None for a bare one.  The one check of a word's shape: a word that is
    not a nonempty tuple, a scalar that :func:`~cgybe.laurent.as_laurent`
    refuses (a float or a bool included), and a factor that is neither an
    operator nor a pair (operator, int) raise TypeError; more than three
    factors raise ValueError."""
    try:
        scalar = as_laurent(word[0] if isinstance(word, tuple) and word else None)
    except TypeError:
        message = f"a word is a tuple (int, Fraction or LaurentQP, *factors), got {word!r}"
        raise TypeError(message) from None
    factors = word[1:]
    if len(factors) > 3:
        raise ValueError(f"a word has at most three factors, got {len(factors)}")
    for f in factors:
        if not isinstance(f, TensorOp) and not (
            isinstance(f, tuple) and len(f) == 2 and isinstance(f[0], TensorOp) and type(f[1]) is int
        ):
            raise TypeError(f"a factor is an operator or (operator, 12 or 23), got {f!r}")
    return scalar, [(f, None) if isinstance(f, TensorOp) else f for f in factors]


@functools.lru_cache(maxsize=8)
def _basis(n: int, arity: int) -> tuple[list, dict]:
    """(the index tuples in code order, their codes) of the arity-fold basis
    of an n-space; see :class:`_Factor`.  The one enumeration of a basis:
    ``TensorOp.identity``, ``TensorOp.basis_tuples``, :func:`_inputs`,
    :class:`_Sum` and :func:`_factor` read it.  Cached, so every caller
    shares them and none may write to them."""
    tuples = list(itertools.product(range(1, n + 1), repeat=arity))
    return tuples, {t: code for code, t in enumerate(tuples)}


class _Sum:
    """A signed sum of operator products, packed to be evaluated one input
    column at a time; every check and every :func:`compose_sum` is one.

    ``words`` is a list of signed words as :func:`_word` gives them,
    (scalar, [(operator, place), ...]), the factors applied right to left
    to scalar·e_t; a word with no factor is scalar·I.  A factor is an
    operator applied whole (place None), or a 2-fold operator placed at 12
    or 23 in a 3-fold word.  The sum reads its rank and its arity (3 when
    a factor is placed, else that of its operators) off the words, and
    raises ValueError when a place is not 12 or 23 or an operator does not
    fit the rank and arity.

    The sum alone groups, places and applies the words.  Words of three
    factors that share a left factor are grouped, their chains (middle,
    right) summed before that factor is applied once.  Every other word is
    a chain (right) or (middle, right) added straight into the result; a
    word with no factor applies the unit factor, which maps every code to
    itself.  :meth:`column` does all of it into one accumulator; no lift,
    product, identity or partial sum is built.  Each operator keeps the
    factor it was last packed into at each stride, with the packing it was
    packed for, (``base``, k) of the forms below: (base, None) in the term
    form, and (None, k) in the q form, k None for an operator stored as
    ints; a sum that needs another packing packs it again in its place.
    So a later sum over the same operator in the same form packs nothing,
    and an operator holds at most two packed factors.

    Every value of the sum holds den times its coefficient, so that every
    coefficient the kernel adds is an int: ``digits`` = (k, least q
    exponent, den) of :func:`~cgybe.kronecker.form`, den the lcm of the
    words' denominators.  Each operator keeps its scale (:func:`_q_scale`),
    d among it, and is packed times d; an operator stored as ints is read
    as its stored ints.  So no ``Fraction`` is built or multiplied inside
    the kernel.  That denominator is not reduced by the gcd of the values:
    1/3 + 2/3 is held as 15 over 15 when another word has denominator 5,
    and a result used as a factor of a further sum carries it into that
    sum's.  The values take one of two forms, chosen from the scales of its
    operators and scalars by :func:`~cgybe.kronecker.form`:

    * when none carries p, ints (the q form), each the value at q = 2^k of
      a Laurent polynomial in q with int coefficients.  ``gauge``, set by
      :func:`_witness` when every operator passes the gauge lemma, lets
      the operators carry p: the gauge is a lemma whose operators are read
      with p dropped, and no copy is built.  A sum of constants, whose
      every low and span is 0, adds ints each one digit at q^0.  Values
      that would be wider than ``kronecker.WIDEST_INT_VALUE`` bits take
      the term form instead, where the products are cheaper;
    * otherwise raw term dicts ``{a·base + b: int coeff}`` for the terms
      q^a·p^b.  Equal operator values share one packed tuple of terms.

    :meth:`value` reads a raw value back, divided by den.
    """

    __slots__ = ("n", "arity", "base", "digits", "basis", "codes", "groups")

    def __init__(self, words, gauge: bool = False):
        placed = [f for _, factors in words for f in factors]
        if not placed:
            raise ValueError("a sum needs at least one operator")
        n = self.n = placed[0][0].n
        arity = self.arity = 3 if any(place for _, place in placed) else placed[0][0].arity
        for op, place in placed:
            if place not in (None, 12, 23) or (op.n, op.arity) != (n, 2 if place else arity):
                raise ValueError(
                    f"operator mismatch: n={op.n},arity={op.arity} at place {place} "
                    f"in a sum of rank {n} and arity {arity}"
                )
        self.basis, self.codes = _basis(n, arity)
        self.base, self.digits, starts = kronecker.form(words, _q_scale, gauge)
        k = self.digits[0] if self.base is None else None

        def factor(op: TensorOp, place: int | None) -> _Factor:
            stride = n if place == 12 else 1
            key = (self.base, None if op._den is not None else k)
            cached = op._cache.get(stride)
            if cached is None or cached[0] != key:
                cached = op._cache[stride] = (key, _factor(op, stride, key))
            return cached[1]

        unit = _Factor(1, 1, [[(0, 1 if self.base is None else ((0, 1),))]])
        groups: dict = {}
        for (_, factors), start in zip(words, starts):
            chain = [factor(*f) for f in factors] or [unit]
            left = chain.pop(0) if len(chain) == 3 else None
            group = groups.setdefault(id(left), (left, []))
            group[1].append((start, chain[-1], chain[0] if len(chain) == 2 else None))
        self.groups = list(groups.values())

    def column(self, inp: tuple[int, ...]) -> dict:
        """The sum's column at ``inp``: its nonzero raw values by output tuple."""
        laurent = self.base is not None
        apply = _apply_terms if laurent else _apply_ints
        code = self.codes[inp]
        acc: dict = {}
        for left, chains in self.groups:
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

    def value(self, raw) -> LaurentQP:
        """The LaurentQP of a nonzero raw value: the digits of the int in
        the q form, the terms of the dict in the term form, each divided
        by the sum's den (:mod:`cgybe.kronecker`)."""
        if self.base is None:
            return kronecker.decode(raw, *self.digits)
        return kronecker.decode_terms(raw, self.base, self.digits[2])


def _q_scale(op: TensorOp) -> tuple[int, int, int, int, int]:
    """op's (low, d, ‖op‖, span, reach) of :func:`~cgybe.kronecker.scale`,
    kept in ``op._cache``: :func:`~cgybe.kronecker.form` reads all of it
    to choose a form, and :func:`_factor` packs op's values times d."""
    return _cached(op, "q", lambda op: kronecker.scale(op._columns.values(), op._den))


def _factor(op: TensorOp, stride: int, packing: tuple) -> _Factor:
    """op at ``stride``, its values packed as a :class:`_Sum` reads them,
    for ``packing`` = (base, k), times op's d of :func:`_q_scale`: as
    tuples of (term key, int coeff) of
    :func:`~cgybe.kronecker.encode_terms` in the term form (base), as the
    ints of :func:`~cgybe.kronecker.encode` for a Laurent operator in the q
    form (k), else as stored.  A packed value is
    made once per distinct value of op: keyed by the value for an int-form
    operator and by its terms for a Laurent one."""
    den, size, interned = op._den, op.n**op.arity, {}
    codes = _basis(op.n, op.arity)[1]
    base, k = packing
    low, d, *_ = _q_scale(op)
    if base is not None:
        encode = functools.partial(kronecker.encode_terms, den=d, base=base)
    elif k is not None:
        encode = functools.partial(kronecker.encode, low=low, den=d, k=k)

    def pack(value):
        key = tuple(value._terms.items()) if den is None else value
        packed = interned.get(key)
        if packed is None:
            packed = interned[key] = encode(_coeff(value, den)._terms)
        return packed

    table = [[] for _ in range(size)]
    for inp, column in op._columns.items():
        entries = table[codes[inp]]
        for out, value in column.items():
            entries.append((codes[out] * stride, value if packing == (None, None) else pack(value)))
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
