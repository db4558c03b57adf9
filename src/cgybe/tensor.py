"""Sparse linear operators on 2- and 3-fold tensor powers of an n-space.

Basis vectors of V⊗V and V⊗V⊗V are labelled by tuples of 1-based indices
(i, j) or (i, j, k) with each index in 1..n.  An operator stores only its
nonzero matrix entries in a dict keyed by (output tuple, input tuple),
with :class:`~cgybe.laurent.LaurentQP` coefficients.  Sparsity matters:
the operators built downstream have O(n^3) nonzero entries out of n^4,
and their 3-fold lifts would be hopeless dense with symbolic entries.

Operators are immutable values.  Composition, sums and scalar multiples
return new operators; ``f @ g`` is the operator product f∘g (g applied
first).

All of that arithmetic is one call of :func:`compose_sum`, the only
caller of the fused sparse multiply-accumulate kernel of
:class:`~cgybe.laurent.LaurentQP`.  Each term is a pair (f, g): an operator
f adds f∘g, a scalar f (``int``, ``Fraction`` or ``LaurentQP``) adds f·g.
So ``f + g`` is [(1, f), (1, g)], ``-f`` is [(-1, f)], ``s * f`` is
[(s, f)] and the Yang-Baxter sum c12∘c23∘c12 − c23∘c12∘c23 is
[(c12, c23∘c12), (c23, c12∘(−c23))].  The kernel adds every product of
coefficients straight into one raw ``{(a, b): coeff}`` dict per entry,
with no intermediate :class:`~cgybe.laurent.LaurentQP` per product or
partial sum, then canonicalizes each entry once through
``LaurentQP._trusted`` and drops the entries that sum to zero.  An
equation is therefore checked without building its two sides or their
difference.

The data alone choose a faster path.  When every operator in the terms
has only constant coefficients and every scalar is a constant -- P, g,
their lifts and products, any operator evaluated at a rational point --
:func:`compose_sum` multiplies per-operator column views instead, with no
exponent pairs, term dicts or ``Fraction`` arithmetic.  A view is
``(den, {input: {output: int}})``: ``den`` is one common denominator of
the operator's entries and each int is an entry times ``den``.  A sum
works over the lcm L of its terms' denominators, so it adds only int
products, and a sum that vanishes is exactly int 0.  Each operator builds
its view on first use and caches it.  A constant result, and the lift of
a constant operator, keeps its columns and builds its ``LaurentQP``
entries, ``Fraction(value, L)`` demoted to ``int`` when integral, only
when they are read.  So the intermediate
products of a check never build any, and both paths give the same
operator: zero sums dropped, integral values stored as ``int``.

The public constructor validates its input (user code, JSON): indices and
the shape must be ``int``.  Results built from operators that are already
valid (products, sums, differences, negations, scalar multiples and the
lifts) go through the private ``TensorOp._trusted`` instead and are not
validated again.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .laurent import LaurentQP, as_laurent, rational_to_str

__all__ = ["TensorOp", "compose_sum", "lift12", "lift23", "endo_eq"]

Key = tuple[tuple[int, ...], tuple[int, ...]]
Witness = tuple[tuple[int, ...], tuple[int, ...], LaurentQP]
Columns = tuple[int, dict[tuple[int, ...], dict[tuple[int, ...], int]]]


class TensorOp:
    """Sparse endomorphism of the arity-fold tensor power of an n-space."""

    __slots__ = ("n", "arity", "_stored", "_columns")

    def __init__(
        self,
        n: int,
        arity: int,
        entries: Mapping[Key, LaurentQP | Fraction | int] | None = None,
    ):
        if not isinstance(n, int) or not isinstance(arity, int):
            raise TypeError(f"rank and arity must be int, got {n!r} and {arity!r}")
        if n < 1:
            raise ValueError(f"rank must be positive, got {n}")
        if arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {arity}")
        normalized: dict[Key, LaurentQP] = {}
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
                    if not isinstance(idx, int):
                        raise TypeError(f"index {idx!r} is not an int")
                    if not 1 <= idx <= n:
                        raise ValueError(f"index {idx} out of range 1..{n}")
                normalized[(out, inp)] = coeff
        self.n = n
        self.arity = arity
        self._stored = normalized
        self._columns = None

    @classmethod
    def _trusted(
        cls,
        n: int,
        arity: int,
        entries: dict[Key, LaurentQP] | None,
        columns: Columns | None = None,
    ) -> "TensorOp":
        """Operator adopting ``entries`` as they are, skipping ``__init__``.

        For results built from already-valid operators: every key is a pair
        of arity-tuples with indices in 1..n and every value a nonzero
        LaurentQP.  A constant result passes its ``columns`` (see
        ``_constant_columns``), with no zero value or empty column, and None
        for ``entries``, which are built from the columns on first use.
        """
        result = object.__new__(cls)
        result.n = n
        result.arity = arity
        result._stored = entries
        result._columns = columns
        return result

    @property
    def _entries(self) -> dict[Key, LaurentQP]:
        """The entries; a result held as columns builds them on first read."""
        entries = self._stored
        if entries is None:
            den, columns = self._columns
            entries = self._stored = {
                (out, inp): _constant_coeff(value, den)
                for inp, column in columns.items()
                for out, value in column.items()
            }
        return entries

    def _constant_columns(self) -> Columns | bool:
        """``(den, {input: {output: value * den}})`` if every coefficient is
        a constant, else False.

        ``den`` is the lcm of the entries' denominators, so every stored
        value is an int.  Built by one scan of the entries, which stops at
        the first coefficient in which q or p occurs, and cached: operators
        are immutable, so the cache never goes stale.  A constant
        :func:`compose_sum` result and a constant lift start with their
        columns cached.
        """
        columns = self._columns
        if columns is None:
            den = 1
            columns = {}
            for (out, inp), coeff in self._entries.items():
                terms = coeff._terms
                value = terms.get((0, 0))
                if value is None or len(terms) != 1:
                    columns = False
                    break
                if type(value) is not int and den % value.denominator:
                    den = lcm(den, value.denominator)
                column = columns.get(inp)
                if column is None:
                    column = columns[inp] = {}
                column[out] = value
            if columns is not False:
                if den != 1:
                    for column in columns.values():
                        for out, value in column.items():
                            column[out] = value.numerator * (den // value.denominator)
                columns = (den, columns)
            self._columns = columns
        return columns

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
        return MappingProxyType(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def sorted_entries(self) -> list[tuple[Key, LaurentQP]]:
        """Entries sorted by (input tuple, output tuple)."""
        return sorted(self._entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def first_entry(self) -> Witness | None:
        """(input, output, coeff) of the entry with the smallest (input, output).

        None for the zero operator.  Applied to a difference it is the
        deterministic witness of an inequality.
        """
        if not self._entries:
            return None
        (out, inp), coeff = min(self._entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return inp, out, coeff

    def apply(self, *indices: int) -> dict[tuple[int, ...], LaurentQP]:
        """Image of the basis vector e_{i1}⊗...⊗e_{ik} as output tuple -> coefficient."""
        if len(indices) != self.arity:
            raise ValueError(f"expected {self.arity} indices, got {len(indices)}")
        for idx in indices:
            if not isinstance(idx, int):
                raise TypeError(f"index {idx!r} is not an int")
            if not 1 <= idx <= self.n:
                raise ValueError(f"index {idx} out of range 1..{self.n}")
        inp = tuple(indices)
        return {
            out: coeff for (out, key_in), coeff in self._entries.items() if key_in == inp
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorOp):
            return NotImplemented
        return (
            self.n == other.n
            and self.arity == other.arity
            and self._entries == other._entries
        )

    __hash__ = None  # mutable-looking container semantics; equality only

    def __repr__(self) -> str:
        return f"<TensorOp n={self.n} arity={self.arity} entries={len(self._entries)}>"

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
            {key: fn(coeff) for key, coeff in self._entries.items()},
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
        dense export: the entries are grouped by input in one pass, so the
        cost is O(nnz + n^(2*arity)), and ``cell`` runs once per entry plus
        once for all the zero cells.
        """
        images: dict[tuple[int, ...], dict[tuple[int, ...], object]] = {}
        for (out, inp), coeff in self._entries.items():
            images.setdefault(inp, {})[out] = cell(coeff)
        blank = cell(LaurentQP.zero())
        basis = self.basis_tuples()
        rows = []
        for inp in basis:
            image = images.get(inp, {})
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
    """The 3-fold operator with entry place(out, m) <- place(inp, m) equal to
    f's entry out <- inp for every m; a constant f is lifted column by
    column, with its common denominator, and builds no entries."""
    span = range(1, f.n + 1)
    constant = f._constant_columns()
    if constant:
        den, columns = constant
        lifted = {
            place(inp, m): {place(out, m): value for out, value in column.items()}
            for inp, column in columns.items()
            for m in span
        }
        return TensorOp._trusted(f.n, 3, None, (den, lifted))
    entries = {
        (place(out, m), place(inp, m)): coeff
        for (out, inp), coeff in f._entries.items()
        for m in span
    }
    return TensorOp._trusted(f.n, 3, entries)


def _translation_invariant(f: TensorOp) -> bool:
    """True iff f passes the translation lemma: for every input inp with
    min index >= 2, the column at inp is the column at inp - (1, ..., 1)
    with each output index raised by 1, empty columns included.

    This implies the interval property, that every output index of an
    entry out <- inp lies in [min(inp), max(inp)]: shifting the input down
    to min index 1, or up to max index n, would carry an output index
    outside the interval below 1 or above n.  P, g, both Cremmer-Gervais
    matrices and their evaluations pass, since their entries depend only
    on index differences.  O(nnz); the constant columns are read when f
    has them, so a columns-only operator builds no entries.
    """
    constant = f._constant_columns()
    if constant:
        columns = constant[1]
    else:
        columns = {}
        for (out, inp), coeff in f._entries.items():
            columns.setdefault(inp, {})[out] = coeff
    # Only nonempty columns are stored: each must have one below it, and
    # the column above it must be its shift, so no empty column is skipped.
    for inp, column in columns.items():
        if min(inp) > 1 and tuple(i - 1 for i in inp) not in columns:
            return False
        if max(inp) < f.n:
            up = {tuple(i + 1 for i in out): value for out, value in column.items()}
            if columns.get(tuple(i + 1 for i in inp)) != up:
                return False
    return True


def _restrict_min_index_one(f: TensorOp) -> TensorOp:
    """f∘E for the projection E onto the basis vectors with min index 1:
    the columns of f at those inputs, one dict comprehension over the
    constant columns or over the entries."""
    constant = f._constant_columns()
    if constant:
        den, columns = constant
        kept = {inp: column for inp, column in columns.items() if 1 in inp}
        return TensorOp._trusted(f.n, f.arity, None, (den, kept))
    entries = {key: coeff for key, coeff in f._entries.items() if 1 in key[1]}
    return TensorOp._trusted(f.n, f.arity, entries)


def _term_products(f, g):
    """(key, x, y) triples whose sums per key are the entries of f∘g, or of f·g
    for a scalar f."""
    if not isinstance(f, TensorOp):
        return ((key, coeff, f) for key, coeff in g._entries.items())
    by_input: dict[tuple[int, ...], list[tuple[tuple[int, ...], LaurentQP]]] = {}
    for (out, mid), coeff in f._entries.items():
        by_input.setdefault(mid, []).append((out, coeff))
    return (
        ((out, inp), c_f, c_g)
        for (mid, inp), c_g in g._entries.items()
        for out, c_f in by_input.get(mid, ())
    )


def _constant_coeff(value: int, den: int) -> LaurentQP:
    """The LaurentQP of the nonzero value/den in canonical form, skipping
    ``__init__``."""
    if den != 1:
        value = Fraction(value, den)
        if value.denominator == 1:
            value = value.numerator
    coeff = object.__new__(LaurentQP)
    coeff._terms = {(0, 0): value}
    return coeff


def _constant_pairs(pairs):
    """(left, den, right) triples of the pairs, or None if q or p occurs in
    any of them.

    ``right`` is the columns of the right operator and ``left`` the columns
    of the left one or the numerator of a scalar; ``den`` is the term's
    denominator: den_f·den_g for two operators, b·den_g for a scalar a/b.
    """
    constant = []
    for f, g in pairs:
        g = g._constant_columns()
        if g is False:
            return None
        den_g, g = g
        if isinstance(f, TensorOp):
            f = f._constant_columns()
            if f is False:
                return None
            den_f, f = f
        elif type(f) is int:
            den_f = 1
        elif f.is_constant():
            value = f.constant_value()
            f, den_f = value.numerator, value.denominator
        else:
            return None
        constant.append((f, den_f * den_g, g))
    return constant


def _constant_sum(n: int, arity: int, pairs) -> TensorOp:
    """The sum of the constant triples from :func:`_constant_pairs`, in
    plain int arithmetic over the lcm L of the terms' denominators.

    Each term's factor L // (its denominator) scales each right-factor
    value once, and is skipped when it is 1.  Each input column of the
    result accumulates ``{output: value * L}`` and drops its zeros.  The
    result holds only these columns, so a chained product never rescans
    it; its entries are built as ``Fraction(value, L)``, demoted to int
    when integral, when first read.

    L is not reduced by the gcd of the result's values: 1/3 + 2/3 is held
    as 15 over 15 when the other term has denominator 5.  A result used as
    a factor of a further sum carries its L into that sum's denominator,
    so the stored ints grow with the depth of a chain of sums even when
    the entries are integral.  The checks chain at most three deep.
    """
    den = lcm(*(term_den for _, term_den, _ in pairs))
    acc = {}
    for f, term_den, g in pairs:
        scale = den // term_den
        for inp, g_column in g.items():
            column = acc.get(inp)
            if column is None:
                column = acc[inp] = {}
            if type(f) is dict:
                for mid, c_g in g_column.items():
                    f_column = f.get(mid)
                    if f_column is None:
                        continue
                    if scale != 1:
                        c_g *= scale
                    for out, c_f in f_column.items():
                        column[out] = column.get(out, 0) + c_f * c_g
            else:
                c_f = f * scale
                for out, c_g in g_column.items():
                    column[out] = column.get(out, 0) + c_f * c_g
    columns = {}
    for inp, column in acc.items():
        kept = {out: value for out, value in column.items() if value}
        if kept:
            columns[inp] = kept
    return TensorOp._trusted(n, arity, None, (den, columns))


def compose_sum(terms) -> TensorOp:
    """The sum of ``terms``, each a pair (f, g) of an operator g and a left
    factor f: an operator f adds f∘g, a scalar f (int, Fraction or
    LaurentQP) adds f·g.

    The one caller of the multiply-accumulate kernel: every term feeds one
    kernel call, so no product, scalar multiple or partial sum is built as
    an operator, and each pair's index is built only when the kernel
    reaches it.  A term of two operators is negated by negating one of
    them; negate the smallest, usually a lifted 2-fold operator.  All
    operators must share one rank and arity.  A term that is not a pair,
    or whose right factor is not an operator, raises TypeError.

    If no operator or scalar in the terms carries q or p, the sum is taken
    over the operators' cached constant columns in plain int arithmetic
    over one common denominator instead (see the module docstring); the
    result is the same.
    """
    pairs = []
    for term in terms:
        if not (isinstance(term, tuple) and len(term) == 2 and isinstance(term[1], TensorOp)):
            raise TypeError(f"a compose_sum term must be a pair (f, operator), got {term!r}")
        f, g = term
        if not isinstance(f, TensorOp) and type(f) is not int:
            f = as_laurent(f)
        pairs.append((f, g))
    if not pairs:
        raise ValueError("compose_sum needs at least one term")
    shape = pairs[0][1]
    for f, g in pairs:
        shape._check_match(g)
        if isinstance(f, TensorOp):
            shape._check_match(f)
    constant = _constant_pairs(pairs)
    if constant is not None:
        return _constant_sum(shape.n, shape.arity, constant)
    return TensorOp._trusted(
        shape.n,
        shape.arity,
        LaurentQP._sums_of_products(
            itertools.chain.from_iterable(itertools.starmap(_term_products, pairs))
        ),
    )


def endo_eq(f: TensorOp, g: TensorOp):
    """Exact equality test with a deterministic counterexample.

    Returns (True, None) when f == g, else (False, (input, output, diff))
    where (input, output) is the lexicographically smallest differing entry
    and diff the nonzero coefficient of f - g there.
    """
    witness = compose_sum([(1, f), (-1, g)]).first_entry()
    return witness is None, witness
