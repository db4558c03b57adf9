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
[(x, c12), (−c23, x)] with x = c12∘c23.  The kernel adds every product of
coefficients straight into one raw ``{(a, b): coeff}`` dict per entry,
with no intermediate :class:`~cgybe.laurent.LaurentQP` per product or
partial sum, then canonicalizes each entry once through
``LaurentQP._trusted`` and drops the entries that sum to zero.  An
equation is therefore checked without building its two sides or their
difference.

The data alone choose a faster path.  When every operator in the terms
has only constant coefficients and every scalar is a constant -- P, g,
their lifts and products, any operator evaluated at a rational point --
:func:`compose_sum` multiplies per-operator column views
``{input: {output: value}}`` of plain ``int`` and ``Fraction`` values
instead, with no exponent pairs or term dicts.  Each operator builds its
view on first use and caches it.  A constant result keeps the columns it
was summed in and builds its ``LaurentQP`` entries only when they are
read, so the intermediate products of a check never build any.  Both
paths give the same operator: zero sums dropped, integral ``Fraction``
values stored as ``int``.

The public constructor validates its input (user code, JSON): indices and
the shape must be ``int``.  Results built from operators that are already
valid (products, sums, differences, negations, scalar multiples and the
lifts) go through the private ``TensorOp._trusted`` instead and are not
validated again.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .laurent import LaurentQP, as_laurent, rational_to_str

__all__ = ["TensorOp", "compose_sum", "lift12", "lift23", "endo_eq"]

Key = tuple[tuple[int, ...], tuple[int, ...]]
Witness = tuple[tuple[int, ...], tuple[int, ...], LaurentQP]
Columns = dict[tuple[int, ...], dict[tuple[int, ...], int | Fraction]]


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
        LaurentQP.  A constant result passes its nonzero ``columns`` (see
        ``_constant_columns``) and None for ``entries``, which are built
        from the columns on first use.
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
            entries = self._stored = {
                (out, inp): _constant_coeff(value)
                for inp, column in self._columns.items()
                for out, value in column.items()
            }
        return entries

    def _constant_columns(self) -> Columns | bool:
        """``{input: {output: value}}`` if every coefficient is a constant,
        else False.

        Built by one scan of the entries, which stops at the first
        coefficient in which q or p occurs, and cached: operators are
        immutable, so the cache never goes stale.  A constant
        :func:`compose_sum` result starts with its columns cached.
        """
        columns = self._columns
        if columns is None:
            columns = {}
            for (out, inp), coeff in self._entries.items():
                terms = coeff._terms
                value = terms.get((0, 0))
                if value is None or len(terms) != 1:
                    columns = False
                    break
                column = columns.get(inp)
                if column is None:
                    column = columns[inp] = {}
                column[out] = value
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
    entries = {}
    for (out, inp), coeff in f.entries.items():
        for m in range(1, f.n + 1):
            entries[((*out, m), (*inp, m))] = coeff
    return TensorOp._trusted(f.n, 3, entries)


def lift23(f: TensorOp) -> TensorOp:
    """Id⊗f: act as f on tensor factors (2,3), identity on factor 1."""
    if f.arity != 2:
        raise ValueError("lift23 expects an arity-2 operator")
    entries = {}
    for (out, inp), coeff in f.entries.items():
        for m in range(1, f.n + 1):
            entries[((m, *out), (m, *inp))] = coeff
    return TensorOp._trusted(f.n, 3, entries)


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


def _constant_coeff(value: int | Fraction) -> LaurentQP:
    """The LaurentQP of a nonzero value in canonical form, skipping ``__init__``."""
    coeff = object.__new__(LaurentQP)
    coeff._terms = {(0, 0): value}
    return coeff


def _constant_pairs(pairs):
    """The pairs with each operator replaced by its constant columns and each
    scalar by its plain value, or None if q or p occurs in any of them."""
    constant = []
    for f, g in pairs:
        if isinstance(f, TensorOp):
            f = f._constant_columns()
        elif type(f) is not int:
            f = f.constant_value() if f.is_constant() else False
        g = g._constant_columns()
        if f is False or g is False:
            return None
        constant.append((f, g))
    return constant


def _constant_sum(n: int, arity: int, pairs) -> TensorOp:
    """The sum of the constant pairs from :func:`_constant_pairs`, in plain
    int and Fraction arithmetic.

    Each input column of the result accumulates ``{output: value}``; its
    zeros are dropped and its integral Fractions demoted to int, as
    ``LaurentQP._trusted`` does.  The result holds only these columns,
    so a chained product never rescans it; its one-term LaurentQP entries
    are built when first read.
    """
    acc: Columns = {}
    for f, g in pairs:
        for inp, g_column in g.items():
            column = acc.get(inp)
            if column is None:
                column = acc[inp] = {}
            if type(f) is dict:
                for mid, c_g in g_column.items():
                    for out, c_f in f.get(mid, {}).items():
                        column[out] = column.get(out, 0) + c_f * c_g
            else:
                for out, c_g in g_column.items():
                    column[out] = column.get(out, 0) + f * c_g
    columns: Columns = {}
    for inp, column in acc.items():
        kept = {}
        for out, value in column.items():
            if value:
                if type(value) is not int and value.denominator == 1:
                    value = value.numerator
                kept[out] = value
        if kept:
            columns[inp] = kept
    return TensorOp._trusted(n, arity, None, columns)


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
    over the operators' cached constant columns in plain int and Fraction
    arithmetic instead (see the module docstring); the result is the same.
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
