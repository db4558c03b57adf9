"""The text of ``cgybe gen`` and ``cgybe eval``, written as it is walked.

Every format is a fixed opening, then the text of each item with a
separator between items, then a fixed closing, and :func:`write` writes
the items ``batch`` at a time as they come, so no output is held as one
string.  The formats:

* ``entries`` (gen JSON) and ``rows`` (eval JSON): what json.dumps(...,
  indent=2) and a newline print.  json.dumps runs json's pure-Python
  encoder, since its C encoder takes no indent, and it needs the whole
  object first; here the same bytes come from fixed indentation strings,
  ints through ``%d`` and strs through json's C
  ``encode_basestring_ascii``.  An item is an entry of
  ``TensorOp.to_json_obj`` or a row of ``to_numeric_rows`` as strs.
* ``csv``: a row of ``to_numeric_rows`` per line, num/den cells split by
  ``,``, a newline after each row.
* ``latex``: a ``pmatrix`` of ``LaurentQP.to_latex`` cells split by
  `` & ``, rows by `` \\\\``.

The dense formats read ``TensorOp._dense_rows``: row r is the flattened
input tuple, column c the flattened output tuple.  Only gen and eval
import this module, so no other command compiles it.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as quote

from .laurent import LaurentQP, rational_to_str


def write(handle, fmt: str, operator, head: dict | None = None) -> None:
    """Write ``operator`` to ``handle`` as ``fmt``: ``entries``, the JSON of
    ``to_json_obj``; ``rows``, the JSON of the ints and strs of ``head``
    and then the rows; ``csv``; or ``latex``."""
    if fmt == "csv":
        cells = operator._dense_rows(lambda coeff: rational_to_str(coeff.constant_value()))
        opening, items, sep, closing, batch = "", map(",".join, cells), "\n", "\n", 1
    elif fmt == "latex":
        items = map(" & ".join, operator._dense_rows(LaurentQP.to_latex))
        opening, sep, closing, batch = "\\begin{pmatrix}\n", " \\\\\n", "\n\\end{pmatrix}\n", 1
    else:
        entries = fmt == "entries"
        head = {"n": operator.n, "arity": operator.arity} if entries else head
        items, batch = (entry_texts(operator), 1000) if entries else (row_texts(operator), 1)
        fields = "".join(f"  {quote(k)}: {quote(v) if type(v) is str else v},\n" for k, v in head.items())
        opening, sep, closing = f"{{\n{fields}  {quote(fmt)}: [\n", ",\n", "\n  ]\n}\n"
        if entries and operator.is_zero():  # g at n = 1; json.dumps prints []
            opening, closing = opening[:-1], "]\n}\n"
    handle.write(opening)
    for i, texts in enumerate(iter(lambda: list(itertools.islice(items, batch)), [])):
        handle.write((sep if i else "") + sep.join(texts))
    handle.write(closing)


def entry_texts(operator):
    """The text of each entry of ``operator.to_json_obj()`` at depth 2, in
    the order of ``sorted_entries``; each label and coefficient is laid
    out once."""
    labels: dict = {}
    coeffs: dict = {}
    for (out, inp), coeff in operator.sorted_entries():
        for label in (out, inp):
            if label not in labels:
                labels[label] = "[\n" + ",\n".join("        %d" % i for i in label) + "\n      ]"
        if coeff not in coeffs:
            coeffs[coeff] = ",\n".join(
                '        {\n          "q": %d,\n          "p": %d,\n          "coeff": %s\n        }'
                % (a, b, quote(rational_to_str(x)))
                for (a, b), x in coeff.items_sorted()
            )
        texts = (labels[out], labels[inp], coeffs[coeff])
        yield '    {\n      "out": %s,\n      "in": %s,\n      "coeff": [\n%s\n      ]\n    }' % texts


def row_texts(numeric):
    """The text of each row of ``numeric.to_numeric_rows()`` at depth 2,
    its cells as strs, one row at a time."""
    rows = numeric._dense_rows(lambda coeff: quote(str(coeff.constant_value())))
    return ("    [\n      " + ",\n      ".join(row) + "\n    ]" for row in rows)
