"""The indented JSON of ``cgybe gen`` and ``cgybe eval``, laid out by hand.

json.dumps(obj, indent=2) runs json's pure-Python encoder, since its C
encoder takes no indent, and it needs the whole object first: for gen,
one dict per entry from ``TensorOp.to_json_obj``.  The writer here prints
the same bytes from fixed indentation strings, ints through ``%d`` and
strs through json's C ``encode_basestring_ascii``, and writes each batch
of items as it is walked.  Only gen and eval import this module, when
they write JSON, so no other command compiles it.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as quote

from .laurent import rational_to_str


def write_indented(handle, head: dict, key: str, items, batch: int) -> None:
    """Write what json.dumps(..., indent=2) and a newline print for
    ``head``, ints and strs, with ``key`` last, bound to the list of
    ``items``: each item the text of an element at depth 2, written
    ``batch`` at a time as they come."""
    fields = "".join(f"  {quote(k)}: {quote(v) if type(v) is str else v},\n" for k, v in head.items())
    handle.write(f"{{\n{fields}  {quote(key)}: [")
    sep = "\n"
    for texts in iter(lambda: list(itertools.islice(items, batch)), []):
        handle.write(sep + ",\n".join(texts))
        sep = ",\n"
    handle.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


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
