"""In-memory spans around the public functions of each cgybe layer.

``Tracer.installed()`` replaces each traced function by a wrapper in every
cgybe module that refers to it, so calls made inside the package (verify
calling ``lift12``, the CLI calling ``check_ybe``) are seen as well as the
benchmark's own calls; leaving the block restores the originals.  The
program itself is not changed.  A span holds its name, start, end, the
index of the span that was open when it began, and a few counts taken from
the call's arguments and result.

The Laurent layer is called millions of times, too often for a span per
call, so its numbers come from ``cProfile`` (see ``profile_metrics``).
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

import cgybe
from cgybe import cli, laurent, model, oracles, tensor, verify
from cgybe.tensor import TensorOp

from workloads import CHECK_SPANS

MODULES = (cgybe, laurent, tensor, model, verify, oracles, cli)

ORACLE_NAMES = tuple(oracles.oracle_names())

# name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "laurent.self_s": "s",
    "laurent.mul_calls": "count",
    "laurent.fraction_new_calls": "count",
    "laurent.terms_max": "count",
    "laurent.terms_mean": "count",
    "tensor.lift_s": "s",
    "tensor.compose_s": "s",
    "tensor.compose_calls": "count",
    "tensor.coeff_products": "count",
    "tensor.nnz_max": "count",
    "tensor.diff_s": "s",
    "tensor.self_s": "s",
    "model.build_s": "s",
    **{f"verify.check_s.{name}": "s" for name in CHECK_SPANS},
    **{f"oracles.scan_s.{name}": "s" for name in ORACLE_NAMES},
    "oracles.tuples_scanned": "count",
    "oracles.tuples_per_s": "1/s",
    "cli.gen_s": "s",
    "cli.verify_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_ratio": "ratio",
}

# Metrics that count work: they must repeat exactly between rounds.  Not
# cli.bytes_out, whose verify lines carry elapsed_ms of varying width.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _compose_counts(args, result) -> dict:
    """Coefficient products from operand sparsity, nnz and terms of the result."""
    left, right = args
    by_input = Counter(inp for _, inp in left.entries)
    products = sum(by_input[mid] for mid, _ in right.entries)
    terms = [len(coeff) for coeff in result.entries.values()]
    return {
        "coeff_products": products,
        "nnz": len(terms),
        "terms_sum": sum(terms),
        "terms_max": max(terms, default=0),
    }


def _scan_counts(args, result) -> dict:
    """Tuples an oracle tried: the whole window, or up to the counterexample."""
    window = result.window
    side = window.hi - window.lo + 1
    if result.counterexample is None:
        return {"tuples": side**window.arity}
    index = 0
    for value in result.counterexample:
        index = index * side + (value - window.lo)
    return {"tuples": index + 1}


def _check_name(args, result) -> str:
    first = args[0]
    n = first.n if isinstance(first, TensorOp) else first
    return f"verify.{result.name}_n{n}"


def _constant(label: str):
    return lambda args, result: label


# (owner, attribute, span name from (args, result), counts from (args, result))
def _targets():
    targets = [
        (model, fn, _constant(f"model.{fn}"), None)
        for fn in ("permutation_op", "g_op", "cg_op", "cg_twisted_op")
    ]
    targets += [
        (tensor, "lift12", _constant("tensor.lift"), None),
        (tensor, "lift23", _constant("tensor.lift"), None),
        (TensorOp, "compose", _constant("tensor.compose"), _compose_counts),
        (tensor, "endo_eq", _constant("tensor.diff"), None),
    ]
    targets += [
        (verify, fn, _check_name, None)
        for fn in (
            "check_ybe",
            "check_compatibility",
            "check_mixed_conditions",
            "check_hecke",
            "check_gp_relations",
            "check_quadratic",
        )
    ]
    targets += [
        (oracles, "run_oracles", _constant("oracles.run"), None),
        (oracles, "_scan", lambda args, result: f"oracles.scan.{args[0]}", _scan_counts),
        (cli, "main", lambda args, result: f"cli.{args[0][0]}", None),
    ]
    return targets


class Tracer:
    """Collects spans while installed; ``spans`` is in order of span start."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, fn, namer, counter):
        def traced(*args, **kwargs):
            span = Span("", time.perf_counter(), parent=self._open[-1] if self._open else None)
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.name = f"raised.{fn.__qualname__}"
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.name = namer(args, result)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every cgybe reference to a traced function through a span."""
        saved = []
        try:
            for owner, attr, namer, counter in _targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(original, namer, counter)
                owners = [owner] if isinstance(owner, type) else MODULES
                for holder in owners:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, name, value))
                            setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, value in reversed(saved):
                setattr(holder, name, value)

    def to_json_obj(self) -> list[dict]:
        return [asdict(span) for span in self.spans]

    def _inside_model(self, span: Span) -> bool:
        """True if a model constructor called this one (cg_op builds P and g)."""
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name.startswith("model."):
                return True
            parent = self.spans[parent].parent
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts from the spans (see PER_LAYER_UNITS)."""
        seconds: defaultdict = defaultdict(float)  # a layer never called reports 0.0
        for span in self.spans:
            seconds[span.name] += span.seconds
            if span.name.startswith("model.") and not self._inside_model(span):
                seconds["model.build"] += span.seconds
        composes = [s.counts for s in self.spans if s.name == "tensor.compose"]
        nnz_total = sum(c["nnz"] for c in composes)
        tuples = sum(s.counts["tuples"] for s in self.spans if s.name.startswith("oracles.scan."))
        scan_s = sum(v for k, v in seconds.items() if k.startswith("oracles.scan."))
        unknown = {
            s.name
            for s in self.spans
            if s.name.startswith("verify.") and s.name[7:] not in CHECK_SPANS
        }
        if unknown:
            raise ValueError(f"checks missing from CHECK_SPANS: {sorted(unknown)}")
        metrics = {
            "laurent.terms_max": max((c["terms_max"] for c in composes), default=0),
            "laurent.terms_mean": (
                sum(c["terms_sum"] for c in composes) / nnz_total if nnz_total else 0.0
            ),
            "tensor.lift_s": seconds["tensor.lift"],
            "tensor.compose_s": seconds["tensor.compose"],
            "tensor.compose_calls": len(composes),
            "tensor.coeff_products": sum(c["coeff_products"] for c in composes),
            "tensor.nnz_max": max((c["nnz"] for c in composes), default=0),
            "tensor.diff_s": seconds["tensor.diff"],
            "model.build_s": seconds["model.build"],
            "oracles.tuples_scanned": tuples,
            "oracles.tuples_per_s": tuples / scan_s if scan_s else 0.0,
            "cli.gen_s": seconds["cli.gen"],
            "cli.verify_s": seconds["cli.verify"],
        }
        metrics.update(
            {f"verify.check_s.{name}": seconds[f"verify.{name}"] for name in CHECK_SPANS}
        )
        metrics.update(
            {f"oracles.scan_s.{name}": seconds[f"oracles.scan.{name}"] for name in ORACLE_NAMES}
        )
        return metrics


def profile_metrics(profile: cProfile.Profile) -> tuple[dict[str, float], dict[str, float]]:
    """(Laurent and tensor metrics, self seconds per source file) from cProfile."""
    stats = pstats.Stats(profile).stats
    self_s: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.items():
        module = os.path.basename(filename)
        self_s[module] += tottime
        calls[(module, func)] += ncalls
    metrics = {
        "laurent.self_s": self_s["laurent.py"] + self_s["fractions.py"],
        "laurent.mul_calls": calls[("laurent.py", "__mul__")],
        "laurent.fraction_new_calls": calls[("fractions.py", "__new__")],
        "tensor.self_s": self_s["tensor.py"],
    }
    return metrics, dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
