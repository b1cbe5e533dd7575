"""Span tracing for the benchmark's traced run.

The library is not edited.  Instead, :func:`instrument` replaces each traced
public function, in every ``itensor`` module namespace that refers to it,
with a wrapper that records a span around the call.  Every call that crosses
a module boundary (``cli`` into ``interval_classify``, ``oracle`` into
``classify``, ``classify`` into ``tensor`` ...) therefore records a span with
its parent, and the originals are restored when the context exits.

Spans live in flat in-memory columns and are only aggregated and written
out at the end.  A span's self time is its duration minus the durations of
its child spans; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("tensor", "classify", "interval", "interval_classify", "oracle", "cli")

# Counting happens after a traced call returns, inside a span of this name,
# so that the caller's self time does not absorb the tracer's own work.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Flat span store: name, start, end, parent span and item group."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._group = 0

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.group.append(self._group)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def item(self, label: str):
        """Root span of one benchmark item; its spans share a group id."""
        self._group += 1
        return self.span(label)

    def call(self, name, fn, args, kwargs, counter):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if counter is not None:
            b = self._open(BOOKKEEPING)
            try:
                self.counts.update(counter(result, args, kwargs))
            finally:
                self._close(b)
        return result

    def mark(self) -> tuple[int, Counter]:
        """Position to aggregate from: span count and a copy of the counts."""
        return len(self.start), Counter(self.counts)

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Total self time per span name over spans ``lo`` to ``hi``."""
        if hi <= lo:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = end - start
        has_parent = parent >= lo
        child = np.bincount(
            parent[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo
        )
        own = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        return {name: float(own[k]) for k, name in enumerate(self.names)}

    def write_jsonl(self, path, hi: int) -> None:
        """One JSON object per span, in start order, for spans before ``hi``."""
        names = [json.dumps(name) for name in self.names]
        with open(path, "w") as fh:
            for k in range(hi):
                fh.write(
                    f'{{"id": {k}, "name": {names[self.name_id[k]]}, '
                    f'"start": {self.start[k]!r}, "end": {self.end[k]!r}, '
                    f'"parent": {self.parent[k]}, "item": {self.group[k]}}}\n'
                )


def _interval_b_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "theorem")
    return f"interval_classify.check_interval_b.{method}"


def _records(result, args, kwargs):
    return Counter(
        f"interval_classify.records.{rec.condition}" for rec in result.conditions
    )


def _vertices(result, args, kwargs):
    return {"oracle.vertices_checked": result.vertices_checked}


def _candidates(result, args, kwargs):
    return {"classify.falsify_p.candidates": result.samples_used}


def _apply_many_work(result, args, kwargs):
    """Model of the batched contraction's work.

    Contracting the trailing index against the vector one axis at a time
    costs 2 * (n^m + n^(m-1) + ... + n^2) flops per candidate.  Bytes count
    the tensor, the candidate block once per vector operand, and the result.
    """
    A, X = args[0], args[1]
    count, n = X.shape
    m = A.order
    flops = 2 * count * sum(n**k for k in range(2, m + 1))
    moved = 8 * (n**m + (m - 1) * count * n + count * n)
    return {
        "tensor.tensor_apply_many.flops_computed": flops,
        "tensor.tensor_apply_many.bytes_computed": moved,
    }


def _report_bytes(result, args, kwargs):
    # dumps_report escapes to ASCII, so characters are bytes.
    return {"cli.report_bytes": len(result)}


# (defining module, function, span name or a function of the call, counter)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "_load_input", "cli.load", None),
    ("cli", "_emit", "cli.emit", None),
    ("cli", "dumps_report", "cli.dumps_report", _report_bytes),
    ("interval", "interval_from_json", "interval.interval_from_json", None),
    ("interval", "midpoint_radius", "interval.midpoint_radius", None),
    ("interval_classify", "check_interval_b", _interval_b_name, None),
    ("interval_classify", "check_interval_double_b",
     "interval_classify.check_interval_double_b", _records),
    ("interval_classify", "classify_interval_double_b_dichotomy",
     "interval_classify.classify_interval_double_b_dichotomy", None),
    ("interval_classify", "interval_verdict_report",
     "interval_classify.interval_verdict_report", None),
    ("oracle", "oracle_interval_b", "oracle.oracle_interval_b", _vertices),
    ("oracle", "oracle_interval_double_b", "oracle.oracle_interval_double_b", _vertices),
    ("oracle", "random_interval_tensor", "oracle.random_interval_tensor", None),
    ("oracle", "random_member", "oracle.random_member", None),
    ("oracle", "equivalence_suite", "oracle.equivalence_suite", None),
    ("classify", "check_b", "classify.check_b", None),
    ("classify", "check_double_b", "classify.check_double_b", None),
    ("classify", "falsify_p", "classify.falsify_p", _candidates),
    ("tensor", "tensor_apply_many", "tensor.tensor_apply_many", _apply_many_work),
    ("tensor", "sign_transform", "tensor.sign_transform", None),
)


def _wrapper(tracer: Tracer, fn, name, counter):
    if callable(name):
        def traced(*args, **kwargs):
            return tracer.call(name(args, kwargs), fn, args, kwargs, counter)
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter)
    traced.__wrapped__ = fn
    return traced


def _modules():
    return [importlib.import_module("itensor")] + [
        importlib.import_module(f"itensor.{m}") for m in MODULES
    ]


def missing() -> list[str]:
    """Traced functions the library no longer defines.  The traced run
    refuses to start while any is missing, so that a rename cannot read as
    a layer whose time dropped to zero."""
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    return [f"itensor.{mod}.{attr}" for mod, attr, _, _ in TRACED
            if not callable(getattr(home[mod], attr, None))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced function through ``tracer`` while the context is
    open.  A traced function missing from the library raises."""
    mods = _modules()
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    patched = []
    try:
        for mod_name, attr, name, counter in TRACED:
            fn = getattr(home[mod_name], attr)
            traced = _wrapper(tracer, fn, name, counter)
            for mod in mods:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, traced)
                    patched.append((mod, attr, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)
