"""In-memory span tracer installed around the package's module attributes.

Each wrapper records one span (name, start, end, parent, operation id) per
call and updates per-name call counts and self time.  Self time is a span's
duration minus the time its child spans cover.  The tracer's own
bookkeeping runs on a paused clock: every span is timed on ``perf_counter``
minus the bookkeeping time accumulated so far, so a parent span does not
absorb the cost of recording its children.  That cost shows up instead in
the benchmark's own time, which is the traced wall time minus the top-level
spans.

Aggregates are kept for every call.  Raw spans are kept for the first
``SPAN_CAP`` calls only, so a long traced pass stays within bounded
memory; they are written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.op = 0
        self.paused = 0.0  # bookkeeping seconds excluded from every span
        self.top_s = 0.0  # total duration of top-level spans
        self._stack: list = []  # [name_id, start, child_seconds, span_index]
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict = {}

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return sid

    def begin(self, name: str) -> None:
        real = perf_counter()
        sid = self._id(name)
        stack = self._stack
        index = len(self.span_start)
        if index < SPAN_CAP:
            self.span_name.append(sid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            index = -1
        now = perf_counter()
        self.paused += now - real
        start = now - self.paused
        if index >= 0:
            self.span_start[index] = start
        stack.append([sid, start, 0.0, index])

    def end(self) -> None:
        real = perf_counter()
        end = real - self.paused
        sid, start, children, index = self._stack.pop()
        duration = end - start
        self.calls[sid] += 1
        self.self_s[sid] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration
        if index >= 0:
            self.span_end[index] = end
        self.paused += perf_counter() - real

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, amount) -> None:
        if amount > self.counters.get(key, 0):
            self.counters[key] = amount

    def wrap(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span; ``observe(result)`` runs off the clock."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if observe is not None:
                real = perf_counter()
                observe(result)
                self.paused += perf_counter() - real
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write the recorded spans as gzipped JSON columns."""
        payload = {
            "names": self.names,
            "name": list(self.span_name),
            "op": list(self.span_op),
            "parent": list(self.span_parent),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "dropped_after": SPAN_CAP,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer, pkg) -> None:
    """Wrap the attributes callers look up, in every module that holds them.

    ``pkg`` has the imported package modules as attributes ``core``,
    ``notation``, ``expr``, ``linsolve``, ``applications`` and ``cli`` (None
    when not imported).  Module-level names are wrapped where each
    caller reads them (``linsolve.divide`` and ``expr.divide`` as well as
    ``core.divide``); operators are wrapped on the class, which is where
    Python looks them up.
    """
    core = pkg.core
    number = core.GrossNumber

    # Operators may return NotImplemented, which carries no terms.
    def result_stats(result) -> None:
        terms = getattr(result, "terms", ())
        tracer.maximum("core.result_terms.max", len(terms))

    def wide_stats(result) -> None:
        terms = getattr(result, "terms", ())
        tracer.maximum("core.result_terms.max", len(terms))
        bits = 0
        for t in terms:
            d = t.digit
            bits = max(bits, d.numerator.bit_length(), d.denominator.bit_length())
        tracer.maximum("core.digit_bits.max", bits)

    def divide_stats(result) -> None:
        tracer.count("core.divide.quotient_terms", len(result.quotient.terms))
        tracer.count("core.divide.inexact", 0 if result.exact else 1)
        wide_stats(result.quotient)

    number.__mul__ = tracer.wrap("core.mul", number.__mul__, wide_stats)
    number.__rmul__ = tracer.wrap("core.mul", number.__rmul__, wide_stats)
    number.__add__ = tracer.wrap("core.add", number.__add__, result_stats)
    number.__radd__ = tracer.wrap("core.add", number.__radd__, result_stats)
    number.__pow__ = tracer.wrap("core.pow", number.__pow__, wide_stats)

    def eval_stats(result) -> None:
        tracer.count("expr.eval_at.inexact", 0 if result[1] else 1)

    # (span name, module that defines it, attribute, observer, other holders)
    # A name the package no longer defines is skipped and reports zero.
    spans = [
        ("core.compare", core, "compare", None, ()),
        ("core._normalize", core, "_normalize", None, ()),
        ("core.divide", core, "divide", divide_stats, (pkg.expr, pkg.linsolve, pkg.applications)),
        ("notation.parse", pkg.notation, "parse", None, (pkg.cli,)),
        ("notation.print_canonical", pkg.notation, "print_canonical", None, (pkg.cli,)),
        ("notation.print_decimal", pkg.notation, "print_decimal", None, (pkg.cli,)),
        ("expr.parse_expr", pkg.expr, "parse_expr", None, (pkg.cli,)),
        ("expr.eval_at", pkg.expr, "eval_at", eval_stats, (pkg.cli,)),
        ("linsolve.solve_grossone", pkg.linsolve, "solve_grossone", None, (pkg.cli,)),
    ]
    for name, module, attr, observe, holders in spans:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        wrapped = tracer.wrap(name, fn, observe)
        for holder in (module, *holders):
            if holder is not None and getattr(holder, attr, None) is fn:
                setattr(holder, attr, wrapped)
