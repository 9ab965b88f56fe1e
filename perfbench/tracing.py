"""Run-time tracing of the library's public functions; no source file changes.

Spans wrap the public entry points the benchmark calls (and any call to
them through the same module attribute, such as ``hc_equivalent`` calling
``hc_normal_form``).  Counting wrappers sit on ``permutations.compose`` and
on ``canonical_key`` under every module name that imported it.  Spans are
kept in memory as tuples and turned into metrics when the run ends.
"""

from __future__ import annotations

import time

# (module, attribute, span name)
SPANNED = (
    ("hurwitz", "hc_normal_form", "hurwitz.nf"),
    ("hurwitz", "hc_equivalent", "hurwitz.equiv"),
    ("hurwitz", "braid_simplicity", "hurwitz.simplicity"),
    ("covering", "build_covering", "covering"),
    ("braids", "braids_equal", "braids"),
    ("charts", "validate_chart", "charts.validate"),
    ("charts", "chart_hurwitz_system", "charts.monodromy"),
    ("charts", "apply_chart_move", "charts.move"),
    ("charts", "chart_orientable", "charts.orient"),
    ("links", "enumerate_simple_colorings", "links.colorings"),
    ("links", "find_simple_lift", "links.lift"),
    ("links", "r1_add", "links.reidemeister"),
    ("links", "r2_add", "links.reidemeister"),
    ("quandles", "quandle_colorings", "quandles.colorings"),
    ("quandles", "make_Td", "quandles.make_Td"),
    ("quandles", "lift_through_surjection", "quandles.lift_surjection"),
    ("quandles", "quandle_validate", "quandles.validate"),
)
KEY_MODULES = ("braids", "hurwitz", "links", "quandles")


class Tracer:
    """Spans are (name, op index, start ns, end ns, parent span index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._root = None  # (start ns, kind) of the open operation
        self.compose_calls = 0
        self.key_calls = 0
        self.key_letters = 0
        self._saved = []

    def begin_op(self, index, kind):
        """Open the root span of one operation."""
        self.op = index
        self.stack.append(len(self.spans))
        self.spans.append(None)
        self._root = (time.perf_counter_ns(), kind)

    def end_op(self):
        idx = self.stack.pop()
        start, kind = self._root
        self.spans[idx] = ("op:" + kind, self.op, start, time.perf_counter_ns(), None)
        self.op = None

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, self.op, start, time.perf_counter_ns(), parent)
                stack.pop()

        return wrapped

    def _compose(self, fn):
        def wrapped(a, b):
            self.compose_calls += 1
            return fn(a, b)

        return wrapped

    def _key(self, fn):
        def wrapped(w):
            key = fn(w)
            self.key_calls += 1
            self.key_letters += sum(map(len, key))
            return key

        return wrapped

    def _patch(self, module, attr, wrapper):
        if hasattr(module, attr):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper(original))

    def install(self, lib):
        for mod, attr, name in SPANNED:
            self._patch(getattr(lib, mod), attr, lambda fn, name=name: self._span(name, fn))
        self._patch(lib.permutations, "compose", self._compose)
        for mod in KEY_MODULES:
            self._patch(getattr(lib, mod), "canonical_key", self._key)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per span: (name, op index, self seconds), self = duration minus children."""
        child = [0] * len(self.spans)
        for name, op, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], s[1], (s[3] - s[2] - c) / 1e9) for s, c in zip(self.spans, child)]
