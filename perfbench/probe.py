"""Spans and counts around revcrochet's public functions, taken from outside.

The modules import each other's functions by name, so each function is
patched at every module attribute it is looked up through.  Nothing under
src/ is edited; patches are undone when the `installed` block ends.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, class or None, attribute, span name).  A span name is
# "<layer>.<function>"; the layer is one of the five modules.
TRACE_POINTS = [
    ("revcrochet.cli", None, "parse", "expression.parse"),
    ("revcrochet.cli", None, "build_plan", "calculus.build_plan"),
    ("revcrochet.cli", None, "shape_rows", "shaping.shape_rows"),
    ("revcrochet.cli", None, "render_pattern", "emit.render_pattern"),
    ("revcrochet.cli", None, "render_json", "emit.render_json"),
    ("revcrochet.cli", None, "render_svg", "emit.render_svg"),
    ("revcrochet.calculus", "PatternSpec", "validate", "calculus.validate"),
    ("revcrochet.calculus", None, "find_extrema", "calculus.find_extrema"),
    ("revcrochet.calculus", None, "arclength_rows", "calculus.arclength_rows"),
    ("revcrochet.calculus", None, "solve_landmarks", "calculus.solve_landmarks"),
    ("revcrochet.calculus", None, "adaptive_simpson", "calculus.adaptive_simpson"),
    ("revcrochet.calculus", None, "compile_expr", "expression.compile_expr"),
    ("revcrochet.calculus", None, "differentiate", "expression.differentiate"),
    ("revcrochet.shaping", None, "optimize_placement", "shaping.optimize_placement"),
    ("revcrochet.shaping", None, "row_counts", "shaping.row_counts"),
    ("revcrochet.shaping", None, "compile_expr", "expression.compile_expr"),
    ("revcrochet.emit", None, "compile_expr", "expression.compile_expr"),
    ("revcrochet.emit", "PatternDoc", "to_text", "emit.to_text"),
]
ROOT_SPAN = "cli.run"

# Per-layer time metrics, as the self time of the named spans.  Adaptive
# Simpson calls fold into the calculus span that made them, so
# arclength_ms and landmarks_ms include their quadrature.
SPAN_METRICS = {
    "expression.parse": "expression.parse_ms",
    "expression.compile_expr": "expression.compile_ms",
    "expression.differentiate": "expression.differentiate_ms",
    "calculus.validate": "calculus.validate_ms",
    "calculus.find_extrema": "calculus.extrema_ms",
    "calculus.arclength_rows": "calculus.arclength_ms",
    "calculus.solve_landmarks": "calculus.landmarks_ms",
    "calculus.build_plan": "calculus.plan_self_ms",
    "shaping.optimize_placement": "shaping.optimize_ms",
    "shaping.row_counts": "shaping.row_counts_ms",
    "emit.render_pattern": "emit.pattern_ms",
    "emit.to_text": "emit.text_ms",
    "emit.render_json": "emit.json_ms",
    "emit.render_svg": "emit.svg_ms",
}
FOLDED = {"calculus.adaptive_simpson"}
LAYERS = ("cli", "expression", "calculus", "shaping", "emit")
CALL_COUNTS = {
    "expression.compile_expr": "expression.compile_calls",
    "calculus.adaptive_simpson": "calculus.simpson_calls",
}


def _observe(name, args, result, counts):
    """Work counts read off a traced call's arguments and result."""
    if name == "shaping.optimize_placement":
        if args and args[0] and getattr(result, "q", None) is not None:
            counts["shaping.candidates"] += result.q + result.r
    elif name == "shaping.shape_rows":
        counts["shaping.rows"] += len(result)
        counts["shaping.steep_rows"] += sum(1 for r in result if getattr(r, "steep", False))
    elif name == "calculus.find_extrema":
        counts["calculus.extrema"] += len(result)
    elif name == "calculus.build_plan":
        counts["calculus.segments"] += len(getattr(result, "segments", ()))


def empty_counts():
    keys = ["shaping.candidates", "shaping.rows", "shaping.steep_rows", "calculus.extrema",
            "calculus.segments", "calculus.rejects", *CALL_COUNTS.values()]
    return dict.fromkeys(keys, 0)


@contextmanager
def installed(points, make_wrapper):
    """Replace each function in points by make_wrapper(fn, name).

    A point that no longer resolves raises AttributeError: a renamed or
    moved function must be mapped again, not left out of the figures.
    """
    saved = []
    try:
        for module, owner, attr, name in points:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            fn = getattr(target, attr)
            saved.append((target, attr, fn))
            setattr(target, attr, make_wrapper(fn, name))
        yield
    finally:
        for target, attr, fn in reversed(saved):
            setattr(target, attr, fn)


def span_metrics(spans, counts):
    """Self times in ms per span metric and per layer, plus work counts.

    A span's self time is its duration minus the time its child spans
    cover; a layer's self time sums that over the layer's spans.
    """
    child_time = [0.0] * len(spans)
    owner = [None] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
        owner[i] = owner[parent] if name in FOLDED and parent >= 0 else name
    out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    out.update({f"{layer}.self_ms": 0.0 for layer in LAYERS})
    out.update(counts)
    for i, (name, start, end, _) in enumerate(spans):
        self_ms = (end - start - child_time[i]) * 1000.0
        out[owner[i].split(".")[0] + ".self_ms"] += self_ms
        if owner[i] in SPAN_METRICS:
            out[SPAN_METRICS[owner[i]]] += self_ms
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
    return out


class Tracer:
    """Spans [name, start, end, parent index] kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = empty_counts()
        self._stack = [-1]

    def wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "calculus.validate":
                    counts["calculus.rejects"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            _observe(name, args, result, counts)
            return result

        return traced

    def install(self):
        return installed(TRACE_POINTS, self.wrap)

    def metrics(self):
        return span_metrics(self.spans, self.counts)


class EvalCounter:
    """Counts calls of the f and f' callables that compile_expr returns.

    A compiled tree equal to the parsed function is f; any other is f'.
    """

    POINTS = [
        ("revcrochet.cli", None, "parse", "parse"),
        *((m, None, "compile_expr", "compile") for m in
          ("revcrochet.calculus", "revcrochet.shaping", "revcrochet.emit")),
    ]

    def __init__(self):
        self.counts = {"expression.f_evals": 0, "expression.fprime_evals": 0}
        self._func = None

    def wrap(self, fn, name):
        if name == "parse":
            def parse(text):
                self._func = fn(text)
                return self._func
            return parse

        counts = self.counts

        def compile_counted(tree):
            compiled = fn(tree)
            key = "expression.f_evals" if tree == self._func else "expression.fprime_evals"

            def counted(x):
                counts[key] += 1
                return compiled(x)

            return counted

        return compile_counted

    def install(self):
        return installed(self.POINTS, self.wrap)
