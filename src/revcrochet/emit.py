"""Render shaping rows into crochet instructions and export the pattern.

Text dialect, one row per line:

    Row 0: Chain 6. join work, and Sc6.          (open start)
    Row 0: Create a magic ring with 6 stitches.  (closed start)
    Row 5:  Sc6, Inc, *Sc3, Inc* (5 times), Sc2. (35 stitches)
    Tie off                                       (open end)

A shaped row with ops at {q*j + k} renders as the split-first form
"Sc(k-1), Op, *Sc(q-1), Op* (n-1 times), Sc(t)" with t = q + r - k;
zero-length Sc runs are omitted, the starred group is omitted when n = 1,
and the k = q, t = 0 case collapses to "*Sc(q-1), Op* (n times)".
Warning notes go at the top of the pattern; stuffing and closing lines at
the bottom.  The JSON export carries the full structure (schema_version 1),
from which the text can be rebuilt, and the SVG export plots the curve
with one marker per row landmark.

PatternRow and PatternDoc are immutable namedtuples; a row's JSON object
lists its fields in their declared order.  json is imported by
render_json, the one function that uses it, so importing this module
stays cheap.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .calculus import LandmarkPlan, PatternSpec, check_height, eval_height
from .expression import compile_expr  # noqa: F401 - perfbench/probe.py traces it here
from .shaping import OP_DECREASE, OP_INCREASE, OP_NONE, RowShaping

SCHEMA_VERSION = 1
SVG_SAMPLES = 512
OP_CAST_ON = "cast-on"

STUFFING_LINE = "Stuff the shape with fiberfill before closing."
CLOSING_LINE = "Dec to close; tie off and weave in end."
TIE_OFF_LINE = "Tie off"


class PatternRow(
    namedtuple("PatternRow", "row x stitches op n_ops q r k positions instruction")
):
    """One row of a finished pattern; the field order is its JSON key order."""

    __slots__ = ()


class PatternDoc(
    namedtuple(
        "PatternDoc",
        "function a b stitch_gauge row_gauge scale prioritize_extrema total_rows"
        " closed_start closed_end stuffed warnings landmarks rows finishing",
    )
):
    """A finished pattern: metadata, warnings, rows, and closure handling."""

    __slots__ = ()

    def to_text(self) -> str:
        lines = [f"Note: {w}" for w in self.warnings]
        lines.extend(r.instruction for r in self.rows)
        lines.extend(self.finishing)
        return "\n".join(lines) + "\n"


def _stitches(n: int) -> str:
    return "1 stitch" if n == 1 else f"{n} stitches"


def _op_word(op: str) -> str:
    return "Inc" if op == OP_INCREASE else "Dec"


def render_row(shaping: RowShaping) -> str:
    """Instruction text for one row, ending with its stitch total."""
    total = f" ({_stitches(shaping.stitches)})"
    if shaping.op == OP_NONE:
        return f"Sc{shaping.stitches}.{total}"
    if shaping.steep:
        kind = "increases" if shaping.op == OP_INCREASE else "decreases"
        return f"This row cannot be worked with single {kind}; see the note at the top.{total}"
    opw = _op_word(shaping.op)
    n, q, k = shaping.n_ops, shaping.q, shaping.k
    t = q + shaping.r - k  # plain stitches after the last op
    star = f"*Sc{q - 1}, {opw}*" if q > 1 else f"*{opw}*"
    if k == q and t == 0:
        return f"{star} ({n} times).{total}"
    parts = []
    if k > 1:
        parts.append(f"Sc{k - 1}")
    parts.append(opw)
    if n > 1:
        parts.append(f"{star} ({n - 1} times)")
    if t > 0:
        parts.append(f"Sc{t}")
    return ", ".join(parts) + "." + total


def render_pattern(
    spec: PatternSpec,
    plan: LandmarkPlan,
    rows: list[RowShaping],
    prioritize_extrema: bool = True,
) -> PatternDoc:
    """Assemble the full document from shaping decisions.

    rows[0] is the cast-on row (see shaping.shape_rows): a chain when the
    surface is open at the start, a magic ring when it closes there.
    shape_rows drops exactly the 0-stitch landmarks at each end, and the
    plan's first and last landmarks are a and b, so an end is closed when
    its row is gone.  Steep rows produce a note at the top naming the row.
    """
    closed_start = rows[0].x != spec.a
    closed_end = rows[-1].x != spec.b
    stuffed = closed_start and closed_end

    warnings = []
    pattern_rows = []
    for i, sh in enumerate(rows):
        if i == 0:
            if closed_start:
                body = f"Create a magic ring with {_stitches(sh.stitches)}."
            else:
                body = f"Chain {sh.stitches}. join work, and Sc{sh.stitches}."
            line = f"Row 0: {body}"
            op = OP_CAST_ON
        else:
            line = f"Row {sh.index}:  {render_row(sh)}"
            op = sh.op
            if sh.steep:
                prev = rows[i - 1].stitches
                warnings.append(
                    f"Row {sh.index} goes from {prev} to {_stitches(sh.stitches)}, "
                    "which more than doubles or more than halves the row; single "
                    "increases or decreases cannot work that change. Add a positive "
                    "constant to the function or adjust the scale."
                )
        pattern_rows.append(
            PatternRow(
                row=sh.index,
                x=sh.x,
                stitches=sh.stitches,
                op=op,
                n_ops=sh.n_ops,
                q=sh.q,
                r=sh.r,
                k=sh.k,
                positions=sh.positions,
                instruction=line,
            )
        )

    finishing = []
    if stuffed:
        finishing.append(STUFFING_LINE)
    finishing.append(CLOSING_LINE if closed_end else TIE_OFF_LINE)

    return PatternDoc(
        function=spec.source,
        a=spec.a,
        b=spec.b,
        stitch_gauge=spec.stitch_gauge,
        row_gauge=spec.row_gauge,
        scale=spec.scale,
        prioritize_extrema=prioritize_extrema,
        total_rows=plan.total_rows,
        closed_start=closed_start,
        closed_end=closed_end,
        stuffed=stuffed,
        warnings=tuple(warnings),
        landmarks=tuple(plan.landmarks),
        rows=tuple(pattern_rows),
        finishing=tuple(finishing),
    )


def render_json(doc: PatternDoc) -> str:
    """Serialize the document; keys follow schema_version in field order.

    Tuples are written as JSON arrays, and "rows" keeps its place.
    """
    obj = {"schema_version": SCHEMA_VERSION, **doc._asdict()}
    obj["rows"] = [r._asdict() for r in doc.rows]
    import json

    return json.dumps(obj, indent=2) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(spec: PatternSpec, plan: LandmarkPlan) -> str:
    """Standalone SVG of f over [a, b] with one marker per landmark.

    The curve is sampled at SVG_SAMPLES points; the viewBox is the data
    bounding box padded by 5% on every side (y is negated so the curve
    reads the usual way up), and the markers sit at plan.heights.  A sample
    where f is undefined or not finite raises SpecValidationError.  Output
    is deterministic for identical inputs.
    """
    f = spec.curve.f
    a, b, n = spec.a, spec.b, SVG_SAMPLES
    xs = [a + i * (b - a) / (n - 1) for i in range(n)]
    ys = [eval_height(f, x) for x in xs]
    if not math.isfinite(sum(ys)):  # one pass in C when every sample is finite
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                check_height(x, y, False)

    ymin, ymax = min(ys), max(ys)
    pad_x = 0.05 * (spec.b - spec.a)
    height = ymax - ymin
    pad_y = 0.05 * height if height > 0 else 0.05 * max(1.0, abs(ymax))
    vb_x = spec.a - pad_x
    vb_y = -(ymax + pad_y)
    vb_w = (spec.b - spec.a) + 2 * pad_x
    vb_h = height + 2 * pad_y
    extent = max(vb_w, vb_h)
    stroke = 0.004 * extent
    radius = 0.010 * extent

    points = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in zip(xs, ys))
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600" '
        f'viewBox="{_fmt(vb_x)} {_fmt(vb_y)} {_fmt(vb_w)} {_fmt(vb_h)}" '
        'preserveAspectRatio="xMidYMid meet">',
        f'<rect x="{_fmt(vb_x)}" y="{_fmt(vb_y)}" width="{_fmt(vb_w)}" '
        f'height="{_fmt(vb_h)}" fill="white"/>',
        f'<polyline fill="none" stroke="#336699" stroke-width="{_fmt(stroke)}" '
        f'points="{points}"/>',
    ]
    r = _fmt(radius)
    for x, y in zip(plan.landmarks, plan.heights):
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{r}" fill="#cc3333"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
