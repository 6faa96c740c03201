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

PatternRow and PatternDoc are immutable records; a row's JSON object
lists its fields in their declared order.  render_json is a writer for
this one schema, byte-identical to json.dumps(indent=2): it takes
documents as render_pattern builds them, whose values are ints, finite
floats, bools, None, str and tuples of those.  Its one borrowed part,
json's C string escaper, comes from _json when render_json runs, so
neither importing this module nor a JSON run loads the json package.
"""

from __future__ import annotations

import math

from .calculus import LandmarkPlan, PatternSpec, SpecValidationError, check_height
from .expression import EvalDomainError, Record
from .expression import compile_expr  # noqa: F401 - perfbench/probe.py traces it here
from .shaping import OP_DECREASE, OP_INCREASE, OP_NONE, RowShaping

SCHEMA_VERSION = 1
SVG_SAMPLES = 512
OP_CAST_ON = "cast-on"

STUFFING_LINE = "Stuff the shape with fiberfill before closing."
CLOSING_LINE = "Dec to close; tie off and weave in end."
TIE_OFF_LINE = "Tie off"


class PatternRow(Record):
    """One row of a finished pattern; the field order is its JSON key order."""

    __slots__ = ()

    def __new__(cls, row, x, stitches, op, n_ops, q, r, k, positions, instruction):
        return tuple.__new__(cls, (row, x, stitches, op, n_ops, q, r, k, positions, instruction))


class PatternDoc(Record):
    """A finished pattern: metadata, warnings, rows, and closure handling."""

    __slots__ = ()

    def __new__(
        cls, function, a, b, stitch_gauge, row_gauge, scale, prioritize_extrema, total_rows,
        closed_start, closed_end, stuffed, warnings, landmarks, rows, finishing,
    ):
        return tuple.__new__(cls, (
            function, a, b, stitch_gauge, row_gauge, scale, prioritize_extrema, total_rows,
            closed_start, closed_end, stuffed, warnings, landmarks, rows, finishing,
        ))

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


def render_pattern(spec: PatternSpec, plan: LandmarkPlan, rows: list[RowShaping]) -> PatternDoc:
    """Assemble the full document from shaping decisions.

    rows[0] is the cast-on row (see shaping.shape_rows): a chain when the
    surface is open at the start, a magic ring when it closes there.
    shape_rows drops exactly the 0-stitch landmarks at each end, and the
    plan's first and last landmarks are a and b, so an end is closed when
    its row is gone.  Steep rows produce a note at the top naming the row.
    prioritize_extrema is the plan's, so the document says how it was built.
    """
    index, x, prev, _, n_ops, q, r, k, positions, _ = rows[0]
    closed_start = x != spec.a
    closed_end = rows[-1].x != spec.b
    stuffed = closed_start and closed_end

    if closed_start:
        body = f"Create a magic ring with {_stitches(prev)}."
    else:
        body = f"Chain {prev}. join work, and Sc{prev}."
    cast_on = PatternRow(index, x, prev, OP_CAST_ON, n_ops, q, r, k, positions, f"Row 0: {body}")
    pattern_rows = [cast_on]
    warnings = []
    for sh in rows[1:]:
        index, x, stitches, op, n_ops, q, r, k, positions, steep = sh
        if steep:
            warnings.append(
                f"Row {index} goes from {prev} to {_stitches(stitches)}, "
                "which more than doubles or more than halves the row; single "
                "increases or decreases cannot work that change. Add a positive "
                "constant to the function or adjust the scale."
            )
        pattern_rows.append(PatternRow(
            index, x, stitches, op, n_ops, q, r, k, positions, f"Row {index}:  {render_row(sh)}"
        ))
        prev = stitches

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
        prioritize_extrema=plan.prioritize_extrema,
        total_rows=plan.total_rows,
        closed_start=closed_start,
        closed_end=closed_end,
        stuffed=stuffed,
        warnings=tuple(warnings),
        landmarks=tuple(plan.landmarks),
        rows=tuple(pattern_rows),
        finishing=tuple(finishing),
    )


# One row object of the pattern JSON, as json.dumps(indent=2) indents it
# inside "rows", with one %s per field of PatternRow.
_ROW_JSON = "    {\n" + ",\n".join(f'      "{name}": %s' for name in PatternRow._fields) + "\n    }"


def render_json(doc: PatternDoc) -> str:
    """Serialize the document, byte for byte as json.dumps(obj, indent=2) + "\n".

    obj is {"schema_version": 1, **doc._asdict()} with every row as its
    _asdict() and every tuple as a list.  doc is as render_pattern builds
    it: ints, finite floats, bools, None, str, tuples of those, and
    PatternRows in "rows".  Numbers are written by repr and strings by
    json's C escaper, as json.dumps writes them; json.dumps itself runs
    its pure-Python encoder whenever indent is set.  The escaper comes from
    _json, not json, whose __init__ loads json.decoder and with it re.
    """
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # no C accelerator: json's Python escaper, the same bytes
        from json.encoder import encode_basestring_ascii as quote

    def scalar(v):
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        return quote(v) if isinstance(v, str) else repr(v)

    out = [f'{{\n  "schema_version": {SCHEMA_VERSION}']
    for name, value in zip(PatternDoc._fields, doc):
        if type(value) is not tuple:
            out.append(f'  "{name}": {scalar(value)}')
            continue
        if name == "rows":
            items = [
                _ROW_JSON % (
                    row, x, stitches, quote(op), n_ops,
                    "null" if q is None else q,
                    "null" if r is None else r,
                    "null" if k is None else k,
                    "[\n        " + ",\n        ".join(map(repr, positions)) + "\n      ]"
                    if positions else "[]",
                    quote(instruction),
                )
                for row, x, stitches, op, n_ops, q, r, k, positions, instruction in value
            ]
        else:
            items = ["    " + scalar(v) for v in value]
        array = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
        out.append(f'  "{name}": {array}')
    return ",\n".join(out) + "\n}\n"


def render_svg(spec: PatternSpec, plan: LandmarkPlan) -> str:
    """Standalone SVG of f over [a, b] with one marker per landmark.

    The curve is sampled at SVG_SAMPLES points; the viewBox is the data
    bounding box padded by 5% on every side (y is negated so the curve
    reads the usual way up), and the markers sit at plan.heights.  A sample
    where f is undefined or not finite raises SpecValidationError naming
    the first such x.  Every number is written with %.6g: the points by
    one % over the flat tuple of their (x, -y) pairs, and the markers by
    one % over the circle template repeated once per landmark.  Output is
    deterministic for identical inputs.
    """
    f = spec.curve.f
    a, b, n = spec.a, spec.b, SVG_SAMPLES
    width, last = b - a, n - 1
    xs = [a + i * width / last for i in range(n)]
    try:
        ys = list(map(f, xs))
    except EvalDomainError as exc:  # map stops at the first undefined x, which exc names
        raise SpecValidationError(f"f is {exc}") from exc
    if not math.isfinite(sum(ys)):  # one pass in C when every sample is finite
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                check_height(x, y, False)

    ymin, ymax = min(ys), max(ys)
    pad_x = 0.05 * width
    height = ymax - ymin
    pad_y = 0.05 * height if height > 0 else 0.05 * max(1.0, abs(ymax))
    vb_x = a - pad_x
    vb_y = -(ymax + pad_y)
    vb_w = width + 2 * pad_x
    vb_h = height + 2 * pad_y
    extent = max(vb_w, vb_h)
    stroke = 0.004 * extent
    radius = 0.010 * extent

    box = (vb_x, vb_y, vb_w, vb_h)
    points = [0.0] * (2 * n)
    points[::2] = xs
    points[1::2] = [-y for y in ys]
    marks = [0.0] * (2 * len(plan.landmarks))
    marks[::2] = plan.landmarks
    marks[1::2] = [-y for y in plan.heights]
    circle = '\n<circle cx="%%.6g" cy="%%.6g" r="%.6g" fill="#cc3333"/>' % radius
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600" '
        'viewBox="%.6g %.6g %.6g %.6g" preserveAspectRatio="xMidYMid meet">\n' % box
        + '<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" fill="white"/>\n' % box
        + '<polyline fill="none" stroke="#336699" stroke-width="%.6g" points="' % stroke
        + " ".join(["%.6g,%.6g"] * n) % tuple(points)
        + '"/>'
        + circle * len(plan.landmarks) % tuple(marks)
        + "\n</svg>\n"
    )
