"""Crochet patterns for surfaces of revolution.

Revolve a positive function f about the x-axis over [a, b]; given a
crochet gauge and a physical scale, this package places one row landmark
per row of fabric by arclength, counts stitches around each landmark,
spreads the increases and decreases so they avoid the previous row's, and
renders the whole thing as a pattern (text, JSON, or an SVG plot).
"""

from .calculus import (
    LandmarkPlan,
    PatternSpec,
    QuadratureError,
    Segment,
    SpecValidationError,
    arclength_rows,
    build_plan,
    find_extrema,
    solve_landmarks,
)
from .emit import (
    PatternDoc,
    PatternRow,
    render_json,
    render_pattern,
    render_row,
    render_svg,
)
from .expression import (
    EvalDomainError,
    ExpressionError,
    Expr,
    ParseError,
    differentiate,
    parse,
)
from .shaping import (
    RowShaping,
    optimize_placement,
    row_counts,
    shape_rows,
    stitch_count,
)

__version__ = "0.1.0"

__all__ = [
    "EvalDomainError",
    "ExpressionError",
    "Expr",
    "LandmarkPlan",
    "ParseError",
    "PatternDoc",
    "PatternRow",
    "PatternSpec",
    "QuadratureError",
    "RowShaping",
    "Segment",
    "SpecValidationError",
    "arclength_rows",
    "build_plan",
    "differentiate",
    "find_extrema",
    "optimize_placement",
    "parse",
    "render_json",
    "render_pattern",
    "render_row",
    "render_svg",
    "row_counts",
    "shape_rows",
    "solve_landmarks",
    "stitch_count",
]
