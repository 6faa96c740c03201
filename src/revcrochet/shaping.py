"""Per-row stitch counts and increase/decrease placement.

A row at landmark x gets round(2*pi * scale * stitch_gauge/4 * f(x))
stitches.  When consecutive rows differ by n stitches, the n shaping ops
are laid out by the remainder method: with min(s_prev, s_cur) = q*n + r,
the ops sit at instruction positions {q*j + k} for a shift k in [1, q+r].
The shift is chosen to keep this row's ops far from the previous row's on
the circle: maximize the minimum circular distance d1 between the two
rows' position ratios, break ties by the larger mean nearest-neighbor
distance d2.

The search is exact integer arithmetic.  With the reference row over D
instructions and this row over low = min(s_prev, s_cur), every ratio is a
multiple of 1/(D*low), and every candidate position is some m/low.  One
table per row holds, for each m in 0..low-1, the circular distance (in
units of 1/(D*low)) from m/low to the nearest reference ratio, filled gap
by gap between the sorted reference ratios.  A shift k then scores the
integer key (min, sum) of its n table entries, which orders candidates
exactly as (d1, d2) does.  _best_shift scores only the s <= q+r shifts
that can still win, so a row costs O(low + |ref|*log|ref| + s*n).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .calculus import LandmarkPlan, PatternSpec, SpecValidationError, check_height, round_half_away
from .expression import compile_expr  # noqa: F401 - perfbench/probe.py traces it here

OP_NONE = "none"
OP_INCREASE = "increase"
OP_DECREASE = "decrease"

# Most stitches, summed over all rows, that shape_rows lays out.  Shaping costs
# up to about 0.1 us per stitch (CPython 3.11, 2-vCPU VM): a 1,700-row cone of
# 15.1 million shapes in 0.6 s; the running example at scale 30 has 14.3 million.
MAX_STITCHES = 16_000_000


class RowShaping(
    namedtuple(
        "RowShaping",
        "index x stitches op n_ops q r k positions steep",
        defaults=(0, None, None, None, (), False),
    )
):
    """Shaping decision for one row.

    positions are 1-indexed instruction slots; for a shaped row they are
    {q*j + k : 0 <= j < n_ops} with 1 <= k <= q + r, and an increase row
    consumes min(s_prev, s_cur) instructions while producing s_cur stitches.
    steep marks a row whose stitch change exceeds what single increases or
    decreases can do (n_ops > min); it carries no positions.
    """

    __slots__ = ()


def stitch_count(spec: PatternSpec, x: float) -> int:
    """Stitches around the surface at landmark x."""
    if not (spec.a <= x <= spec.b):
        raise ValueError(f"x={x!r} outside [{spec.a!r}, {spec.b!r}]")
    y = spec.curve.f(x)
    return round_half_away(2.0 * math.pi * spec.stitches_per_unit * y)


def landmark_heights(spec: PatternSpec, plan: LandmarkPlan) -> list[float]:
    """f at every landmark, checked as validate checks its grid points.

    A rounded landmark can fall between those points.  A plan whose widest
    row has 0 stitches raises SpecValidationError too.
    """
    f = spec.curve.f
    heights = [f(x) for x in plan.landmarks]
    # Two passes in C when every landmark is fine; min skips a nan that is
    # not first, the sum does not.
    if not (min(heights) > 0 and math.isfinite(sum(heights))):
        for x, y in zip(plan.landmarks, heights):
            check_height(x, y, spec.a < x < spec.b)
    widest = 2.0 * math.pi * spec.stitches_per_unit * max(heights)
    if widest < 1 and round_half_away(widest) == 0:
        raise SpecValidationError(
            "every row would have 0 stitches; raise the scale or the stitch gauge"
        )
    return heights


def row_counts(spec: PatternSpec, plan: LandmarkPlan) -> list[int]:
    """Stitch count at every landmark of the plan, in order.

    Checks as landmark_heights; over MAX_STITCHES in all raises SpecValidationError.
    """
    factor = 2.0 * math.pi * spec.stitches_per_unit
    sizes = [factor * y for y in landmark_heights(spec, plan)]
    # inf and nan, which round_half_away cannot take, are not <= MAX_STITCHES
    counts = [round_half_away(size) for size in sizes if size <= MAX_STITCHES]
    if len(counts) < len(sizes) or sum(counts) > MAX_STITCHES:
        raise SpecValidationError(
            f"the pattern would have more than {MAX_STITCHES} stitches; "
            "lower the scale or the stitch gauge"
        )
    return counts


def _nearest_table(ref_positions: Sequence[int], ref_denom: int, low: int) -> list[int]:
    """Circular distance from m/low to the nearest ref_positions/ref_denom ratio.

    Entry m, for m in 0..low, is that distance in units of 1/(ref_denom*low);
    entry low repeats entry 0, so position low (ratio 1) looks up directly.
    On the integer circle of ref_denom*low points, the candidates m*ref_denom
    that fall in the gap between two neighboring reference points a < b are
    nearest to a up to the gap's midpoint and nearest to b after it, so
    each half gap is one arithmetic run of distances.
    """
    modulus = ref_denom * low
    ref = sorted({p * low % modulus for p in ref_positions})
    points = [ref[-1] - modulus, *ref, ref[0] + modulus]
    table, start = [], 0  # each gap starts where the one before it stopped
    for a, b in zip(points, points[1:]):
        # m in [start, stop) has a <= m*ref_denom < b; below mid, a is nearer
        stop = min(low, -(-b // ref_denom))
        mid = (a + b) // (2 * ref_denom) + 1
        mid = start if mid < start else stop if mid > stop else mid
        table += range(start * ref_denom - a, mid * ref_denom - a, ref_denom)
        table += range(b - mid * ref_denom, b - stop * ref_denom, -ref_denom)
        start = stop
    table.append(table[0])
    return table


def _best_shift(table: list[int], q: int, r: int, n_ops: int) -> int:
    """The earliest k in 1 .. q+r with the largest (min, sum) key of its ops.

    Shift k puts its ops at table entries k + q*j, 0 <= j < n_ops.  The first
    shift whose first op lies farthest from the reference is the incumbent,
    and its min is a floor: a shift whose first op is nearer than the floor
    has a smaller min, so it can neither win nor tie.  Only the shifts left
    get a min, and only those whose min is the best get a sum.
    """
    firsts = table[1 : q + r + 1]
    incumbent = firsts.index(max(firsts)) + 1
    stop = q * n_ops
    floor = min(table[incumbent : incumbent + stop : q])
    survivors = [k for k, d in enumerate(firsts, 1) if d >= floor]
    mins = [min(table[k : k + stop : q]) for k in survivors]
    best = max(mins)
    ties = [k for k, lo in zip(survivors, mins) if lo == best]
    # max keeps the first of equal sums, and the ties ascend in k
    return max(ties, key=lambda k: sum(table[k : k + stop : q]))


def optimize_placement(
    prev_positions: Sequence[int],
    prev_denom: int,
    s_prev: int,
    s_cur: int,
    *,
    index: int = 0,
    x: float = 0.0,
) -> RowShaping:
    """Choose shaping positions for a row that goes s_prev -> s_cur stitches.

    Picks the k in 1 .. q+r with the largest d1, then the largest d2; the
    earliest k wins ties, so a row where every shift scores zero keeps k=1.
    With no reference positions the k=1 layout is returned unoptimized.  A
    change bigger than min(s_prev, s_cur) cannot be worked with single
    increases/decreases and comes back flagged steep.
    """
    n_ops = abs(s_cur - s_prev)
    if n_ops == 0:
        return RowShaping(index, x, s_cur, OP_NONE)
    op = OP_INCREASE if s_cur > s_prev else OP_DECREASE
    low = min(s_prev, s_cur)
    if n_ops > low:
        return RowShaping(index, x, s_cur, op, n_ops=n_ops, steep=True)
    q, r = divmod(low, n_ops)
    k = 1
    if prev_positions and q + r > 1:
        k = _best_shift(_nearest_table(prev_positions, prev_denom, low), q, r, n_ops)
    return RowShaping(index, x, s_cur, op, n_ops, q, r, k, tuple(range(k, k + q * n_ops, q)))


def shape_rows(spec: PatternSpec, plan: LandmarkPlan) -> list[RowShaping]:
    """Shaping decisions for every row of the plan, in crochet order.

    Row 0 is the cast-on at the first landmark with stitches.  The run of
    zero-stitch landmarks at either end (the surface closes to a point
    there) is dropped here; the cast-on or the closing instruction takes
    its place.  Each shaped row is optimized against the most recent row
    that actually had shaping ops.
    A pattern of more than MAX_STITCHES stitches raises SpecValidationError.
    """
    counts = row_counts(spec, plan)
    # landmark_heights refuses a plan whose every row has 0 stitches
    start = next(i for i, c in enumerate(counts) if c)
    end = len(counts) - next(i for i, c in enumerate(reversed(counts)) if c)

    xs = plan.landmarks[start:end]
    counts = counts[start:end]
    rows = [RowShaping(0, xs[0], counts[0], OP_NONE)]
    ref_positions: tuple[int, ...] = ()
    ref_denom = 1
    for i in range(1, len(counts)):
        row = optimize_placement(
            ref_positions, ref_denom, counts[i - 1], counts[i], index=i, x=xs[i]
        )
        rows.append(row)
        if row.positions:
            ref_positions = row.positions
            ref_denom = min(counts[i - 1], counts[i])
    return rows
