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
multiple of 1/(D*low), so a shift k scores the integer key (min, sum) of
its n ops' distances to the nearest reference ratio, in units of
1/(D*low), which orders candidates exactly as (d1, d2) does.  The min key
of every shift comes from one sorted list of obstacles: the points that
put some op of k on a reference ratio.  The shift nearest the middle of
each gap between them is the best of that gap, so a row costs
O(m log m) for its m = O(|ref| * (1 + r/q)) obstacles, independent of
low.  Only the shifts tied at the best min get a sum, by a bisect per op.
Two cases cost O(low log|ref| + (q+r)*n) instead, and score every shift
from each position's distance: a best min of 0, which ties every shift,
and a row whose obstacles would outnumber its positions twice over (q
small against r, as when a row nearly doubles).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, repeat

from .calculus import LandmarkPlan, PatternSpec, SpecValidationError, round_half_away
from .expression import Record
from .expression import compile_expr  # noqa: F401 - perfbench/probe.py traces it here

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: importing collections costs every run
    from collections.abc import Sequence

OP_NONE = "none"
OP_INCREASE = "increase"
OP_DECREASE = "decrease"

# Most stitches, summed over all rows, that shape_rows lays out.  Since the
# search is by gaps (see _best_shift), shaping cost follows the ops, not the
# stitches: the running example shapes 808 rows (1.28 million stitches) in
# 11 ms and 2,694 rows at scale 30 (14.3 million) in 31 ms, and a 1,715-row
# cone of 15.1 million in 20 ms, where the table scan took 50, 141 and 900 ms
# (CPython 3.11, 2-vCPU VM).  Only rows that nearly double still cost
# O(low) each.  Raising the cap changes which specs exit 2.
MAX_STITCHES = 16_000_000


class RowShaping(Record):
    """Shaping decision for one row.

    positions are 1-indexed instruction slots; for a shaped row they are
    {q*j + k : 0 <= j < n_ops} with 1 <= k <= q + r, and an increase row
    consumes min(s_prev, s_cur) instructions while producing s_cur stitches.
    steep marks a row whose stitch change exceeds what single increases or
    decreases can do (n_ops > min); it carries no positions.
    """

    __slots__ = ()

    def __new__(
        cls, index, x, stitches, op, n_ops=0, q=None, r=None, k=None, positions=(), steep=False
    ):
        return tuple.__new__(cls, (index, x, stitches, op, n_ops, q, r, k, positions, steep))


def row_counts(spec: PatternSpec, plan: LandmarkPlan) -> list[int]:
    """Stitch count at every landmark of the plan, in order, from plan.heights.

    Over MAX_STITCHES in all raises SpecValidationError.
    """
    factor = 2.0 * math.pi * spec.stitches_per_unit
    sizes = [factor * y for y in plan.heights]
    # inf and nan, which round_half_away cannot take, are not <= MAX_STITCHES
    counts = [round_half_away(size) for size in sizes if size <= MAX_STITCHES]
    if len(counts) < len(sizes) or sum(counts) > MAX_STITCHES:
        raise SpecValidationError(
            f"the pattern would have more than {MAX_STITCHES} stitches; "
            "lower the scale or the stitch gauge"
        )
    return counts


def _nearest(points: list[int], values: Sequence[int]) -> list[int]:
    """Distance from each value to the nearest of the sorted points.

    Every value v must have points[0] < v <= points[-1].
    """
    return [
        min(v - points[i - 1], points[i] - v)
        for v, i in zip(values, map(bisect_left, repeat(points), values))
    ]


def _first_best(shifts: Sequence[int], ref: list[int], d: int, low: int, n_ops: int) -> int:
    """The earliest of the ascending shifts with the largest (min, sum) key.

    ref holds the sorted reference points p*low mod d*low, in units of
    1/(d*low).
    Scoring every op of every shift takes a bisect per op; when that is
    more ops than positions, each position's distance is taken once instead.
    """
    modulus = d * low
    points = [ref[-1] - modulus, *ref, ref[0] + modulus]
    q = low // n_ops
    stop = q * n_ops
    if len(shifts) * n_ops > low:
        dist = _nearest(points, range(0, modulus + 1, d))

        def ops(k):
            return dist[k : k + stop : q]
    else:

        def ops(k):
            return _nearest(points, range(k * d, (k + stop) * d, q * d))

    def key(k):
        s = ops(k)
        return min(s), sum(s)

    return max(shifts, key=key)  # max keeps the first of equal keys


def _best_shift(ref_positions: Sequence[int], d: int, low: int, n_ops: int) -> int:
    """The earliest k in 1 .. q+r with the largest (min, sum) key of its ops.

    On the integer circle of d*low points, op j of shift k sits at
    (k + q*j)*d and reference position p at p*low, so the min key of k is
    the distance from k*d to the nearest obstacle p*low + t*d*low - q*j*d
    (t in -1, 0, 1).  One reference's obstacles are never more than
    (q+r)*d apart, so only those in [(1-(q+r))*d, 2*(q+r)*d] can bound a
    gap that meets [d, (q+r)*d]; each reference gives them as a few ranges.
    In each such gap the best shift is the one nearest the gap's middle.
    Only the shifts that reach the best min get a sum.  A row whose window
    would hold more than 2*low obstacles scores every shift instead.
    """
    q, r = divmod(low, n_ops)
    span = q + r
    modulus = d * low
    ref = sorted([p * low % modulus for p in ref_positions])  # position D is 0
    if len(ref) * (3 * span // q + 2) > 2 * low:
        return _first_best(range(1, span + 1), ref, d, low, n_ops)
    step = q * d  # from one op of a shift to the next
    last = modulus - span * d  # from the first op to the last
    lo_edge, hi_edge = d - span * d, 2 * span * d
    ends = [u - modulus for u in ref[bisect_left(ref, modulus + lo_edge) :]]
    ends += ref
    ends += [u + modulus for u in ref[: bisect_right(ref, span * d)]]
    # end e's obstacles are e - j*step, 0 <= j < n_ops: those in the window
    points = sorted(chain.from_iterable([
        range(
            e if e <= hi_edge else hi_edge - (hi_edge - e) % step,
            (e - last if e - last >= lo_edge else lo_edge + (e - lo_edge) % step) - 1,
            -step,
        )
        for e in ends
    ]))
    i = bisect_right(points, d) - 1
    j = bisect_left(points, span * d, i)
    best, ties = -1, []
    for a, b in zip(points[i:j], points[i + 1 : j + 1]):
        if b - a < 2 * best:  # no shift in this gap gets more than half of it
            continue
        m = (a + b) // (2 * d)  # shifts m and m + 1 flank the gap's middle
        for k in (m, m + 1):
            k = 1 if k < 1 else span if k > span else k
            lo, hi = k * d - a, b - k * d  # one < 0: k*d lies outside the gap
            if hi < lo:
                lo = hi
            if lo > best:
                best, ties = lo, [k]
            elif lo == best and k != ties[-1]:
                ties.append(k)
    if best == 0:  # every shift puts an op on an obstacle
        ties = range(1, span + 1)
    return ties[0] if len(ties) == 1 else _first_best(ties, ref, d, low, n_ops)


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
        k = _best_shift(prev_positions, prev_denom, low, n_ops)
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
    # build_plan refuses a plan whose every row has 0 stitches
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
