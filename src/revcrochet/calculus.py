"""Arclength in row units, local extrema, and per-row x landmarks.

The driving quantity is the curve's arclength measured in crochet rows:

    rows(lo, hi) = (scale * row_gauge / 4) * integral of sqrt(1 + f'(x)^2)

Each segment between consecutive extrema gets round(rows) crochet rows,
and the i-th row landmark is the x where the accumulated arclength from
the segment start reaches i equal shares.  Landmarks are reported to two
decimal places; the downstream stitch counts use the rounded values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from .expression import Expr, EvalDomainError, compile_enclosure, compile_expr, differentiate, render

QUAD_TOL = 1e-8
QUAD_MAX_DEPTH = 50
LANDMARK_XTOL = 1e-4      # bisection bracket width; finer than the 0.01 reporting step
EXTREMUM_XTOL = 1e-9
EXTREMUM_DEDUPE = 1e-6
EXTREMUM_GRID = 4096      # subintervals scanned for f' sign changes
VALIDATION_GRID = 2048    # subintervals sampled for positivity / f' definedness
# Largest pattern build_plan places landmarks for: each row costs one
# landmark bisection (tens of microseconds), so 10,000 rows take about a
# second; the running example at scale 30 has 2,694.
MAX_ROWS = 10_000
# Grid cells at or below which an undecided range is evaluated point by
# point rather than halved again.  An enclosure of f' costs as much as 10 to
# 25 point evaluations (3 us for the running example's f', 20 us for
# sin(5x)cos(3x) + exp(-x^2)x^2), and a range that stays undecided wastes
# it.  Timing validate + find_extrema on the benchmark's anchor specs with
# 16, 32, 64 and 128 cells, 32 was fastest or within 5% of it on each: a
# ripple that no wide range decides pays 255 enclosures at 32 cells and
# 511 at 16, while 128 cells evaluate up to four times more points.
SCAN_LEAF_CELLS = 32


class SpecValidationError(ValueError):
    """The six inputs do not describe a crochetable surface."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit the depth limit without converging."""


def round_half_away(v: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def round_landmark(x: float) -> float:
    """Round an x landmark to two decimals, ties away from zero."""
    return round_half_away(x * 100.0) / 100.0


class PatternSpec(
    namedtuple(
        "PatternSpec",
        "func a b stitch_gauge row_gauge scale source",
        defaults=(None,),
    )
):
    """The six user inputs: f, its interval, gauge, and physical scale.

    func is the tree of f over [a, b]; stitch_gauge and row_gauge count
    stitches and rows per 4 inches; scale is inches per x unit; source, if
    given, is the text f was parsed from.
    """

    __slots__ = ()

    @property
    def function_text(self) -> str:
        return self.source if self.source is not None else render(self.func)

    @property
    def rows_per_unit(self) -> float:
        return self.scale * self.row_gauge / 4.0

    @property
    def stitches_per_unit(self) -> float:
        return self.scale * self.stitch_gauge / 4.0

    def validate(self) -> None:
        """Check the invariants; raises SpecValidationError.

        f >= 0 at the endpoints, f > 0 on the open interval, and f'
        defined on [a, b] are checked by dense sampling (VALIDATION_GRID
        subintervals), which is as strong a guarantee as sampling can give.
        A block of grid points where enclosures prove f > 0 and f' defined
        and finite is not evaluated point by point; the first failing grid
        point, and its message, are the same either way.
        """
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise SpecValidationError("a and b must be finite")
        if not self.a < self.b:
            raise SpecValidationError("a must be less than b")
        if not isinstance(self.stitch_gauge, int) or self.stitch_gauge < 1:
            raise SpecValidationError("stitch gauge must be a positive integer")
        if not isinstance(self.row_gauge, int) or self.row_gauge < 1:
            raise SpecValidationError("row gauge must be a positive integer")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise SpecValidationError("scale must be a positive number")

        f = compile_expr(self.func)
        fp = _fprime(self.func)
        f_box = compile_enclosure(self.func)
        fp_box = compile_enclosure(_derivative(self.func))

        def certify(lo, hi):
            y = f_box(lo, hi)
            return y is not None and y[0] > 0 and fp_box(lo, hi) is not None

        a, n = self.a, VALIDATION_GRID
        step = (self.b - a) / n
        for i0, i1, proved in _grid_blocks(a, step, n, certify):
            if proved:
                continue
            for i in range(i0, i1 + 1):
                x = a + i * step
                try:
                    y = f(x)
                except EvalDomainError as exc:
                    raise SpecValidationError(f"f is undefined at x={x!r}") from exc
                if not math.isfinite(y):
                    raise SpecValidationError(f"f is not finite at x={x!r}")
                if y < 0:
                    raise SpecValidationError(
                        f"f must be nonnegative on [a, b]; f({x!r}) = {y!r}"
                    )
                if y == 0 and 0 < i < n:
                    raise SpecValidationError(
                        f"f must be positive on the open interval; f({x!r}) = 0"
                    )
                try:
                    dy = fp(x)
                except EvalDomainError as exc:
                    raise SpecValidationError(f"f' is undefined at x={x!r}") from exc
                if not math.isfinite(dy):
                    raise SpecValidationError(f"f' is not finite at x={x!r}")


class Segment(namedtuple("Segment", "lo hi arclength_rows row_count")):
    """One stretch between consecutive extrema (or the endpoints)."""

    __slots__ = ()


class LandmarkPlan(namedtuple("LandmarkPlan", "segments landmarks total_rows")):
    """Ordered segments plus the merged landmark list x_0 .. x_n."""

    __slots__ = ()


def adaptive_simpson(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = QUAD_TOL,
    max_depth: int = QUAD_MAX_DEPTH,
) -> float:
    """Adaptive Simpson quadrature of g over [lo, hi] to absolute tol.

    Each level halves the tolerance, so the accepted subintervals' error
    estimates sum to at most tol.  Near a cusp, g can change too fast for
    the halved tolerance even on a subinterval a few ulps wide, after
    max_depth levels.  Such subintervals share a second allowance of tol:
    each is accepted while its error estimate fits in what is left of it,
    so the result is within 2*tol by the estimates.  A subinterval that
    does not fit raises QuadratureError.
    """
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    fa, fm, fb = g(lo), g(mid), g(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(g, lo, hi, fa, fm, fb, whole, tol, max_depth, [tol])


def _simpson_step(g, lo, hi, fa, fm, fb, whole, tol, depth, allowance):
    mid = 0.5 * (lo + hi)
    lmid, rmid = 0.5 * (lo + mid), 0.5 * (mid + hi)
    flm, frm = g(lmid), g(rmid)
    left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
    right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        error = abs(delta) / 15.0
        if error <= allowance[0]:
            allowance[0] -= error
            return left + right + delta / 15.0
        raise QuadratureError(
            f"quadrature did not converge on [{lo!r}, {hi!r}] after the depth limit"
        )
    half = 0.5 * tol
    return _simpson_step(
        g, lo, mid, fa, flm, fm, left, half, depth - 1, allowance
    ) + _simpson_step(g, mid, hi, fm, frm, fb, right, half, depth - 1, allowance)


def _grid_blocks(a, step, n, certify):
    """Split the grid points a + i*step, i = 0..n, into blocks, left to right.

    Yields (i0, i1, verdict) for the points i0..i1, each point in exactly
    one block.  verdict is what certify(lo, hi) returned for a range of
    cells holding the block; a falsy one means "evaluate these points",
    and comes only for ranges of at most SCAN_LEAF_CELLS cells.  A range
    certify does not decide is halved, left half first.  lo and hi are the
    floats a + i*step at the range's ends, and float rounding is monotone,
    so every grid point of the range lies between them.
    """
    ranges = [(0, n)]
    first = 0
    while ranges:
        c0, c1 = ranges.pop()
        verdict = certify(a + c0 * step, a + c1 * step)
        if not verdict and c1 - c0 > SCAN_LEAF_CELLS:
            mid = (c0 + c1) // 2
            ranges += [(mid, c1), (c0, mid)]
            continue
        yield first, c1, verdict
        first = c1 + 1


@lru_cache(maxsize=128)
def _derivative(func: Expr) -> Expr:
    """f' as a tree, differentiated once per tree."""
    return differentiate(func)


@lru_cache(maxsize=128)
def _fprime(func: Expr) -> Callable[[float], float]:
    """f' as a compiled callable, compiled once per tree."""
    return compile_expr(_derivative(func))


@lru_cache(maxsize=128)
def _arc_integrand(func: Expr) -> Callable[[float], float]:
    """sqrt(1 + f'(x)^2) as a compiled callable, cached per tree.

    An undefined f'(x) raises EvalDomainError naming x.  A non-finite one
    makes the quadrature that samples it end in QuadratureError; checking
    for it here would cost every call.
    """
    fp = _fprime(func)

    def g(x: float) -> float:
        try:
            d = fp(x)
        except EvalDomainError as exc:
            raise EvalDomainError(f"f' undefined at x={x!r}") from exc
        return math.sqrt(1.0 + d * d)

    return g


def arclength_rows(spec: PatternSpec, lo: float, hi: float) -> float:
    """Arclength of f over [lo, hi] converted to row units."""
    if not (spec.a <= lo < hi <= spec.b):
        raise ValueError(f"need a <= lo < hi <= b, got lo={lo!r}, hi={hi!r}")
    return spec.rows_per_unit * adaptive_simpson(_arc_integrand(spec.func), lo, hi)


def find_extrema(spec: PatternSpec) -> list[float]:
    """x values in (a, b) where f' changes sign, sorted ascending.

    Sign changes are detected on a uniform grid of EXTREMUM_GRID
    subintervals and then located by bisection to EXTREMUM_XTOL; results
    closer together than EXTREMUM_DEDUPE are merged.  A block of grid
    points where an enclosure proves the sign of f' is not evaluated point
    by point, so every bracket bisected, and every extremum, is the same
    float as with a scan of every point.
    """
    fp = _fprime(spec.func)
    fp_box = compile_enclosure(_derivative(spec.func))

    def certify(lo, hi):
        d = fp_box(lo, hi)
        if d is None:
            return 0
        return (d[0] > 0) - (d[1] < 0)

    a, n = spec.a, EXTREMUM_GRID
    step = (spec.b - a) / n

    def deriv(x):
        try:
            v = fp(x)
        except EvalDomainError as exc:
            raise EvalDomainError(f"f' undefined at x={x!r}") from exc
        if not math.isfinite(v):
            raise EvalDomainError(f"f' is not a finite real number at x={x!r}")
        return v

    roots = []
    last_x = None
    last_sign = 0
    for i0, i1, sign in _grid_blocks(a, step, n, certify):
        if sign:
            # The block's first cell starts at the last point scanned, of
            # this sign too, so the block holds no sign change.
            last_x, last_sign = a + i1 * step, sign
            continue
        for i in range(i0, i1 + 1):
            x = a + i * step
            v = deriv(x)
            s = (v > 0) - (v < 0)
            if s == 0:
                continue
            if last_sign != 0 and s != last_sign:
                roots.append(_bisect_sign_change(deriv, last_x, x, last_sign))
            last_x, last_sign = x, s

    merged = []
    for r in roots:
        if merged and r - merged[-1] <= EXTREMUM_DEDUPE:
            continue
        # extrema essentially at a or b belong to the endpoints, not the interior
        if r - spec.a <= EXTREMUM_DEDUPE or spec.b - r <= EXTREMUM_DEDUPE:
            continue
        merged.append(r)
    return merged


def _bisect_sign_change(deriv, lo, hi, lo_sign):
    while hi - lo > EXTREMUM_XTOL:
        mid = 0.5 * (lo + hi)
        v = deriv(mid)
        if v == 0.0:
            return mid
        if ((v > 0) - (v < 0)) == lo_sign:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_landmarks(spec: PatternSpec, seg: Segment) -> list[float]:
    """Landmarks x_0 .. x_rowcount for one segment.

    Interior landmark i satisfies rows(seg.lo, x_i) = i * L / row_count,
    with the arclength always accumulated from seg.lo; each is found by
    bisection (the accumulated arclength is strictly increasing) and then
    rounded to two decimals.  The segment endpoints are returned unrounded.

    A bisection step whose outcome the lower bound "arclength >= width"
    already decides moves the right bracket without running the quadrature,
    so the cost per landmark does not grow with segment length.  Only steps
    that would have gone right are skipped, so every bracket, accumulated
    arclength and landmark is the same float as with a quadrature per step.
    """
    g = _arc_integrand(spec.func)
    factor = spec.rows_per_unit
    xs = [seg.lo]
    xl, al = seg.lo, 0.0  # left bracket and its accumulated arclength in rows
    for i in range(1, seg.row_count):
        target = i * seg.arclength_rows / seg.row_count
        xr = seg.hi
        while xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            # g = sqrt(1 + f'^2) >= 1, and each accepted Simpson leaf is off
            # by at most its error estimate; those sum to QUAD_TOL, plus at
            # most QUAD_TOL for leaves at the depth limit; so a returned
            # adaptive_simpson(g, xl, mid) is at least this bound (the
            # relative slack covers rounding over QUAD_MAX_DEPTH levels).
            # Float * and + round monotonically, so if the bound reaches the
            # target, amid would too and the step would set xr = mid.
            bound = (mid - xl) * (1.0 - 1e-12) - 2.0 * QUAD_TOL
            if al + factor * bound >= target:
                xr = mid
                continue
            amid = al + factor * adaptive_simpson(g, xl, mid)
            if amid < target:
                xl, al = mid, amid
            else:
                xr = mid
        xs.append(round_landmark(0.5 * (xl + xr)))
    xs.append(seg.hi)
    return xs


def build_plan(spec: PatternSpec, prioritize_extrema: bool = True) -> LandmarkPlan:
    """Segment the interval and place one landmark per crochet row.

    With prioritize_extrema, segment boundaries are {a, extrema.., b} so
    every local extremum lands exactly on a row; otherwise [a, b] is one
    segment.  Shared boundary landmarks are deduplicated when segments
    are concatenated.  A plan of more than MAX_ROWS rows is refused with
    SpecValidationError before any landmark is placed.
    """
    spec.validate()
    bounds = [spec.a]
    if prioritize_extrema:
        bounds.extend(find_extrema(spec))
    bounds.append(spec.b)

    spans = list(zip(bounds, bounds[1:]))
    lengths = [arclength_rows(spec, lo, hi) for lo, hi in spans]
    # inf and nan, which round_half_away cannot take, are not <= MAX_ROWS
    counts = [max(1, round_half_away(length)) for length in lengths if length <= MAX_ROWS]
    total = sum(counts)
    if len(counts) < len(lengths) or total > MAX_ROWS:
        raise SpecValidationError(
            f"the pattern would have more than {MAX_ROWS} rows; lower the scale or the row gauge"
        )
    segments = [
        Segment(lo, hi, length, count)
        for (lo, hi), length, count in zip(spans, lengths, counts)
    ]

    landmarks: list[float] = []
    for seg in segments:
        pts = solve_landmarks(spec, seg)
        landmarks.extend(pts if not landmarks else pts[1:])
    return LandmarkPlan(tuple(segments), tuple(landmarks), total)
