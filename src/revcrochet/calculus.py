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
from functools import cached_property
from math import sqrt

from .expression import Call, EvalDomainError, Expr, compile_enclosure, compile_expr, differentiate

QUAD_TOL = 1e-8
QUAD_MAX_DEPTH = 50
# Most subintervals one adaptive_simpson call may split, which bounds its
# time.  The test corpus needs at most 202,532 (sqrt-abs-14), the benchmark
# operations 169.  Unbounded, a pole at a segment end ran for minutes, and so
# did an arclength of 7e12 rows before the chord bound refused it up front.
QUAD_MAX_SPLITS = 2**20
LANDMARK_XTOL = 1e-4      # bisection bracket width; finer than the 0.01 reporting step
EXTREMUM_XTOL = 1e-9
EXTREMUM_DEDUPE = 1e-6
EXTREMUM_GRID = 4096      # cells of the one grid that validation and the f' sign scan walk
# Largest pattern build_plan places landmarks for: each row costs one
# landmark bisection, 9 us for the running example (9,967 rows at scale
# 111) and 32 to 36 us for 3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2 (9,445 rows
# at scale 66), best of 6 on CPython 3.11, 2 vCPUs; build_plan takes 0.1 s
# and 0.35 s for them, so 10,000 rows take under half a second.  The running
# example at scale 30 has 2,694.
MAX_ROWS = 10_000
# Relative slack of the chord bound on the row count (see _chord_rows), far
# above the quadrature's error on any arclength near the cap.
CHORD_MARGIN = 1e-3
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


class Curve(namedtuple("Curve", "f fp f_box fp_box")):
    """One spec's f, compiled once: what every stage evaluates.

    f and fp are f and f' as callables of x; f_box and fp_box are the
    enclosures of f and f' (see expression.compile_enclosure).  The
    arclength quadrature takes fp itself and forms sqrt(1 + f'(x)^2)
    inline (see adaptive_simpson), so the Boole-weight lower bound that
    solve_landmarks relies on holds for that integrand.
    """

    __slots__ = ()


class PatternSpec(namedtuple("PatternSpec", "func a b stitch_gauge row_gauge scale source")):
    """The six user inputs: f, its interval, gauge, and physical scale.

    func is the tree of f over [a, b]; stitch_gauge and row_gauge count
    stitches and rows per 4 inches; scale is inches per x unit; source is
    the text f was parsed from.  The fields are read-only; curve is
    compiled from func on first use and kept with the spec.
    """

    @cached_property
    def curve(self) -> Curve:
        """f and f', differentiated and compiled on first use."""
        dfunc = differentiate(self.func)
        return Curve(
            compile_expr(self.func),
            compile_expr(dfunc),
            compile_enclosure(self.func),
            compile_enclosure(dfunc),
        )

    def __getstate__(self):
        return None  # generated functions do not pickle; a copy compiles its own curve

    @property
    def rows_per_unit(self) -> float:
        return self.scale * self.row_gauge / 4.0

    @property
    def stitches_per_unit(self) -> float:
        return self.scale * self.stitch_gauge / 4.0

    def validate(self) -> None:
        """Check the invariants; raises SpecValidationError.

        f >= 0 at the endpoints, f > 0 on the open interval, and f'
        defined and finite on [a, b] are checked at every other point of
        the EXTREMUM_GRID walk (see _walk), which is as strong a guarantee
        as sampling can give.
        """
        _walk(self, extrema=False)


def eval_height(f: Callable[[float], float], x: float) -> float:
    """f(x); where f is undefined, SpecValidationError names x."""
    try:
        return f(x)
    except EvalDomainError as exc:
        raise SpecValidationError(f"f is undefined at x={x!r}") from exc


def check_height(x: float, y: float, interior: bool) -> None:
    """Raise SpecValidationError if f(x) = y is not finite or < 0, or is 0 at an interior x."""
    if not math.isfinite(y):
        raise SpecValidationError(f"f is not finite at x={x!r}")
    if y < 0:
        raise SpecValidationError(f"f must be nonnegative on [a, b]; f({x!r}) = {y!r}")
    if y == 0 and interior:
        raise SpecValidationError(f"f must be positive on the open interval; f({x!r}) = 0")


class Segment(namedtuple("Segment", "lo hi arclength_rows row_count")):
    """One stretch between consecutive extrema (or the endpoints)."""

    __slots__ = ()


class LandmarkPlan(namedtuple("LandmarkPlan", "segments landmarks total_rows heights")):
    """Ordered segments, the merged landmark list x_0 .. x_n, and f at each landmark."""

    __slots__ = ()


def adaptive_simpson(
    fp: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = QUAD_TOL,
    max_depth: int = QUAD_MAX_DEPTH,
) -> float:
    """Adaptive Simpson quadrature of sqrt(1 + fp(x)^2) over [lo, hi] to absolute tol.

    The integrand is the arclength's, taken straight from fp: each sample
    is one call of fp, and an undefined fp(x) raises EvalDomainError
    naming the first x that fails.  A non-finite fp(x) is not checked for
    (that would cost every sample); the quadrature then ends in
    QuadratureError.  This call evaluates the first level's five samples
    and returns when it is accepted, as most short intervals are;
    otherwise each half recurses with two new samples per level.

    Each level halves the tolerance, so the accepted subintervals' error
    estimates sum to at most tol.  Near a cusp, the integrand can change
    too fast for the halved tolerance even on a subinterval a few ulps
    wide, after max_depth levels.  Such subintervals share a second
    allowance of tol: each is accepted while its error estimate fits in
    what is left of it, so the result is within 2*tol by the estimates.  A
    subinterval that does not fit raises QuadratureError, and so does a
    call that splits more than QUAD_MAX_SPLITS subintervals, which bounds
    its time.

    Every accepted value, left + right + delta/15, is Boole's rule on its
    five samples, with the positive weights (7, 32, 12, 32, 7)/90; so the
    result is at least the width times the least sample, up to rounding
    (see solve_landmarks).
    """
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    lmid, rmid = 0.5 * (lo + mid), 0.5 * (mid + hi)
    x = lo
    try:
        d = fp(x)
        fa = sqrt(1.0 + d * d)
        x = mid
        d = fp(x)
        fm = sqrt(1.0 + d * d)
        x = hi
        d = fp(x)
        fb = sqrt(1.0 + d * d)
        x = lmid
        d = fp(x)
        flm = sqrt(1.0 + d * d)
        x = rmid
        d = fp(x)
        frm = sqrt(1.0 + d * d)
    except EvalDomainError as exc:
        raise EvalDomainError(f"f' undefined at x={x!r}") from exc
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
    right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if max_depth <= 0 or QUAD_MAX_SPLITS <= 0:
        return _at_limit(lo, hi, left + right + delta / 15.0, delta, max_depth, [tol, 0])
    # what is left of the second allowance, and the splits made so far
    allowance = [tol, 1]
    half = 0.5 * tol
    return _simpson_step(
        fp, lo, mid, fa, flm, fm, left, half, max_depth - 1, allowance
    ) + _simpson_step(fp, mid, hi, fm, frm, fb, right, half, max_depth - 1, allowance)


def _simpson_step(fp, lo, hi, fa, fm, fb, whole, tol, depth, allowance):
    mid = 0.5 * (lo + hi)
    lmid, rmid = 0.5 * (lo + mid), 0.5 * (mid + hi)
    x = lmid
    try:
        d = fp(x)
        flm = sqrt(1.0 + d * d)
        x = rmid
        d = fp(x)
        frm = sqrt(1.0 + d * d)
    except EvalDomainError as exc:
        raise EvalDomainError(f"f' undefined at x={x!r}") from exc
    left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
    right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0 or allowance[1] >= QUAD_MAX_SPLITS:
        return _at_limit(lo, hi, left + right + delta / 15.0, delta, depth, allowance)
    allowance[1] += 1
    half = 0.5 * tol
    return _simpson_step(
        fp, lo, mid, fa, flm, fm, left, half, depth - 1, allowance
    ) + _simpson_step(fp, mid, hi, fm, frm, fb, right, half, depth - 1, allowance)


def _at_limit(lo, hi, estimate, delta, depth, allowance):
    """A subinterval at the depth limit or the split bound: estimate, where
    the depth limit's allowance still covers its error; else QuadratureError."""
    if depth <= 0:
        error = abs(delta) / 15.0
        if error <= allowance[0]:
            allowance[0] -= error
            return estimate
        raise QuadratureError(
            f"quadrature did not converge on [{lo!r}, {hi!r}] after the depth limit"
        )
    raise QuadratureError(
        f"quadrature did not converge on [{lo!r}, {hi!r}] within {QUAD_MAX_SPLITS} splits"
    )


def arclength_rows(spec: PatternSpec, lo: float, hi: float) -> float:
    """Arclength of f over [lo, hi] converted to row units."""
    if not (spec.a <= lo < hi <= spec.b):
        raise ValueError(f"need a <= lo < hi <= b, got lo={lo!r}, hi={hi!r}")
    return spec.rows_per_unit * adaptive_simpson(spec.curve.fp, lo, hi)


def find_extrema(spec: PatternSpec) -> list[float]:
    """x values in (a, b) where f' changes sign, sorted ascending.

    The same walk of the grid (see _walk) validates the spec as
    PatternSpec.validate does.  Sign changes of f' between grid points are
    located by bisection to EXTREMUM_XTOL; results closer together than
    EXTREMUM_DEDUPE are merged.
    """
    merged = []
    for r in _walk(spec, extrema=True):
        if merged and r - merged[-1] <= EXTREMUM_DEDUPE:
            continue
        # extrema essentially at a or b belong to the endpoints, not the interior
        if r - spec.a <= EXTREMUM_DEDUPE or spec.b - r <= EXTREMUM_DEDUPE:
            continue
        merged.append(r)
    return merged


def _walk(spec, extrema):
    """Check the spec on the grid a + i*step, i = 0..EXTREMUM_GRID, left to right.

    Each even point gets validate's checks: f, then f'.  With extrema, f'
    at every point also feeds a sign scan, and each sign change is bisected
    as soon as it is found; the bisected x values are returned.  The first
    grid point or bisection midpoint that fails raises SpecValidationError.

    Ranges of cells are halved, left half first, until enclosures decide
    them or they have at most SCAN_LEAF_CELLS cells.  Each range gets an
    enclosure of f', and of f too where f' has one and the range is not yet
    valid.  A range where they prove f' defined and finite and f > 0 is
    valid, and so are its halves: its even points need no checks.  With
    extrema, a range where the enclosure of f' fixes the sign holds no sign
    change: its points need no scan.  lo and hi are the floats a + i*step
    at the range's ends, and float rounding is monotone, so every grid
    point of the range lies between them.  The first failure, every bracket and
    every root are the same floats as with every point evaluated.
    """
    if not (math.isfinite(spec.a) and math.isfinite(spec.b)):
        raise SpecValidationError("a and b must be finite")
    if not spec.a < spec.b:
        raise SpecValidationError("a must be less than b")
    if not math.isfinite(spec.b - spec.a):
        raise SpecValidationError("b - a must be finite")
    for name, gauge in (("stitch", spec.stitch_gauge), ("row", spec.row_gauge)):
        if not isinstance(gauge, int) or gauge < 1:
            raise SpecValidationError(f"{name} gauge must be a positive integer")
        try:
            float(gauge)  # stitches_per_unit and rows_per_unit multiply by it
        except OverflowError:
            raise SpecValidationError(f"{name} gauge is too large") from None
    if not (math.isfinite(spec.scale) and spec.scale > 0):
        raise SpecValidationError("scale must be a positive number")

    f, fp, f_box, fp_box = spec.curve
    a, n = spec.a, EXTREMUM_GRID
    step = (spec.b - a) / n

    def deriv(x):
        try:
            v = fp(x)
        except EvalDomainError as exc:
            raise SpecValidationError(f"f' is undefined at x={x!r}") from exc
        if not math.isfinite(v):
            raise SpecValidationError(f"f' is not finite at x={x!r}")
        return v

    roots = []
    last_x, last_sign = None, 0
    ranges = [(0, n, False)]
    first = 0  # the first grid point no range has covered yet
    while ranges:
        c0, c1, valid = ranges.pop()
        lo, hi = a + c0 * step, a + c1 * step
        sign = 0
        d = fp_box(lo, hi)
        if d is not None:
            if extrema:
                sign = (d[0] > 0) - (d[1] < 0)
            if not valid:
                y = f_box(lo, hi)
                valid = y is not None and y[0] > 0
        scan = extrema and not sign
        if scan or not valid:
            if c1 - c0 > SCAN_LEAF_CELLS:
                mid = (c0 + c1) // 2
                ranges += [(mid, c1, valid), (c0, mid, valid)]
                continue
            stride = 1 if scan else 2
            for i in range(first + first % stride, c1 + 1, stride):
                x = a + i * step
                if not (valid or i % 2):
                    y = eval_height(f, x)
                    if not 0 < y < math.inf:
                        check_height(x, y, 0 < i < n)
                v = deriv(x)
                s = (v > 0) - (v < 0)
                if scan and s:
                    if last_sign and s != last_sign:
                        roots.append(_bisect_sign_change(deriv, last_x, x, last_sign))
                    last_x, last_sign = x, s
        if sign:
            # The range's first cell starts at the last point scanned, of
            # this sign too, so the range holds no sign change.
            last_x, last_sign = hi, sign
        first = c1 + 1
    return roots


def _bisect_sign_change(deriv, lo, hi, lo_sign):
    while hi - lo > EXTREMUM_XTOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is one ulp wide, wider than EXTREMUM_XTOL
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
    bisection (the accumulated arclength is strictly increasing), rounded
    to two decimals and clamped into [a, b], which rounding can leave where
    a or b is off the 0.01 grid.  The segment endpoints stay unrounded.

    A bisection step whose outcome a lower bound on the arclength already
    decides moves the right bracket without running the quadrature, so the
    cost per landmark does not grow with segment length.  The bound is the
    width times the least integrand g = sqrt(1 + f'^2): 1 anywhere, or
    sqrt(1 + m^2) on a box where the enclosure of f' proves |f'| >= m.
    adaptive_simpson forms g inline from f', so the bound holds for every
    sample it takes.  Only steps that would have gone right are skipped, so
    every bracket, accumulated arclength and landmark is the same float as
    with a quadrature per step.  A skipped step's quadrature is never run,
    so it cannot raise QuadratureError.
    """
    fp, fp_box = spec.curve.fp, spec.curve.fp_box
    factor, a, b = spec.rows_per_unit, spec.a, spec.b
    xs = [seg.lo]
    xl, al = seg.lo, 0.0  # left bracket and its accumulated arclength in rows
    # The last enclosed box of f' and sqrt(1 + m^2) for it; kept across landmarks.
    box_lo, box_hi, least_g = math.inf, -math.inf, 1.0
    for i in range(1, seg.row_count):
        target = i * seg.arclength_rows / seg.row_count
        xr = seg.hi
        while xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            if not xl < mid < xr:
                break  # the bracket is one ulp wide, wider than LANDMARK_XTOL
            # Each value adaptive_simpson accepts, left + right + delta/15,
            # is Boole's rule on its five samples, with the positive weights
            # (7, 32, 12, 32, 7)/90; so the result is at least the width
            # times the least g sampled, up to rounding that the relative
            # slack covers.  Float *, + and sqrt round monotonically, so
            # each sample sqrt(1.0 + d * d) of d = f'(x) is at least
            # sqrt(1 + m*m) where |d| >= m, and if the bound reaches the
            # target, amid would too and the step would set xr = mid.
            bound = (mid - xl) * (1.0 - 1e-12)
            if al + factor * bound >= target:
                xr = mid
                continue
            if not (box_lo <= xl and mid <= box_hi):
                box_lo, box_hi, least_g = xl, mid, _least_g(fp_box(xl, mid))
            if least_g > 1.0:
                bound = (mid - xl) * least_g * (1.0 - 1e-12)
                if al + factor * bound >= target:
                    xr = mid
                    continue
            amid = al + factor * adaptive_simpson(fp, xl, mid)
            if amid < target:
                xl, al = mid, amid
            else:
                xr = mid
        x = round_landmark(0.5 * (xl + xr))
        xs.append(a if x < a else b if x > b else x)
    xs.append(seg.hi)
    return xs


def _least_g(box):
    """sqrt(1 + m*m) for the least |f'| = m that an enclosure of f' proves; 1 if none."""
    if box is None:
        return 1.0
    m = box[0] if box[0] > 0 else -box[1] if box[1] < 0 else 0.0
    return math.sqrt(1.0 + m * m)


def _chord_rows(spec: PatternSpec, spans) -> float:
    """Sum over the spans of the chord from (lo, f(lo)) to (hi, f(hi)), in rows.

    Where f is continuous, a chord is no longer than the arc, so a sum
    over MAX_ROWS (with CHORD_MARGIN and half a row per segment for the
    rounding of its count) proves the cap passed without a quadrature.
    sign is the grammar's one jump: f' is 0 across it, so the arclength
    leaves it out while a chord crosses it.  A span counts only where the
    enclosure of every sign argument excludes 0 on it, so that no sign
    jumps there.  A span whose end value is undefined or not finite adds 0,
    and the quadrature reports its error as before.
    """
    f = spec.curve.f
    signs = [compile_enclosure(arg) for arg in dict.fromkeys(_sign_args(spec.func))]
    total = 0.0
    for lo, hi in spans:
        if not all(_excludes_zero(box(lo, hi)) for box in signs):
            continue
        try:
            rise = f(hi) - f(lo)
        except EvalDomainError:
            continue
        if math.isfinite(rise):
            total += math.hypot(hi - lo, rise)
    return spec.rows_per_unit * total


def _sign_args(e) -> list:
    """The argument of every sign call in the tree e."""
    found = [e.arg] if isinstance(e, Call) and e.fn == "sign" else []
    for c in e:
        if isinstance(c, Expr):
            found += _sign_args(c)
    return found


def _excludes_zero(box) -> bool:
    return box is not None and (box[0] > 0 or box[1] < 0)


def build_plan(spec: PatternSpec, prioritize_extrema: bool = True) -> LandmarkPlan:
    """Segment the interval, place one landmark per crochet row, and take f there.

    With prioritize_extrema, segment boundaries are {a, extrema.., b} so
    every local extremum lands exactly on a row; otherwise [a, b] is one
    segment.  Shared boundary landmarks are deduplicated when segments
    are concatenated.  Raises SpecValidationError for a plan of more than
    MAX_ROWS rows, before any landmark is placed (before any quadrature
    where the chords prove it, see _chord_rows), and for one whose widest
    row rounds to 0 stitches.  f at every landmark is checked as the grid
    walk checks its points, since a rounded landmark can fall between them.
    """
    if prioritize_extrema:
        bounds = [spec.a, *find_extrema(spec), spec.b]
    else:
        spec.validate()
        bounds = [spec.a, spec.b]

    spans = list(zip(bounds, bounds[1:]))
    too_many = SpecValidationError(
        f"the pattern would have more than {MAX_ROWS} rows; lower the scale or the row gauge"
    )
    if _chord_rows(spec, spans) > (MAX_ROWS + 0.5 * len(spans)) * (1 + CHORD_MARGIN):
        raise too_many
    lengths = [arclength_rows(spec, lo, hi) for lo, hi in spans]
    # inf and nan, which round_half_away cannot take, are not <= MAX_ROWS
    counts = [max(1, round_half_away(length)) for length in lengths if length <= MAX_ROWS]
    total = sum(counts)
    if len(counts) < len(lengths) or total > MAX_ROWS:
        raise too_many
    segments = [
        Segment(lo, hi, length, count)
        for (lo, hi), length, count in zip(spans, lengths, counts)
    ]

    landmarks: list[float] = []
    for seg in segments:
        pts = solve_landmarks(spec, seg)
        landmarks.extend(pts if not landmarks else pts[1:])

    f = spec.curve.f
    heights = [eval_height(f, x) for x in landmarks]
    # Two passes in C when every landmark is fine; min skips a nan that is
    # not first, the sum does not.
    if not (min(heights) > 0 and math.isfinite(sum(heights))):
        for x, y in zip(landmarks, heights):
            check_height(x, y, spec.a < x < spec.b)
    widest = 2.0 * math.pi * spec.stitches_per_unit * max(heights)
    if widest < 1 and round_half_away(widest) == 0:
        raise SpecValidationError(
            "every row would have 0 stitches; raise the scale or the stitch gauge"
        )
    return LandmarkPlan(tuple(segments), tuple(landmarks), total, tuple(heights))
