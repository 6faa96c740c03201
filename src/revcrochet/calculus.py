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
from bisect import bisect_left
from itertools import accumulate
from math import sqrt

from .expression import EvalDomainError, Record, compile_enclosure, compile_expr, differentiate

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: importing collections costs every run
    from collections.abc import Callable

QUAD_TOL = 1e-8
QUAD_MAX_DEPTH = 50
# Most subintervals one adaptive_simpson call may split, which bounds its
# time.  The test corpus needs at most 202,532 (sqrt-abs-14), the benchmark
# operations 169.  Unbounded, a pole at a segment end ran for minutes, and so
# did an arclength of 7e12 rows before the chord bound refused it up front.
QUAD_MAX_SPLITS = 2**20
# Most leaves that the segment quadratures of one plan tabulate for the
# landmark search (see adaptive_simpson); a segment whose quadrature would
# pass it keeps no table.  A leaf is two floats in a list, 64 bytes, so the
# tables stay under 4.3 MB.  The test corpus's plans keep at most 18,979
# leaves (sqrt-abs-26); sqrt-abs-14's one segment would take 202,533.
TABLE_LEAVES = 2**16
LANDMARK_XTOL = 1e-4      # bisection bracket width; finer than the 0.01 reporting step
# Distance in x from a landmark's crossing on the leaf table within which a
# replayed bisection step makes the plain step's comparison (see
# solve_landmarks).
LANDMARK_MARGIN = 2e-8
# Largest |g(x*) - quartic(x*)| times the leaf's width at which a leaf table
# is trusted for the crossing x* (see _crossings).
TABLE_SENTINEL = 1e-6
EXTREMUM_XTOL = 1e-9
EXTREMUM_DEDUPE = 1e-6
EXTREMUM_GRID = 4096      # cells of the one grid that validation and the f' sign scan walk
# Largest pattern build_plan places landmarks for: each row costs one
# crossing on the leaf table and one replayed bisection, 4.8 us for the
# running example (9,967 rows at scale 111) and 5.0 us for
# 3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2 (9,445 rows at scale 66), best of 11
# runs on CPython 3.11, 2 vCPUs (8.0 and 17 us with no table, where every
# step makes the exact comparison); build_plan takes 0.049 s and 0.058 s
# for them, so 10,000 rows take well under half a second.  The running
# example at scale 30 has 2,694.
MAX_ROWS = 10_000
# Relative slack of the chord bound on the row count (see _chord_rows), far
# above the quadrature's error on any arclength near the cap.
CHORD_MARGIN = 1e-3
# Grid cells at or below which a range where f is proven continuous is
# evaluated point by point, not halved again; f' is enclosed on no smaller
# range.  An enclosure of f' costs 10 to 25 point evaluations (3 us for the
# running example's f', 20 us for sin(5x)cos(3x) + exp(-x^2)x^2), wasted where
# it stays undecided.  Timing validate + find_extrema on the benchmark's
# anchor specs with 16, 32, 64 and 128 cells, 32 was fastest or within 5% of
# it on each: a ripple that no wide range decides pays 255 enclosures at 32
# cells and 511 at 16; 128 cells evaluate up to 4x more points.
SCAN_LEAF_CELLS = 32


class SpecValidationError(ValueError):
    """The six inputs do not describe a crochetable surface."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit the depth limit without converging."""


def round_half_away(v: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def round_landmark(x: float) -> float:
    """Round an x landmark to two decimals, ties away from zero.

    Past |x| = 1.8e306, where x * 100 overflows, an ulp of x is about 1e290,
    so x has no 0.01 digit to round and is returned as it is.
    """
    v = x * 100.0
    return round_half_away(v) / 100.0 if math.isfinite(v) else x


class Curve(Record):
    """One spec's f, compiled once: what every stage evaluates.

    f and fp are f and f' as callables of x; f_box and fp_box are their
    enclosures (see expression.compile_enclosure), and f is continuous
    wherever f_box exists (see _walk).
    """

    __slots__ = ()

    def __new__(cls, f, fp, f_box, fp_box):
        return tuple.__new__(cls, (f, fp, f_box, fp_box))


class _OnFirstUse:
    """An attribute fn(obj), computed on first read and kept in obj's dict.

    The kept value shadows this descriptor: later reads find it there, and
    it can be assigned like any attribute.
    """

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


class PatternSpec(Record):
    """The six user inputs: f, its interval, gauge, and physical scale.

    func is the tree of f over [a, b]; stitch_gauge and row_gauge count
    stitches and rows per 4 inches; scale is inches per x unit; source is
    the text f was parsed from.  The fields are read-only; curve is
    compiled from func on first use and kept with the spec.
    """

    def __new__(cls, func, a, b, stitch_gauge, row_gauge, scale, source):
        return tuple.__new__(cls, (func, a, b, stitch_gauge, row_gauge, scale, source))

    @_OnFirstUse
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

    def validate(self, pieces: list | None = None) -> None:
        """Check the invariants; raises SpecValidationError.

        f >= 0 at the endpoints, f > 0 on the open interval, and f'
        defined and finite on [a, b] are checked at every other point of
        the EXTREMUM_GRID walk (see _walk), which is as strong a guarantee
        as sampling can give.  A given list receives the walk's pieces.
        """
        _walk(self, False, [] if pieces is None else pieces)


def check_height(x: float, y: float, interior: bool) -> None:
    """Raise SpecValidationError if f(x) = y is not finite or < 0, or is 0 at an interior x."""
    if not math.isfinite(y):
        raise SpecValidationError(f"f is not finite at x={x!r}")
    if y < 0:
        raise SpecValidationError(f"f must be nonnegative on [a, b]; f({x!r}) = {y!r}")
    if y == 0 and interior:
        raise SpecValidationError(f"f must be positive on the open interval; f({x!r}) = 0")


class Segment(Record):
    """One stretch between consecutive extrema (or the endpoints)."""

    __slots__ = ()

    def __new__(cls, lo, hi, arclength_rows, row_count):
        return tuple.__new__(cls, (lo, hi, arclength_rows, row_count))


class LandmarkPlan(Record):
    """Segments, merged landmarks x_0 .. x_n, f at each, and build_plan's flag."""

    __slots__ = ()

    def __new__(cls, segments, landmarks, total_rows, heights, prioritize_extrema):
        return tuple.__new__(cls, (segments, landmarks, total_rows, heights, prioritize_extrema))


def adaptive_simpson(
    fp: Callable[[float], float], lo: float, hi: float, tables: list | None = None
) -> float:
    """Adaptive Simpson quadrature of sqrt(1 + fp(x)^2) over [lo, hi] to absolute QUAD_TOL.

    The integrand is the arclength's, taken straight from fp: each sample
    is one call of fp.  The first fp(x) that fails raises EvalDomainError
    naming x, and this call raises it again once, as "f' is " and fp's
    message, with fp's error as its cause.  A non-finite fp(x) is not
    checked for (that would cost every sample); the quadrature then ends
    in QuadratureError.  This call takes the samples at lo, the midpoint
    and hi; each step then takes two new samples at its quarter points and
    returns when its level is accepted, as most short intervals are at the
    first, or else recurses into each half.

    Each level halves the tolerance, so the accepted subintervals' error
    estimates sum to at most QUAD_TOL.  Near a cusp, the integrand can
    change too fast for the halved tolerance even on a subinterval a few
    ulps wide, after QUAD_MAX_DEPTH levels.  Such subintervals share a
    second allowance of QUAD_TOL: each is accepted while its error
    estimate fits in what is left of it, so the result is within
    2*QUAD_TOL by the estimates.  A subinterval that does not fit raises
    QuadratureError, and so does a call that splits more than
    QUAD_MAX_SPLITS subintervals, which bounds its time.  All three
    constants are read at each call.

    Every accepted value, left + right + delta/15, is Boole's rule on its
    five samples, with the positive weights (7, 32, 12, 32, 7)/90: the
    integral of the quartic through them.  So the result is at least the
    width times the least sample, up to rounding, a bound that
    solve_landmarks tests before it calls this.

    A given list tables receives (table, leaves): the leaf table of this
    quadrature, for solve_landmarks to read, and the leaves that the tables
    in the list hold so far.  The table is the list lo, then the value and
    the hi of each accepted leaf in recursion order, so left to right; leaf
    k is table[2k:2k + 3], (lo, value, hi).  The result is still the
    recursion's own sum, the same float as with no list.  The table is None
    where a leaf was accepted at the depth limit, which its five samples do
    not describe, and where the leaves would pass TABLE_LEAVES in the list;
    past that cap, recording stops.
    """
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    tol = QUAD_TOL
    # what is left of the second allowance, the splits made so far and,
    # with tables, the most splits whose leaves the tables still hold
    allowance = [tol, 0]
    table = None
    try:
        d = fp(lo)
        fa = sqrt(1.0 + d * d)
        d = fp(mid)
        fm = sqrt(1.0 + d * d)
        d = fp(hi)
        fb = sqrt(1.0 + d * d)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        if tables is not None:
            table, held = [lo], tables[-1][1] if tables else 0
            allowance.append(TABLE_LEAVES - held - 1)
        value = _simpson_step(fp, lo, hi, fa, fm, fb, whole, tol, QUAD_MAX_DEPTH, allowance, table)
    except EvalDomainError as exc:
        raise EvalDomainError(f"f' is {exc}") from exc
    if table is not None:
        if allowance[0] < tol or allowance[1] > allowance[2]:
            table = None  # a leaf at the depth limit spent allowance, or the cap was passed
        else:
            held += allowance[1] + 1
        tables.append((table, held))
    return value


def _simpson_step(fp, lo, hi, fa, fm, fb, whole, tol, depth, allowance, table):
    mid = 0.5 * (lo + hi)
    d = fp(0.5 * (lo + mid))
    flm = sqrt(1.0 + d * d)
    d = fp(0.5 * (mid + hi))
    frm = sqrt(1.0 + d * d)
    left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
    right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        value = left + right + delta / 15.0
        if table is not None:
            table += (value, hi)
        return value
    if depth <= 0 or allowance[1] >= QUAD_MAX_SPLITS:
        return _at_limit(lo, hi, left + right + delta / 15.0, delta, depth, allowance)
    allowance[1] += 1
    if table is not None and allowance[1] > allowance[2]:
        table = None  # past the cap: the rest of the table would be dropped
    half = 0.5 * tol
    return _simpson_step(
        fp, lo, mid, fa, flm, fm, left, half, depth - 1, allowance, table
    ) + _simpson_step(fp, mid, hi, fm, frm, fb, right, half, depth - 1, allowance, table)


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


def arclength_rows(spec: PatternSpec, lo: float, hi: float, tables: list | None = None) -> float:
    """Arclength of f over [lo, hi] converted to row units.

    A given list tables receives the quadrature's leaf table (see
    adaptive_simpson), which solve_landmarks reads.
    """
    if not (spec.a <= lo < hi <= spec.b):
        raise ValueError(f"need a <= lo < hi <= b, got lo={lo!r}, hi={hi!r}")
    return spec.rows_per_unit * adaptive_simpson(spec.curve.fp, lo, hi, tables)


def find_extrema(spec: PatternSpec, pieces: list | None = None) -> list[float]:
    """x values in (a, b) where f' changes sign, sorted ascending.

    The same walk of the grid (see _walk) validates the spec and fills
    pieces as PatternSpec.validate does.  Sign changes of f' between grid
    points are located by bisection to EXTREMUM_XTOL; results closer
    together than EXTREMUM_DEDUPE are merged.
    """
    return _walk(spec, True, [] if pieces is None else pieces)


def _walk(spec, extrema, pieces):
    """Check the spec on the grid a + i*step, i < EXTREMUM_GRID, and b, left to right.

    Each even point gets validate's checks: f, then f'.  With extrema, f'
    at every point also feeds a sign scan, and each sign change is bisected
    as soon as it is found; the bisected x values are returned, less each
    within EXTREMUM_DEDUPE of the one kept before it, of a or of b.  The
    first grid point or bisection midpoint that fails raises
    SpecValidationError.

    Ranges of cells are halved, left half first, while their enclosures leave
    undecided a fact their points need: f > 0 (spares the checks of f), f'
    finite (those of f') and, with extrema, the sign of f' (all > 0, all < 0 or
    exactly 0: no scan).  Halves inherit every fact proven, and f continuous,
    where the enclosure of f exists (see compile_enclosure): a range is halved
    down to SCAN_LEAF_CELLS cells where f is proven continuous and to one cell
    elsewhere, enclosing only f below SCAN_LEAF_CELLS, then its points are
    evaluated.  lo and hi are the grid points at the range's ends, and float
    rounding is monotone, so every grid point of the range lies between them.
    The first failure, every bracket and every root are the same floats as
    with every point evaluated.  pieces receives the ranges in order as (lo,
    hi, continuous), adjacent continuous ones joined.
    """
    # bool is an int, and True would pass every check below as 1; a str,
    # a complex or None would end in TypeError
    for name in ("a", "b", "stitch_gauge", "row_gauge", "scale"):
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecValidationError(f"{name} must be a number, not {value!r}")
    # Below the bound no sum of two points of [a, b] overflows: not b - a,
    # nor any midpoint 0.5 * (lo + hi).  An int a or b compares exactly.
    if not (abs(spec.a) < 2.0**1023 and abs(spec.b) < 2.0**1023):
        raise SpecValidationError("a and b must be finite and less than 2**1023 in magnitude")
    if not spec.a < spec.b:
        raise SpecValidationError("a must be less than b")
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
    a, b, n = spec.a, spec.b, EXTREMUM_GRID
    step = (b - a) / n

    def deriv(x):
        try:
            v = fp(x)
        except EvalDomainError as exc:
            raise SpecValidationError(f"f' is {exc}") from exc
        if not math.isfinite(v):
            raise SpecValidationError(f"f' is not finite at x={x!r}")
        return v

    roots = []
    last_x, last_sign = None, 0
    ranges = [(0, n, False, False, False, None)]
    while ranges:
        c0, c1, f_ok, cont, fp_ok, sign = ranges.pop()
        lo, hi = a + c0 * step, a + c1 * step if c1 < n else b
        if sign is None and (extrema or not fp_ok) and c1 - c0 >= SCAN_LEAF_CELLS:
            d = fp_box(lo, hi)
            if d is not None:
                fp_ok = True
                sign = 1 if d[0] > 0 else -1 if d[1] < 0 else 0 if d[0] == d[1] else None
        if not f_ok:
            y = f_box(lo, hi)
            if y is not None:
                f_ok, cont = y[0] > 0, True
        scan = extrema and sign is None
        if scan or not (f_ok and fp_ok):
            if c1 - c0 > (SCAN_LEAF_CELLS if cont else 1):
                mid = (c0 + c1) // 2
                ranges += [(mid, c1, f_ok, cont, fp_ok, sign), (c0, mid, f_ok, cont, fp_ok, sign)]
                continue
            stride = 1 if scan else 2
            start = c0 + 1 if c0 else 0  # the range before ended at point c0, covering it
            for i in range(start + start % stride, c1 + 1, stride):
                x = a + i * step if i < n else b
                if not (f_ok or i % 2):
                    try:
                        y = f(x)
                    except EvalDomainError as exc:
                        raise SpecValidationError(f"f is {exc}") from exc
                    if not 0 < y < math.inf:
                        check_height(x, y, 0 < i < n)
                if not scan:
                    if not fp_ok:
                        deriv(x)
                    continue
                v = deriv(x)
                s = (v > 0) - (v < 0)
                if s:
                    if last_sign and s != last_sign:
                        r = _bisect_sign_change(deriv, last_x, x, last_sign)
                        # extrema essentially at a or b belong to the endpoints
                        if not (roots and r - roots[-1] <= EXTREMUM_DEDUPE
                                or r - a <= EXTREMUM_DEDUPE or b - r <= EXTREMUM_DEDUPE):
                            roots.append(r)
                    last_x, last_sign = x, s
        if sign:
            # The range's first cell starts at the last point scanned, of
            # this sign too, so the range holds no sign change.
            last_x, last_sign = hi, sign
        if cont and pieces and pieces[-1][2]:
            lo = pieces.pop()[0]  # join the continuous piece before
        pieces.append((lo, hi, cont))
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


def solve_landmarks(spec: PatternSpec, seg: Segment, table=None) -> list[float]:
    """Landmarks x_0 .. x_rowcount for one segment.

    Interior landmark i satisfies rows(seg.lo, x_i) = i * L / row_count,
    with the arclength always accumulated from seg.lo; each is found by
    bisection (the accumulated arclength is strictly increasing), rounded
    to two decimals and clamped into [a, b], which rounding can leave where
    a or b is off the 0.01 grid.  The segment endpoints stay unrounded.

    The bisection brackets landmark i from [xl, seg.hi], xl being where
    landmark i - 1's bracket ended.  Its exact comparison moves xl to mid
    where al, the arclength in rows accumulated at xl, plus factor times
    adaptive_simpson(fp, xl, mid) is below the target.

    table is the segment quadrature's leaf table, as adaptive_simpson
    records it in build_plan.  Where the box of f' on the whole segment is
    decided (so no step could raise) and _crossings trusts the table, each
    landmark's crossing x* is read off the table, and a step whose mid is
    more than a margin from x* moves as its comparison would, without
    integrating: LANDMARK_MARGIN, for the drift between al and the table,
    plus the sentinel's residual at x*, for the quartic's error inside a
    wide leaf.  A left move made so leaves al behind: path holds xl where
    al was last exact, then each move of xl since, and a step that
    integrates first adds their quadratures to al as the exact steps would
    have (see _rebuilt).  Every bracket then ends where the exact
    comparisons alone end it, except where the quadrature of a wide [xl,
    mid] aliases an oscillating integrand and is off by more than the
    margin; the table's crossing is the right one there.  Any other segment
    has no crossings, so every step is within the margin.

    A step within the margin, a near-tie on the table, moves xr to mid
    without integrating where a lower bound on the arclength already
    decides the step, so the cost per landmark does not grow with segment
    length.  Each step tests one bound: the width times the least integrand
    g = sqrt(1 + f'^2), 1 anywhere, or sqrt(1 + m^2) where the enclosure of
    f' proves |f'| >= m: once per landmark, on [xl, mid] of the first step
    the width leaves undecided, for that step and the later ones inside it.
    al is at most the arclength at xl, a float sum of nonnegative
    quadratures along path, and float + is monotone, so a bound that
    decides the step with al decides it with the arclength at xl too, and
    the exact comparison would move right as well.  So every bracket,
    accumulated arclength and landmark is the same float as with a
    quadrature per step.
    """
    fp, fp_box = spec.curve.fp, spec.curve.fp_box
    factor, a, b = spec.rows_per_unit, spec.a, spec.b
    targets = [i * seg.arclength_rows / seg.row_count for i in range(1, seg.row_count)]
    crossings = None
    if table is not None and targets and fp_box(seg.lo, seg.hi) is not None:
        crossings, residuals = _crossings(fp, table, [target / factor for target in targets])
    xs = [seg.lo]
    xl, al = seg.lo, 0.0  # left bracket and its arclength in rows: all that crosses rows
    path = [xl]  # xl where al was last exact, then each move of xl since
    below, above = -math.inf, math.inf
    for i, target in enumerate(targets):
        xr = seg.hi
        if crossings is not None:
            margin = LANDMARK_MARGIN + residuals[i]
            below, above = crossings[i] - margin, crossings[i] + margin
        # the right end of this landmark's box of f' and the least g it
        # proves; least_g is None until f' is enclosed
        box_hi, least_g = -math.inf, None
        while xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            if not xl < mid < xr:
                break  # the bracket is one ulp wide, wider than LANDMARK_XTOL
            # The quadrature returns at least the width times its least
            # sample, up to rounding that the relative slack covers, and
            # float *, + and sqrt round monotonically, so each sample
            # sqrt(1.0 + d * d) is at least sqrt(1 + m*m) where |d| >= m.
            # The box starts at an earlier xl of this landmark, and xl never
            # decreases, so it holds [xl, mid] when mid <= box_hi.
            if mid < below:
                xl = mid
                path.append(mid)
            elif mid > above or al + factor * (
                (mid - xl) * (least_g if mid <= box_hi else 1.0) * (1.0 - 1e-12)
            ) >= target:
                xr = mid
            elif least_g is None:
                box = fp_box(xl, mid)
                m = 0.0 if box is None else max(box[0], -box[1], 0.0)
                # the same step again, with the box's bound
                box_hi, least_g = mid, sqrt(1.0 + m * m)
            else:
                al = _rebuilt(fp, factor, path, al)
                amid = al + factor * adaptive_simpson(fp, xl, mid)
                if amid < target:
                    xl, al = mid, amid
                else:
                    xr = mid
                path = [xl]
        x = round_landmark(0.5 * (xl + xr))
        xs.append(a if x < a else b if x > b else x)
    xs.append(seg.hi)
    return xs


def _rebuilt(fp, factor, path, al):
    """al at path[-1], given al at path[0]: each move along path adds factor
    times its quadrature, as an exact step adds it."""
    for u, v in zip(path, path[1:]):
        al += factor * adaptive_simpson(fp, u, v)
    return al


def _crossings(fp, table, targets):
    """(crossings, residuals): where a leaf table's arclength reaches each target.

    The targets ascend, in the table's units.  Each is located among the
    leaves' prefix sums, and inside its leaf the crossing x* solves F(x*) =
    the rest, F being the integral from the leaf's lo of the quartic
    through its five samples, whose integral over the leaf is its Boole
    value; Newton's method finds it, from the linear guess.  The samples
    are taken again where the quadrature took them, the same floats, once
    per leaf that holds a crossing.  A sentinel sample g(x*) checks each
    crossing: its residual is |g(x*) - quartic(x*)| times the leaf's width.
    crossings is None, and the table not trusted, where a residual passes
    TABLE_SENTINEL (the last residual is that one), where the quartic is
    not positive along Newton's path or Newton leaves the leaf, and where
    f' fails.
    """
    ends = list(accumulate(table[1::2]))
    last, k = len(ends) - 1, -1
    found, residuals = [], []
    try:
        for target in targets:
            j = bisect_left(ends, target, max(k, 0), last)
            if j != k:
                lo, value, hi = table[2 * j:2 * j + 3]
                mid = 0.5 * (lo + hi)
                xs = (0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
                if j != k + 1 or not found:
                    xs = (lo, *xs)
                gs = [sqrt(1.0 + d * d) for d in map(fp, xs)]
                g0, g1, g2, g3, g4 = gs if len(gs) == 5 else (g4, *gs)
                k, start, h = j, ends[j - 1] if j else 0.0, 0.25 * (hi - lo)
                # the quartic p(u) = g2 + c1*u + ... + c4*u^4 in u = (x - mid) / h,
                # and its integral P(u) = g2*u + e2*u^2 + ... + e5*u^5; p_lo = P(-2)
                c1 = (g0 - 8.0 * g1 + 8.0 * g3 - g4) / 12.0
                c2 = (16.0 * (g1 + g3) - g0 - 30.0 * g2 - g4) / 24.0
                c3 = (g4 - g0 + 2.0 * (g1 - g3)) / 12.0
                c4 = (g0 + g4 - 4.0 * (g1 + g3) + 6.0 * g2) / 24.0
                e2, e3, e4, e5 = 0.5 * c1, c2 / 3.0, 0.25 * c3, 0.2 * c4
                p_lo = -2.0 * (g2 - 2.0 * (e2 - 2.0 * (e3 - 2.0 * (e4 - 2.0 * e5))))
            # Newton's method from the linear guess: a step of at most 1e-7
            # leaves an error near its square, far below an ulp of x
            rest = (target - start) / h + p_lo
            u = 4.0 * (target - start) / value - 2.0
            for _ in range(8):
                p = g2 + u * (c1 + u * (c2 + u * (c3 + u * c4)))
                if not (p > 0.0 and -2.0 - 1e-9 <= u <= 2.0 + 1e-9):
                    return None, residuals
                step = (u * (g2 + u * (e2 + u * (e3 + u * (e4 + u * e5)))) - rest) / p
                u -= step
                if abs(step) <= 1e-7:
                    break
            else:
                return None, residuals
            x = lo + (u + 2.0) * h
            d = fp(x)
            p = g2 + u * (c1 + u * (c2 + u * (c3 + u * c4)))
            residual = abs(sqrt(1.0 + d * d) - p) * (hi - lo)
            residuals.append(residual)
            if not residual <= TABLE_SENTINEL:
                return None, residuals
            found.append(x)
    except EvalDomainError:
        return None, residuals
    return found, residuals


def _chord_rows(spec: PatternSpec, pieces, cuts) -> float:
    """Sum of the chords from (lo, f(lo)) to (hi, f(hi)) over _walk's pieces, in rows.

    Where f is continuous, a chord is no longer than the arc, so a sum
    over MAX_ROWS (with CHORD_MARGIN and half a row per segment for the
    rounding of its count) proves the cap passed without a quadrature.
    Across a jump of sign, f' is 0, so the arclength leaves the jump out
    while a chord crosses it.  Each continuous piece counts, split at the
    cuts (segment bounds, ascending) inside it; a cell not proven
    continuous counts only its parts between cuts where the enclosure of
    f exists, as next to a pole's extremum.  A rise that overflows adds 0.
    """
    f, f_box = spec.curve.f, spec.curve.f_box
    total, k = 0.0, 0
    for lo, hi, cont in pieces:
        xs = [lo]
        while k < len(cuts) and cuts[k] < hi:
            if cuts[k] > lo:
                xs.append(cuts[k])
            k += 1
        if len(xs) == 1 and not cont:
            continue
        xs.append(hi)
        for u, v in zip(xs, xs[1:]):
            if cont or f_box(u, v) is not None:
                rise = f(v) - f(u)
                if math.isfinite(rise):
                    total += math.hypot(v - u, rise)
    return spec.rows_per_unit * total


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
    pieces, cuts = [], []
    if prioritize_extrema:
        cuts = find_extrema(spec, pieces)
    else:
        spec.validate(pieces)
    bounds = [spec.a, *cuts, spec.b]
    spans = list(zip(bounds, bounds[1:]))
    too_many = SpecValidationError(
        f"the pattern would have more than {MAX_ROWS} rows; lower the scale or the row gauge"
    )
    if _chord_rows(spec, pieces, cuts) > (MAX_ROWS + 0.5 * len(spans)) * (1 + CHORD_MARGIN):
        raise too_many
    tables = []
    lengths = [arclength_rows(spec, lo, hi, tables) for lo, hi in spans]
    # inf and nan, which round_half_away cannot take, are not <= MAX_ROWS
    counts = [max(1, round_half_away(length)) for length in lengths if length <= MAX_ROWS]
    total = sum(counts)
    if len(counts) < len(lengths) or total > MAX_ROWS:
        raise too_many
    segments = tuple(
        Segment(lo, hi, length, count)
        for (lo, hi), length, count in zip(spans, lengths, counts)
    )

    landmarks: list[float] = []
    for seg, (table, _) in zip(segments, tables, strict=True):
        pts = solve_landmarks(spec, seg, table)
        landmarks.extend(pts if not landmarks else pts[1:])

    f = spec.curve.f
    try:
        heights = list(map(f, landmarks))
    except EvalDomainError as exc:  # map stops at the first undefined x, which exc names
        raise SpecValidationError(f"f is {exc}") from exc
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
    return LandmarkPlan(segments, tuple(landmarks), total, tuple(heights), prioritize_extrema)
