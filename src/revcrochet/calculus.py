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
# Most split nodes that the recorded quadrature trees of one plan keep (see
# adaptive_simpson); past it, nodes are not kept.  A split node and its
# floats hold about 170 bytes, so the trees stay under 6 MB: the corpus spec
# sqrt-abs-58 fills them, and cli.run on it peaks at 5.3 MB traced.  With
# neither this cap nor TREE_REACH_ROWS, the trees held 33 MB on sqrt-abs-14
# (202,532 splits).
TREE_SPLITS = 2**15
# Rows of arclength from a segment's start within which its recorded tree
# keeps split nodes.  A segment of L rows gets round(L) rows, and has a first
# landmark only if that is 2 or more; its share L / round(L) is then at most
# 1.25 rows, and the first landmark's bisection reads no node that starts
# past it.
TREE_REACH_ROWS = 1.5
LANDMARK_XTOL = 1e-4      # bisection bracket width; finer than the 0.01 reporting step
EXTREMUM_XTOL = 1e-9
EXTREMUM_DEDUPE = 1e-6
EXTREMUM_GRID = 4096      # cells of the one grid that validation and the f' sign scan walk
# Largest pattern build_plan places landmarks for: each row costs one
# landmark bisection, 9 to 15 us for the running example (9,967 rows at
# scale 111) and 29 to 31 us for 3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2
# (9,445 rows at scale 66), best of 12 in each of three runs on CPython
# 3.11, 2 vCPUs; build_plan takes 0.12 s and 0.28 s for them, so 10,000 rows
# take under half a second.  The running example at scale 30 has 2,694.
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
    fp: Callable[[float], float],
    lo: float,
    hi: float,
    trees: list | None = None,
    reach: float = math.inf,
) -> float:
    """Adaptive Simpson quadrature of sqrt(1 + fp(x)^2) over [lo, hi] to absolute QUAD_TOL.

    The integrand is the arclength's, taken straight from fp: each sample
    is one call of fp.  The first fp(x) that fails raises EvalDomainError
    naming x, and this call raises it again once, as "f' " and fp's
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
    five samples, with the positive weights (7, 32, 12, 32, 7)/90; so the
    result is at least the width times the least sample, up to rounding
    (see solve_landmarks).

    A given list trees receives the tree of this quadrature, for
    solve_landmarks to read, as (node, kept): the root's node, and the
    number of split nodes the trees in the list keep so far.  A node that
    passed its error test is its float value.  A split node is (own,
    delta, left, right, least): its own Boole value left + right +
    delta/15 and error term delta, as its error test read them, its
    halves' nodes, and the least value that a quadrature of its interval
    to a looser tolerance can return, min(own, least(left) +
    least(right)), float addition being monotone.  Some nodes are not
    kept, and are None: a split node that starts farther than reach from
    lo (by the values of the nodes left of it), every split node past
    TREE_SPLITS kept in the list, and a node accepted at the depth limit.
    The least value of the first two is the width times 1 - 1e-12, as
    every sample is at least 1 (see solve_landmarks); that of the last is
    -inf, as a looser quadrature could sample it further, where the
    recording took no sample.
    """
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    try:
        d = fp(lo)
        fa = sqrt(1.0 + d * d)
        d = fp(mid)
        fm = sqrt(1.0 + d * d)
        d = fp(hi)
        fb = sqrt(1.0 + d * d)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        # The first level is a step with no split made yet; the allowance
        # list holds what is left of the second allowance and the splits
        # made so far, and with trees also the split nodes the trees may
        # still keep, and how far from lo they may start.
        if trees is None:
            return _simpson_step(
                fp, lo, hi, fa, fm, fb, whole, QUAD_TOL, QUAD_MAX_DEPTH, [QUAD_TOL, 0]
            )
        allowance = [QUAD_TOL, 0, TREE_SPLITS - (trees[-1][1] if trees else 0), reach]
        value, node, _ = _recorded_step(
            fp, lo, hi, fa, fm, fb, whole, QUAD_TOL, QUAD_MAX_DEPTH, allowance, 0.0
        )
    except EvalDomainError as exc:
        raise EvalDomainError(f"f' {exc}") from exc
    trees.append((node, TREE_SPLITS - allowance[2]))
    return value


def _simpson_step(fp, lo, hi, fa, fm, fb, whole, tol, depth, allowance):
    mid = 0.5 * (lo + hi)
    d = fp(0.5 * (lo + mid))
    flm = sqrt(1.0 + d * d)
    d = fp(0.5 * (mid + hi))
    frm = sqrt(1.0 + d * d)
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


def _recorded_step(fp, lo, hi, fa, fm, fb, whole, tol, depth, allowance, start):
    """_simpson_step, returning its value, its node and the node's least
    value (see adaptive_simpson); start is the sum of the values left of lo."""
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
        return value, value, value
    if depth <= 0 or allowance[1] >= QUAD_MAX_SPLITS:
        value = _at_limit(lo, hi, left + right + delta / 15.0, delta, depth, allowance)
        return value, None, -math.inf
    allowance[1] += 1
    half = 0.5 * tol
    if start > allowance[3] or allowance[2] <= 0:
        value = _simpson_step(
            fp, lo, mid, fa, flm, fm, left, half, depth - 1, allowance
        ) + _simpson_step(fp, mid, hi, fm, frm, fb, right, half, depth - 1, allowance)
        return value, None, (hi - lo) * (1.0 - 1e-12)
    allowance[2] -= 1
    lvalue, lnode, least = _recorded_step(
        fp, lo, mid, fa, flm, fm, left, half, depth - 1, allowance, start
    )
    rvalue, rnode, rleast = _recorded_step(
        fp, mid, hi, fm, frm, fb, right, half, depth - 1, allowance, start + lvalue
    )
    least += rleast
    own = left + right + delta / 15.0
    if own < least:
        least = own
    return lvalue + rvalue, (own, delta, lnode, rnode, least), least


def _replay(node, tol):
    """adaptive_simpson of a recorded node's interval at tolerance tol, from
    the values and error terms the tree holds; nan where it needs a node
    not kept.

    It makes _simpson_step's error test on the recording's floats; at a tol
    no tighter than the node's in the recording, as QUAD_TOL is for every
    node, it splits only where the recording split, never at the depth
    limit or the split bound, and returns the same float with no fp call.
    """
    if node.__class__ is not tuple:
        return math.nan if node is None else node  # a leaf passed a tighter test
    own, delta, lnode, rnode, _ = node
    if abs(delta) <= 15.0 * tol:
        return own
    half = 0.5 * tol
    return _replay(lnode, half) + _replay(rnode, half)


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


def arclength_rows(spec: PatternSpec, lo: float, hi: float, trees: list | None = None) -> float:
    """Arclength of f over [lo, hi] converted to row units.

    A given list trees receives the quadrature's tree (see
    adaptive_simpson), with the split nodes that start within
    TREE_REACH_ROWS of lo: all that the tree steps of the first landmark
    from lo read (see solve_landmarks).
    """
    if not (spec.a <= lo < hi <= spec.b):
        raise ValueError(f"need a <= lo < hi <= b, got lo={lo!r}, hi={hi!r}")
    factor = spec.rows_per_unit
    reach = TREE_REACH_ROWS / factor if factor > 0 else math.inf
    return factor * adaptive_simpson(spec.curve.fp, lo, hi, trees, reach)


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


def solve_landmarks(spec: PatternSpec, seg: Segment, tree: tuple | None = None) -> list[float]:
    """Landmarks x_0 .. x_rowcount for one segment.

    Interior landmark i satisfies rows(seg.lo, x_i) = i * L / row_count,
    with the arclength always accumulated from seg.lo; each is found by
    bisection (the accumulated arclength is strictly increasing), rounded
    to two decimals and clamped into [a, b], which rounding can leave where
    a or b is off the 0.01 grid.  The segment endpoints stay unrounded.

    A bisection step whose outcome a lower bound on the arclength already
    decides moves the right bracket without running the quadrature, so the
    cost per landmark does not grow with segment length.  Each step tests
    one bound: the width times the least integrand g = sqrt(1 + f'^2), 1
    anywhere, or sqrt(1 + m^2) where the enclosure of f' proves |f'| >= m:
    once per landmark, on [xl, mid] of the first step the width leaves
    undecided, for that step and the later ones inside it.  adaptive_simpson
    forms g inline from f', so the bound holds for every sample it takes.
    Only steps that would have gone right are skipped, so every bracket,
    accumulated arclength and landmark is the same float as with a
    quadrature per step.  A skipped step's quadrature is never run, so it
    cannot raise QuadratureError.

    tree is the segment's quadrature tree, (node, kept) as adaptive_simpson
    records it in build_plan.  The first landmark's bracket starts at the
    root's interval [seg.lo, seg.hi] and is halved as the quadrature halved
    it, so while it stands on a split node, leading steps read the tree: the
    left half's least value (the width bound for a half not kept) decides a
    step where it reaches the target, and otherwise _replay gives the float
    of the step's quadrature, a looser one of that half.  A step that needs
    a node the tree lacks leaves the rest to the plain steps.  After an
    extremum, where f' = 0 at seg.lo and the box of f' proves nothing, the
    plain steps would cost most of the segment's samples.
    """
    fp, fp_box = spec.curve.fp, spec.curve.fp_box
    factor, a, b = spec.rows_per_unit, spec.a, spec.b
    xs = [seg.lo]
    xl, al = seg.lo, 0.0  # left bracket and its arclength in rows: all that crosses rows
    node = None if tree is None else tree[0]  # the bracket's node, for the first landmark
    for i in range(1, seg.row_count):
        target = i * seg.arclength_rows / seg.row_count
        # the right end of this landmark's box of f' and the least g it
        # proves; least_g is None until f' is enclosed
        xr, box_hi, least_g = seg.hi, -math.inf, None
        while node.__class__ is tuple and xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            if not xl < mid < xr:
                break  # the bracket is one ulp wide, wider than LANDMARK_XTOL
            lnode = node[2]
            if lnode.__class__ is tuple:
                least = lnode[4]
            else:
                least = (mid - xl) * (1.0 - 1e-12) if lnode is None else lnode
            if al + factor * least < target:
                amid = al + factor * _replay(lnode, QUAD_TOL)
                if amid != amid:
                    break  # nan: the quadrature needs a node the tree lacks
                if amid < target:
                    xl, al, node = mid, amid, node[3]
                    continue
            xr, node = mid, lnode
        node = None  # later landmarks take only the plain steps
        while xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            if not xl < mid < xr:
                break  # the bracket is one ulp wide, wider than LANDMARK_XTOL
            # adaptive_simpson returns at least the width times its least
            # sample, up to rounding that the relative slack covers, and
            # float *, + and sqrt round monotonically, so each sample
            # sqrt(1.0 + d * d) is at least sqrt(1 + m*m) where |d| >= m.
            # The box starts at an earlier xl of this landmark, and xl never
            # decreases, so it holds [xl, mid] when mid <= box_hi.
            g = least_g if mid <= box_hi else 1.0
            if al + factor * ((mid - xl) * g * (1.0 - 1e-12)) >= target:
                xr = mid
                continue
            if least_g is None:
                box = fp_box(xl, mid)
                m = 0.0 if box is None else max(box[0], -box[1], 0.0)
                box_hi, least_g = mid, sqrt(1.0 + m * m)
                continue  # the same step again, with the box's bound
            amid = al + factor * adaptive_simpson(fp, xl, mid)
            if amid < target:
                xl, al = mid, amid
            else:
                xr = mid
        x = round_landmark(0.5 * (xl + xr))
        xs.append(a if x < a else b if x > b else x)
    xs.append(seg.hi)
    return xs


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
    trees = []
    lengths = [arclength_rows(spec, lo, hi, trees) for lo, hi in spans]
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
    for seg, tree in zip(segments, trees, strict=True):
        pts = solve_landmarks(spec, seg, tree)
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
