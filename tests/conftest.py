import argparse
import json
import math
import random
import re
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from revcrochet import (
    LandmarkPlan,
    PatternDoc,
    PatternRow,
    PatternSpec,
    RowShaping,
    Segment,
    build_plan,
    calculus,
    parse,
    render_pattern,
    shape_rows,
)
from revcrochet.calculus import (
    EXTREMUM_DEDUPE,
    EXTREMUM_GRID,
    LANDMARK_XTOL,
    QUAD_MAX_DEPTH,
    QUAD_TOL,
    Curve,
    QuadratureError,
    SpecValidationError,
    _bisect_sign_change,
    check_height,
    round_landmark,
)
from revcrochet.cli import GRAMMAR_HELP
from revcrochet.emit import SVG_SAMPLES
from revcrochet.expression import (
    Binary,
    Call,
    Const,
    EvalDomainError,
    Neg,
    Var,
    compile_expr,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

RUNNING_TEXT = "x^3 + 2*x^2 - 2*x + 4"
EXTREMUM_LO = (-2 - math.sqrt(10)) / 3
EXTREMUM_HI = (-2 + math.sqrt(10)) / 3

# published reference data for the running example
TABLE_STITCHES = [6, 12, 18, 24, 29, 35, 41, 47, 51, 47, 42, 37, 32, 27, 22, 26, 31]
LANDMARKS_EXTREMA = [
    -3.0, -2.93, -2.84, -2.75, -2.65, -2.53, -2.38, -2.18, EXTREMUM_LO,
    -1.22, -0.92, -0.67, -0.41, -0.12, EXTREMUM_HI, 0.81, 1.0,
]
LANDMARKS_EVEN = [
    -3.0, -2.93, -2.85, -2.76, -2.67, -2.56, -2.42, -2.25, -1.96,
    -1.34, -1.01, -0.74, -0.48, -0.20, 0.22, 0.78, 1.0,
]
SEGMENT_ROW_LENGTHS = [8.434, 5.923, 1.805]
SEGMENT_ROW_COUNTS = [8, 6, 2]


@pytest.fixture(scope="session")
def running_spec():
    return PatternSpec(
        func=parse(RUNNING_TEXT),
        a=-3.0,
        b=1.0,
        stitch_gauge=22,
        row_gauge=25,
        scale=0.18,
        source=RUNNING_TEXT,
    )


@pytest.fixture(scope="session")
def running_plan(running_spec):
    return build_plan(running_spec, prioritize_extrema=True)


@pytest.fixture(scope="session")
def running_plan_even(running_spec):
    return build_plan(running_spec, prioritize_extrema=False)


@pytest.fixture(scope="session")
def running_rows(running_spec, running_plan):
    return shape_rows(running_spec, running_plan)


@pytest.fixture(scope="session")
def running_doc(running_spec, running_plan, running_rows):
    return render_pattern(running_spec, running_plan, running_rows)


def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


# --- record oracle --------------------------------------------------------
# The package's records are tuples with named fields whose __new__ is written
# by hand (expression.Record).  collections.namedtuple, which they replaced,
# says how each must behave.

# Fields and defaults of every record, as the namedtuple classes declared them.
RECORD_DECLARATIONS = {
    Const: "value",
    Var: "",
    Call: "fn arg",
    Neg: "arg",
    Binary: "op left right",
    Curve: "f fp f_box fp_box",
    PatternSpec: "func a b stitch_gauge row_gauge scale source",
    Segment: "lo hi arclength_rows row_count",
    LandmarkPlan: "segments landmarks total_rows heights prioritize_extrema",
    RowShaping: ("index x stitches op n_ops q r k positions steep", (0, None, None, None, (), False)),
    PatternRow: "row x stitches op n_ops q r k positions instruction",
    PatternDoc: "function a b stitch_gauge row_gauge scale prioritize_extrema total_rows"
                " closed_start closed_end stuffed warnings landmarks rows finishing",
}
RECORD_CLASSES = list(RECORD_DECLARATIONS)


def namedtuple_oracle(cls):
    """The namedtuple with cls's name, _fields and defaults."""
    return namedtuple(cls.__name__, cls._fields, defaults=cls.__new__.__defaults__)


# --- independent shaping oracle -------------------------------------------
# Integer reformulation of the k-search: with the reference positions over
# denominator D and every candidate over denominator low, all distances are
# multiples of 1/(D*low), so candidates compare exactly via integer pairs
# (min numerator, sum-of-nearest numerators).

def _circ_int(u, v, modulus):
    d = abs(u - v) % modulus
    return min(d, modulus - d)


def brute_force_placement(prev_positions, prev_denom, s_prev, s_cur):
    """Exhaustive k-scan with the same strict-improvement tie rule."""
    n_ops = abs(s_cur - s_prev)
    low = min(s_prev, s_cur)
    assert 0 < n_ops <= low
    q, r = divmod(low, n_ops)
    best_k, best = 1, tuple(q * j + 1 for j in range(n_ops))
    if not prev_positions:
        return best_k, best
    modulus = prev_denom * low
    prev_scaled = [p * low for p in prev_positions]
    best_key = (0, 0)
    for k in range(1, q + r + 1):
        cand = tuple(q * j + k for j in range(n_ops))
        cand_scaled = [p * prev_denom for p in cand]
        mins = [min(_circ_int(u, v, modulus) for u in prev_scaled) for v in cand_scaled]
        key = (min(mins), sum(mins))
        if key > best_key:
            best_key, best_k, best = key, k, cand
    return best_k, best


# --- shaping definitions -------------------------------------------------
# d1 and d2 as the paper defines them, over exact Fraction ratios; the
# integer kernel in shaping must order candidates exactly as they do.

def circular_distance(u, v):
    """Distance between two positions on the unit circle, in [0, 1/2].

    Works for floats and Fractions alike; only the values mod 1 matter.
    """
    d = abs(v - u) % 1
    return min(d, 1 - d)


def d1(prev_ratios, cur_ratios):
    """Smallest circular distance between any pair across the two sets."""
    prev_ratios, cur_ratios = list(prev_ratios), list(cur_ratios)
    if not prev_ratios or not cur_ratios:
        raise ValueError("d1 needs two nonempty ratio sets")
    return min(circular_distance(u, v) for u in prev_ratios for v in cur_ratios)


def d2(prev_ratios, cur_ratios):
    """Mean over cur_ratios of the distance to the nearest prev ratio."""
    prev_ratios, cur_ratios = list(prev_ratios), list(cur_ratios)
    if not prev_ratios or not cur_ratios:
        raise ValueError("d2 needs two nonempty ratio sets")
    total = sum(min(circular_distance(u, v) for u in prev_ratios) for v in cur_ratios)
    return total / len(cur_ratios)


def ratio_set(positions, denom):
    """Positions normalized by the row's instruction count, as fractions."""
    return tuple(Fraction(p, denom) for p in positions)


def nearest_table(ref_positions, ref_denom, low):
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


def shift_keys(ref_positions, ref_denom, low, n_ops):
    """Integer (min, sum) nearest-distance key of every shift k = 1 .. q+r.

    The exhaustive scan over one nearest-distance table that shaping's gap
    search must agree with.  Dividing min by ref_denom*low gives d1, and sum by
    n_ops*ref_denom*low gives d2, so comparing keys compares (d1, d2) exactly.
    """
    q, r = divmod(low, n_ops)
    table = nearest_table(ref_positions, ref_denom, low)
    stop = q * n_ops
    keys = []
    for k in range(1, q + r + 1):
        dists = table[k : k + stop : q]
        keys.append((min(dists), sum(dists)))
    return keys


def placement_candidates(prev_positions, prev_denom, s_prev, s_cur):
    """All k-shift candidates with the kernel's d1/d2 against the reference row.

    Returns (k, positions, d1, d2) tuples for k = 1 .. q+r, in k order, with
    d1 and d2 as Fractions read off shift_keys.
    """
    n_ops = abs(s_cur - s_prev)
    low = min(s_prev, s_cur)
    if n_ops == 0 or n_ops > low:
        raise ValueError("no remainder-method candidates for this stitch change")
    if not prev_positions:
        raise ValueError("placement candidates need a nonempty reference row")
    q = low // n_ops
    modulus = prev_denom * low
    return [
        (
            k,
            tuple(q * j + k for j in range(n_ops)),
            Fraction(lo, modulus),
            Fraction(total, n_ops * modulus),
        )
        for k, (lo, total) in enumerate(shift_keys(prev_positions, prev_denom, low, n_ops), 1)
    ]


# --- command-line oracle ----------------------------------------------------
# The argparse parser that revcrochet.cli used before its own table-driven
# parser; tests/test_cli.py checks that parser against this one.

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revcrochet",
        description=(
            "Generate a row-by-row crochet pattern for the surface obtained by "
            "revolving f(x) about the x-axis over [a, b]."
        ),
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--function", required=True, help="f(x), e.g. \"x^2 + 1\"")
    p.add_argument("--a", required=True, type=float, help="start of the interval, in units")
    p.add_argument("--b", required=True, type=float, help="end of the interval, in units")
    p.add_argument(
        "--stitch-gauge", required=True, type=int, help="stitches per 4 inches of fabric"
    )
    p.add_argument("--row-gauge", required=True, type=int, help="rows per 4 inches of fabric")
    p.add_argument("--scale", required=True, type=float, help="inches per unit")
    p.add_argument(
        "--format",
        choices=("text", "json", "svg"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--no-extrema",
        dest="prioritize_extrema",
        action="store_false",
        help="space rows evenly over [a, b] instead of aligning rows to local extrema",
    )
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    return p


# --- instruction parser -----------------------------------------------------

_CAST_ON_CHAIN = r"^Chain (\d+)\. join work, and Sc\1\.$"
_CAST_ON_RING = r"^Create a magic ring with (\d+) stitch(?:es)?\.$"
_TOKEN = r"\*([^*]*)\* \((\d+) times\)|Sc(\d+)|Inc|Dec"


def instruction_totals(line):
    """(consumed, produced) stitch totals of a rendered row line.

    Accepts a full "Row N: ..." line or a bare instruction body; cast-on
    rows consume 0.  Used to check stitch conservation row by row.
    """
    body = re.sub(r"^Row \d+: {1,2}", "", line.strip())
    body = re.sub(r" \(\d+ stitch(?:es)?\)$", "", body)
    for cast_on in (_CAST_ON_CHAIN, _CAST_ON_RING):
        m = re.match(cast_on, body)
        if m:
            return 0, int(m.group(1))

    def tally(text):
        consumed = produced = 0
        for m in re.finditer(_TOKEN, text):
            if m.group(2) is not None:
                inner_c, inner_p = tally(m.group(1))
                times = int(m.group(2))
                consumed += inner_c * times
                produced += inner_p * times
            elif m.group(3) is not None:
                n = int(m.group(3))
                consumed += n
                produced += n
            elif m.group(0) == "Inc":
                consumed += 1
                produced += 2
            else:
                consumed += 2
                produced += 1
        return consumed, produced

    return tally(body)


# --- reference evaluator ----------------------------------------------------
# A tree-walker with its own domain checks, independent of the code that
# compile_expr generates: ** where that uses math.pow, and explicit checks
# for complex powers, division by zero and ln/sqrt out of domain.

def _sign(v):
    return float((v > 0) - (v < 0))


_REFERENCE_CALLS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": _sign,
}


def reference_evaluate(e, x):
    """Value of tree e at x; EvalDomainError where e is undefined or not real."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -reference_evaluate(e.arg, x)
    if isinstance(e, Call):
        v = reference_evaluate(e.arg, x)
        if e.fn == "ln" and v <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {v!r} at x={x!r}")
        if e.fn == "sqrt" and v < 0.0:
            raise EvalDomainError(f"sqrt of negative value {v!r} at x={x!r}")
        try:
            return _REFERENCE_CALLS[e.fn](v)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"{e.fn}({v!r}) undefined at x={x!r}") from exc
    assert isinstance(e, Binary)
    a = reference_evaluate(e.left, x)
    b = reference_evaluate(e.right, x)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        if b == 0.0:
            raise EvalDomainError(f"division by zero at x={x!r}")
        return a / b
    try:
        r = a**b
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvalDomainError(f"{a!r}^{b!r} undefined at x={x!r}") from exc
    if isinstance(r, complex):
        raise EvalDomainError(f"{a!r}^{b!r} is not real at x={x!r}")
    return r


def evaluate(e, x):
    """Value of tree e at x by the code compile_expr generates for it.

    Each call compiles e anew; a test that evaluates one tree at many x
    compiles it once with compile_expr instead.
    """
    return compile_expr(e)(x)


# --- reference renderer -------------------------------------------------------
# A tree back to text with the fewest parentheses the grammar needs, so that
# parse(render(t)) == t for every tree parse returns.  The package never
# turns a tree into text; this exists only to feed the parser.

# 1 add/sub, 2 mul/div, 3 unary minus, 4 pow, 5 atoms
_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _precedence(e):
    if isinstance(e, Binary):
        return _BINARY_PRECEDENCE[e.op]
    if isinstance(e, Neg) or (isinstance(e, Const) and e.value < 0):
        return 3
    return 5


def _numeral(v):
    if not math.isfinite(v):
        # differentiate's constant folding can overflow; no numeral says inf
        raise ValueError(f"cannot render the non-finite constant {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    text = repr(v)
    # The grammar has no exponent notation: 1e-07 renders as 0.0000001.
    return text if "e" not in text else format(Decimal(text), "f")


def render(e):
    """Text that parses back to tree e."""
    if isinstance(e, Const):
        return _numeral(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Call):
        return f"{e.fn}({render(e.arg)})"
    if isinstance(e, Neg):
        # Unary minus binds tighter than * and /: -(x*y) is not -x*y.
        inner = render(e.arg)
        return f"-({inner})" if _precedence(e.arg) < 3 else f"-{inner}"
    left, right = render(e.left), render(e.right)
    if e.op == "^":
        if _precedence(e.left) <= 4:
            left = f"({left})"
        if _precedence(e.right) < 5:
            right = f"({right})"
        return f"{left}^{right}"
    prec = _BINARY_PRECEDENCE[e.op]
    if _precedence(e.left) < prec:
        left = f"({left})"
    # The parser groups + - * / to the left, so a same-precedence rhs
    # keeps its parentheses: x+(2+x) must not re-parse as (x+2)+x.
    if _precedence(e.right) <= prec:
        right = f"({right})"
    return f"{left} {e.op} {right}" if prec == 1 else f"{left}{e.op}{right}"


def text_from_json(obj):
    """The text pattern rebuilt from a parsed JSON document alone."""
    lines = [f"Note: {w}" for w in obj["warnings"]]
    lines += [row["instruction"] for row in obj["rows"]]
    lines += obj["finishing"]
    return "\n".join(lines) + "\n"


def reference_render_json(doc):
    """The pattern JSON as json.dumps writes it: the oracle for emit.render_json."""
    obj = {"schema_version": 1, **doc._asdict(), "rows": [r._asdict() for r in doc.rows]}
    return json.dumps(obj, indent=2) + "\n"


def eval_height(f, x):
    """f(x); where f is undefined, SpecValidationError names x."""
    try:
        return f(x)
    except EvalDomainError as exc:
        raise SpecValidationError(f"f is undefined at x={x!r}") from exc


def reference_render_svg(spec, plan):
    """The SVG with one f-string per number: the oracle for emit.render_svg."""
    f = spec.curve.f
    a, b, n = spec.a, spec.b, SVG_SAMPLES
    xs = [a + i * (b - a) / (n - 1) for i in range(n)]
    ys = [eval_height(f, x) for x in xs]
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

    points = " ".join(f"{x:.6g},{-y:.6g}" for x, y in zip(xs, ys))
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600" '
        f'viewBox="{vb_x:.6g} {vb_y:.6g} {vb_w:.6g} {vb_h:.6g}" '
        'preserveAspectRatio="xMidYMid meet">',
        f'<rect x="{vb_x:.6g}" y="{vb_y:.6g}" width="{vb_w:.6g}" '
        f'height="{vb_h:.6g}" fill="white"/>',
        f'<polyline fill="none" stroke="#336699" stroke-width="{stroke:.6g}" '
        f'points="{points}"/>',
    ]
    r = f"{radius:.6g}"
    for x, y in zip(plan.landmarks, plan.heights):
        lines.append(f'<circle cx="{x:.6g}" cy="{-y:.6g}" r="{r}" fill="#cc3333"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def same_float(u, v):
    """u and v are the same float: equal with the same sign, or both nan."""
    if math.isnan(u) or math.isnan(v):
        return math.isnan(u) and math.isnan(v)
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v)


# --- quadrature oracle --------------------------------------------------------
# Adaptive Simpson of any integrand g, with g = sqrt(1 + f'(x)^2) built as a
# closure around f'.  calculus.adaptive_simpson forms that integrand inline
# from f' and must return the same floats and raise the same errors.

def arc_integrand(fp):
    """The arclength integrand sqrt(1 + fp(x)^2) as a callable of x."""
    def g(x):
        try:
            d = fp(x)
        except EvalDomainError as exc:
            raise EvalDomainError(f"f' is undefined at x={x!r}") from exc
        return math.sqrt(1.0 + d * d)

    return g


def reference_simpson(g, lo, hi, tol=QUAD_TOL, max_depth=QUAD_MAX_DEPTH):
    """Adaptive Simpson of g over [lo, hi]; reads calculus.QUAD_MAX_SPLITS per call."""
    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    fa, fm, fb = g(lo), g(mid), g(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    # what is left of the second allowance, and the splits made so far
    return _reference_step(g, lo, hi, fa, fm, fb, whole, tol, max_depth, [tol, 0])


def _reference_step(g, lo, hi, fa, fm, fb, whole, tol, depth, allowance):
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
    allowance[1] += 1
    splits = calculus.QUAD_MAX_SPLITS
    if allowance[1] > splits:
        raise QuadratureError(
            f"quadrature did not converge on [{lo!r}, {hi!r}] within {splits} splits"
        )
    half = 0.5 * tol
    return _reference_step(
        g, lo, mid, fa, flm, fm, left, half, depth - 1, allowance
    ) + _reference_step(g, mid, hi, fm, frm, fb, right, half, depth - 1, allowance)


# --- landmark oracle --------------------------------------------------------
# Plain bisection with a quadrature on every step, each by reference_simpson;
# solve_landmarks skips the steps whose outcome a lower bound on the
# arclength decides, and must return the same floats.

def reference_landmarks(spec, seg):
    g = arc_integrand(spec.curve.fp)
    factor = spec.rows_per_unit
    xs = [seg.lo]
    xl, al = seg.lo, 0.0
    for i in range(1, seg.row_count):
        target = i * seg.arclength_rows / seg.row_count
        xr = seg.hi
        while xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            amid = al + factor * reference_simpson(g, xl, mid)
            if amid < target:
                xl, al = mid, amid
            else:
                xr = mid
        xs.append(round_landmark(0.5 * (xl + xr)))
    xs.append(seg.hi)
    return xs


# --- arclength oracle -----------------------------------------------------------
# Composite Gauss–Legendre on the compiled f' alone: it shares no rule, no
# tolerance and no code with adaptive_simpson, so where the two agree the
# quadrature is right, not merely equal to an implementation of itself.
# tests/landmark_oracle.py checks every row count and landmark with it.

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(30)
GL_PANELS = 64        # panels of the first estimate; each next one doubles them
GL_RTOL = 1e-12       # relative agreement of two estimates that ends the doubling
GL_MAX_PANELS = 2**16


def _gl_panels(fp, lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    xs = (edges[:-1] + half)[:, None] + half[:, None] * GL_NODES
    d = np.array([fp(x) for x in xs.ravel().tolist()]).reshape(xs.shape)
    return math.fsum(half * (np.sqrt(1.0 + d * d) @ GL_WEIGHTS))


def gl_arclength(fp, lo, hi):
    """Integral of sqrt(1 + fp(x)^2) over [lo, hi] by composite Gauss–Legendre.

    Equal panels of 30 nodes, GL_PANELS of them and then twice as many each
    time, until two estimates agree to GL_RTOL relative.  64 panels alone
    gave 127.906230 on 2 + sin(20*x) over [0, 10], against 127.905963972
    at 1,024 panels and by adaptive Simpson: 2.7e-4 off, enough to misjudge
    a landmark.  An integrand that does not settle by GL_MAX_PANELS raises
    AssertionError.
    """
    panels, last = GL_PANELS, _gl_panels(fp, lo, hi, GL_PANELS)
    while panels < GL_MAX_PANELS:
        panels *= 2
        value = _gl_panels(fp, lo, hi, panels)
        if abs(value - last) <= GL_RTOL * abs(value):
            return value
        last = value
    raise AssertionError(f"gl_arclength did not settle on [{lo!r}, {hi!r}]")


# --- grid walk oracles --------------------------------------------------------
# Every point of the grid a + i*step, i < EXTREMUM_GRID, and b evaluated, in
# scan order: an even point gets the checks of f and then of f', an odd point
# (extrema only) those of f', and a sign change of f' is bisected where it is
# found.  validate and find_extrema skip the ranges that enclosures decide,
# and must raise the same error or return the same floats.

def reference_walk(spec, extrema):
    """The bisected sign changes of f' (with extrema) of a walk of every grid point."""
    f, fp = spec.curve.f, spec.curve.fp
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
    for i in range(0, n + 1, 1 if extrema else 2):
        x = a + i * step if i < n else spec.b
        if i % 2 == 0:
            try:
                y = f(x)
            except EvalDomainError as exc:
                raise SpecValidationError(f"f is undefined at x={x!r}") from exc
            if not math.isfinite(y):
                raise SpecValidationError(f"f is not finite at x={x!r}")
            if y < 0:
                raise SpecValidationError(f"f must be nonnegative on [a, b]; f({x!r}) = {y!r}")
            if y == 0 and 0 < i < n:
                raise SpecValidationError(f"f must be positive on the open interval; f({x!r}) = 0")
        v = deriv(x)
        s = (v > 0) - (v < 0)
        if not extrema or s == 0:
            continue
        if last_sign != 0 and s != last_sign:
            roots.append(_bisect_sign_change(deriv, last_x, x, last_sign))
        last_x, last_sign = x, s
    return roots


def reference_validate(spec):
    """PatternSpec.validate's grid checks, without the argument checks."""
    reference_walk(spec, extrema=False)


def reference_extrema(spec):
    """find_extrema with every grid point evaluated."""
    merged = []
    for r in reference_walk(spec, extrema=True):
        if merged and r - merged[-1] <= EXTREMUM_DEDUPE:
            continue
        if r - spec.a <= EXTREMUM_DEDUPE or spec.b - r <= EXTREMUM_DEDUPE:
            continue
        merged.append(r)
    return merged


def outcome(fn, *args):
    """fn's return value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def assert_named_by_compiled_f(error, x, raised):
    """error's cause is the compiled function's EvalDomainError at x, caused by raised."""
    cause = error.__cause__
    assert type(cause) is EvalDomainError and str(cause) == f"undefined at x={x!r}"
    assert type(cause.__cause__) is raised


def count_f_calls(spec):
    """Wrap spec.curve.f so every x it is called at is appended to the returned list."""
    calls, f = [], spec.curve.f

    def counted(x):
        calls.append(x)
        return f(x)

    spec.curve = spec.curve._replace(f=counted)
    return calls


def random_valid_spec(rng: random.Random):
    """A random positive spec with a modest row count and no steep rows.

    The shift constant is chosen so f stays well clear of zero relative to
    the row spacing, which keeps consecutive stitch counts within the
    doubling/halving bounds (the caller double-checks via the warnings).
    """
    lo = round(rng.uniform(-1.5, 0.5), 4)
    hi = round(lo + rng.uniform(0.7, 2.0), 4)
    if rng.random() < 0.5:
        c1 = round(rng.uniform(-1.2, 1.2), 4)
        c2 = round(rng.uniform(-1.2, 1.2), 4)
        c3 = round(rng.uniform(-0.8, 0.8), 4)
        text = f"{c1:.4f}*x + {c2:.4f}*x^2 + {c3:.4f}*x^3"

        def base(x):
            return c1 * x + c2 * x * x + c3 * x**3

    else:
        amp1 = round(rng.uniform(0.3, 1.1), 4)
        amp2 = round(rng.uniform(0.3, 1.1), 4)
        w1 = round(rng.uniform(0.5, 2.0), 4)
        w2 = round(rng.uniform(0.5, 2.0), 4)
        text = f"{amp1:.4f}*sin({w1:.4f}*x) + {amp2:.4f}*cos({w2:.4f}*x)"

        def base(x):
            return amp1 * math.sin(w1 * x) + amp2 * math.cos(w2 * x)

    grid = [lo + i * (hi - lo) / 800 for i in range(801)]
    fmin = min(base(x) for x in grid)
    # crude arclength estimate to pick a scale giving target_rows rows
    arc = sum(
        math.hypot(grid[i + 1] - grid[i], base(grid[i + 1]) - base(grid[i]))
        for i in range(800)
    )
    stitch_gauge = rng.randint(10, 28)
    row_gauge = rng.randint(8, 24)
    target_rows = rng.uniform(4.0, 16.0)
    scale = round(target_rows * 4.0 / (row_gauge * arc), 4)
    scale = max(scale, 0.01)

    # keep f well above one row-step of arclength and stitch counts >= ~6
    row_step = arc / target_rows
    floor_f = max(1.6 * row_step, 7.0 / (2 * math.pi * scale * stitch_gauge / 4))
    shift = floor_f - fmin + rng.uniform(0.05, 0.6)
    func_text = f"{text} + {shift:.4f}"
    return PatternSpec(
        func=parse(func_text),
        a=lo,
        b=hi,
        stitch_gauge=stitch_gauge,
        row_gauge=row_gauge,
        scale=scale,
        source=func_text,
    )
