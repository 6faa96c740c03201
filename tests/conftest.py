import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from revcrochet import PatternSpec, build_plan, parse, render_pattern, shape_rows
from revcrochet.calculus import (
    EXTREMUM_DEDUPE,
    EXTREMUM_GRID,
    LANDMARK_XTOL,
    VALIDATION_GRID,
    SpecValidationError,
    _arc_integrand,
    _bisect_sign_change,
    _fprime,
    adaptive_simpson,
    round_landmark,
)
from revcrochet.expression import (
    NAMED_CONSTANTS,
    Binary,
    Call,
    Const,
    EvalDomainError,
    NamedConst,
    Neg,
    Var,
    compile_expr,
)
from revcrochet.shaping import _shift_keys

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


def placement_candidates(prev_positions, prev_denom, s_prev, s_cur):
    """All k-shift candidates with the kernel's d1/d2 against the reference row.

    Returns (k, positions, d1, d2) tuples for k = 1 .. q+r, in k order, with
    d1 and d2 as Fractions read off shaping._shift_keys.
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
        for k, (lo, total) in enumerate(_shift_keys(prev_positions, prev_denom, low, n_ops), 1)
    ]


# --- instruction parser -----------------------------------------------------

_CAST_ON_CHAIN = r"^Chain (\d+)\. join work, and Sc\1\.$"
_CAST_ON_RING = r"^Create a magic ring with (\d+) stitches\.$"
_TOKEN = r"\*([^*]*)\* \((\d+) times\)|Sc(\d+)|Inc|Dec"


def instruction_totals(line):
    """(consumed, produced) stitch totals of a rendered row line.

    Accepts a full "Row N: ..." line or a bare instruction body; cast-on
    rows consume 0.  Used to check stitch conservation row by row.
    """
    body = re.sub(r"^Row \d+: {1,2}", "", line.strip())
    body = re.sub(r" \(\d+ stitches\)$", "", body)
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
    if isinstance(e, NamedConst):
        return NAMED_CONSTANTS[e.name]
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


def same_float(u, v):
    """u and v are the same float: equal with the same sign, or both nan."""
    if math.isnan(u) or math.isnan(v):
        return math.isnan(u) and math.isnan(v)
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v)


# --- landmark oracle --------------------------------------------------------
# Plain bisection with a quadrature on every step; solve_landmarks skips the
# steps whose outcome a lower bound on the arclength decides, and must
# return the same floats.

def reference_landmarks(spec, seg):
    g = _arc_integrand(spec.func)
    factor = spec.rows_per_unit
    xs = [seg.lo]
    xl, al = seg.lo, 0.0
    for i in range(1, seg.row_count):
        target = i * seg.arclength_rows / seg.row_count
        xr = seg.hi
        while xr - xl > LANDMARK_XTOL:
            mid = 0.5 * (xl + xr)
            amid = al + factor * adaptive_simpson(g, xl, mid)
            if amid < target:
                xl, al = mid, amid
            else:
                xr = mid
        xs.append(round_landmark(0.5 * (xl + xr)))
    xs.append(seg.hi)
    return xs


# --- grid scan oracles --------------------------------------------------------
# Every grid point evaluated, in order; validate and find_extrema skip the
# blocks that enclosures decide, and must raise the same error or return
# the same floats.

def reference_validate(spec):
    """PatternSpec.validate's grid scan, without the argument checks."""
    f = compile_expr(spec.func)
    fp = _fprime(spec.func)
    a, n = spec.a, VALIDATION_GRID
    step = (spec.b - a) / n
    for i in range(n + 1):
        x = a + i * step
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
        try:
            dy = fp(x)
        except EvalDomainError as exc:
            raise SpecValidationError(f"f' is undefined at x={x!r}") from exc
        if not math.isfinite(dy):
            raise SpecValidationError(f"f' is not finite at x={x!r}")


def reference_extrema(spec):
    """find_extrema with f' evaluated at every grid point."""
    fp = _fprime(spec.func)
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
    last_x, last_sign = None, 0
    for i in range(n + 1):
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
