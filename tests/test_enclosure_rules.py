"""The interval rules of expression.py against a reference copy of their older form.

The rules widen and check their bounds inline and take the least and
greatest candidate by comparisons.  The reference below is their earlier
form, which called _widened, _checked, min and max; it is kept here
verbatim as the oracle.  Each rule must return the same pair of floats,
zero signs included, and be undecided (raise the same exception) exactly
where the reference is: on a seeded set of intervals, and through
compile_enclosure, whose generated source runs under both rule sets, for
f and f' of the benchmark's anchor functions and of 300 random trees of
the corpus's random-tree class.
"""

import math
import random

import pytest

from revcrochet import expression
from revcrochet.expression import (
    _ENCLOSURE_OPS,
    _INF,
    _SLACK,
    _TINY,
    _TRIG_LIMIT,
    _TRIG_MARGIN,
    ExpressionError,
    _body,
    _guarded,
    _sign,
    _Undecided,
    _undecided,
    differentiate,
    parse,
)

from corpus import _draw

# --- the reference rules, as they were before they widened inline ------------


def _checked(lo, hi):
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _widened(lo, hi):
    return _checked(lo - (abs(lo) * _SLACK + _TINY), hi + (abs(hi) * _SLACK + _TINY))


def _enc_neg(u):
    return -u[1], -u[0]


def _enc_add(u, v):
    lo, hi = u[0] + v[0], u[1] + v[1]
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_cadd(c, u):
    lo, hi = c + u[0], c + u[1]
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_sub(u, v):
    lo, hi = u[0] - v[1], u[1] - v[0]
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_mul(u, v):
    (a, b), (c, d) = u, v
    if a >= 0.0 and c >= 0.0:
        lo, hi = a * c, b * d
    else:
        p = (a * c, a * d, b * c, b * d)
        lo, hi = min(p), max(p)
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_cmul(c, u):
    lo, hi = (c * u[0], c * u[1]) if c >= 0.0 else (c * u[1], c * u[0])
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_div(u, v):
    (a, b), (c, d) = u, v
    if not (c > 0.0 or d < 0.0):
        raise _Undecided  # the divisor may be 0
    p = (a / c, a / d, b / c, b / d)
    return _checked(min(p), max(p))


def _enc_pow(u, v):
    (a, b), (p, q) = u, v
    if p == q:
        return _enc_powc(u, p)
    if not (a > 0.0 or (a == 0.0 and p > 0.0)):
        raise _Undecided  # a varying power of a base that may be <= 0
    c = (math.pow(a, p), math.pow(a, q), math.pow(b, p), math.pow(b, q))
    return _widened(min(c), max(c))


def _enc_powc(u, p):
    a, b = u
    if p == 0.0:
        return 1.0, 1.0
    positive = a > 0.0 or (a == 0.0 and p > 0.0)
    if not positive and (p != math.floor(p) or (p < 0.0 and b >= 0.0)):
        raise _Undecided  # a fractional power of a base < 0, or 0 to a power < 0
    ea, eb = math.pow(a, p), math.pow(b, p)
    lo, hi = _widened(min(ea, eb), max(ea, eb))  # monotone on [a, b] ...
    if a < 0.0 < b and p % 2.0 == 0.0:
        lo = 0.0  # ... unless an even power spans 0
    return lo, hi


def _enc_trig(fn, peak, lo, hi):
    if hi - lo >= 2.0 * math.pi or lo < -_TRIG_LIMIT or hi > _TRIG_LIMIT:
        return -1.0, 1.0
    t0 = (lo - peak) / (2.0 * math.pi) - _TRIG_MARGIN
    t1 = (hi - peak) / (2.0 * math.pi) + _TRIG_MARGIN
    has_peak = math.floor(t1) >= t0
    has_trough = math.floor(t1 - 0.5) + 0.5 >= t0
    if has_peak and has_trough:
        return -1.0, 1.0
    ea, eb = fn(lo), fn(hi)
    lo, hi = _widened(min(ea, eb), max(ea, eb))
    return (-1.0 if has_trough else lo), (1.0 if has_peak else hi)


def _enc_sin(u):
    return _enc_trig(math.sin, 0.5 * math.pi, u[0], u[1])


def _enc_cos(u):
    return _enc_trig(math.cos, 0.0, u[0], u[1])


def _enc_tan(u):
    lo, hi = u
    if lo < -_TRIG_LIMIT or hi > _TRIG_LIMIT:
        raise _Undecided
    t0 = (lo - 0.5 * math.pi) / math.pi - _TRIG_MARGIN
    t1 = (hi - 0.5 * math.pi) / math.pi + _TRIG_MARGIN
    if math.floor(t1) >= t0:
        raise _Undecided
    return _widened(math.tan(lo), math.tan(hi))


def _enc_exp(u):
    return _widened(math.exp(u[0]), math.exp(u[1]))


def _enc_ln(u):
    if not u[0] > 0.0:
        raise _Undecided
    return _widened(math.log(u[0]), math.log(u[1]))


def _enc_sqrt(u):
    if not u[0] >= 0.0:
        raise _Undecided
    return math.sqrt(u[0]), math.sqrt(u[1])


def _enc_abs(u):
    lo, hi = u
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _enc_sign(u):
    s = _sign(u[0])
    if s != _sign(u[1]):
        raise _Undecided
    return s, s


REFERENCE = {name: value for name, value in globals().items() if name.startswith("_enc_")}
REFERENCE.update(_undecided=_undecided, __builtins__={})
UNARY = ("neg", "sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign")
BINARY = ("add", "sub", "mul", "div", "pow")
CONSTANT = ("cadd", "cmul")  # rule(c, u); powc is rule(u, c)


def outcome(rule, *args):
    """The rule's pair as reprs, which tell -0.0 from 0.0 and 1 from 1.0, or the name of what it raises."""
    try:
        lo, hi = rule(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return repr(lo), repr(hi)


def reference_enclosure(e):
    """compile_enclosure(e) with the reference rules: the same generated source."""
    namespace = dict(REFERENCE)
    exec(f"def f(lo, hi):\n    x = lo, hi\n{_body(e, _ENCLOSURE_OPS, '    ')}", namespace)  # noqa: S102
    return _guarded(namespace["f"])


def test_the_reference_names_every_rule():
    rules = {name for name in vars(expression) if name.startswith("_enc_")}
    assert rules == set(REFERENCE) - {"_enc_trig", "_undecided", "__builtins__"}


# --- the seeded intervals ------------------------------------------------------

TINY_NORMAL = 2.2250738585072014e-308
BIG = 1.7976931348623157e308
# 709.782712893384 is the largest float whose exp is finite
POINTS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, TINY_NORMAL, -TINY_NORMAL, 1e-300, -1e-300,
    1e-20, -1e-20, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 10.0, -10.0,
    709.0, 709.782712893384, 710.0, -745.0, -746.0, 1e8, -1e8, 1.5e8, 1e16, -1e16,
    1e150, -1e150, 1e300, -1e300, BIG, -BIG,
]
# peaks and troughs of sin and cos (k*pi/2), and points just inside and
# outside the rules' margin of 1e-6 periods around them
TRIG_POINTS = [k * math.pi / 2 for k in range(-6, 7)] + [1000.0 * math.pi, 1e7 * math.pi / 2]
NEAR_TRIG = [p + s * d for p in TRIG_POINTS for s in (-1.0, 1.0) for d in (1e-9, 6e-6, 7e-6, 1e-3)]
POWERS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, 0.5, -0.5, 1.5, -1.5, 2.5,
          0.3333333333333333, 1e-300, 300.0, 1e300, -1e300, 1025.0]
CONSTANTS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-300, -1e-300, 1e300, -1e300, BIG]


def seeded_intervals():
    """Finite (lo, hi) with lo <= hi, including (0.0, -0.0), which compares so."""
    rng = random.Random(3131)
    out = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-BIG, BIG)]
    for v in POINTS + TRIG_POINTS + NEAR_TRIG:
        up, down = math.nextafter(v, _INF), math.nextafter(v, -_INF)
        out += [(v, v), (v, up), (down, v)]
        for w in (2.0 * math.pi, math.nextafter(2.0 * math.pi, 0.0), 7.0, 1e-12):
            if math.isfinite(v + w):
                out.append((v, v + w))
    for p in TRIG_POINTS:  # ranges that end at, start at, or hold a peak or trough
        for w in (1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0):
            out += [(p - w, p), (p, p + w), (p - w, p + w)]
    ordered = sorted(set(POINTS))
    out += [(lo, hi) for i, lo in enumerate(ordered) for hi in ordered[i::3]]
    for _ in range(1500):
        if rng.random() < 0.7:
            lo = rng.uniform(-10.0, 10.0)
        else:
            lo = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-310.0, 308.0)
        hi = lo + 10.0 ** rng.uniform(-16.0, 2.0)
        out.append((lo, hi))
    return [(lo, hi) for lo, hi in out if -_INF < lo <= hi < _INF]


INTERVALS = seeded_intervals()
# a smaller set for the rules of two intervals, with bases and exponents
# that cross 0 and 1 and degenerate exponent ranges of integer and
# fractional powers
PAIR_INTERVALS = (
    [(p, p) for p in POWERS]
    + [(-2.0, -1.0), (-1.0, 0.0), (-1.0, -0.0), (-0.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (-3.0, 2.0),
       (0.5, 2.0), (1.0, 3.0), (2.0, 2.5), (-2.5, -2.0), (1e-300, 1e-200), (-1e-300, 1e-300),
       (1e150, 1e200), (-1e200, -1e150), (-1e300, 1e300), (-BIG, -1e308), (1e-310, 2e-310),
       (5e-324, 1e-323), (0.3, 0.30000000000000004), (-0.0, -0.0), (0.0, 0.0), (-0.0, 0.0),
       (0.0, -0.0)]
)


@pytest.mark.parametrize("name", UNARY)
def test_unary_rules_match_the_reference(name):
    new, ref = getattr(expression, f"_enc_{name}"), REFERENCE[f"_enc_{name}"]
    for u in INTERVALS:
        assert outcome(new, u) == outcome(ref, u), (name, u)


def test_tan_at_its_margin_is_finite():
    # _enc_tan leaves its widened bounds unchecked: a range it decides stays
    # _TRIG_MARGIN periods from every pole, where |tan| is about 3.2e5
    def decided(u):
        return isinstance(outcome(expression._enc_tan, u), tuple)

    bound = math.tan(0.5 * math.pi - math.pi * _TRIG_MARGIN)
    last = math.floor((_TRIG_LIMIT - 0.5 * math.pi) / math.pi) - 1  # the last pole inside
    for k in (-last, -2, -1, 0, 1, last):
        pole = 0.5 * math.pi + k * math.pi
        for side in (-1.0, 1.0):
            def reaching(x):  # a range with one end at x, on the pole's given side
                return (x - 0.1, x) if side < 0 else (x, x + 0.1)

            # the float closest to the pole at which the rule still decides
            far, near = pole + side * 2.0 * math.pi * _TRIG_MARGIN, pole
            assert decided(reaching(far)) and not decided(reaching(near))
            while far < 0.5 * (far + near) < near or near < 0.5 * (far + near) < far:
                mid = 0.5 * (far + near)
                far, near = (mid, near) if decided(reaching(mid)) else (far, mid)
            u = reaching(far)
            lo, hi = expression._enc_tan(u)
            assert outcome(expression._enc_tan, u) == outcome(_enc_tan, u)
            assert 0.99 * bound < max(-lo, hi) < 1.01 * bound


@pytest.mark.parametrize("name", BINARY)
def test_binary_rules_match_the_reference(name):
    new, ref = getattr(expression, f"_enc_{name}"), REFERENCE[f"_enc_{name}"]
    rng = random.Random(f"pairs:{name}")
    pairs = [(u, v) for u in PAIR_INTERVALS for v in PAIR_INTERVALS]
    pairs += [(rng.choice(INTERVALS), rng.choice(INTERVALS)) for _ in range(20000)]
    for u, v in pairs:
        assert outcome(new, u, v) == outcome(ref, u, v), (name, u, v)


@pytest.mark.parametrize("name", CONSTANT)
def test_constant_rules_match_the_reference(name):
    new, ref = getattr(expression, f"_enc_{name}"), REFERENCE[f"_enc_{name}"]
    for c in CONSTANTS:
        for u in INTERVALS:
            assert outcome(new, c, u) == outcome(ref, c, u), (name, c, u)


def test_constant_powers_match_the_reference():
    decided = undecided = 0
    for p in POWERS:
        for u in INTERVALS + PAIR_INTERVALS:
            got = outcome(expression._enc_powc, u, p)
            assert got == outcome(_enc_powc, u, p), (u, p)
            if isinstance(got, tuple):
                decided += 1
            else:
                undecided += 1
    assert decided > 10000 and undecided > 5000  # both sides of the rule are exercised


def test_equal_corners_keep_the_first_ones_zero_sign():
    # min and max keep the first of equal corners, whose zero sign may
    # differ from the one a case analysis of the signs would pick
    assert outcome(expression._enc_mul, (-0.0, 0.0), (-1.0, 1.0)) == ("0.0", "0.0")
    assert outcome(expression._enc_mul, (-0.0, 0.0), (-1.0, -0.5)) == ("0.0", "0.0")
    assert outcome(expression._enc_div, (-0.0, 0.0), (1.0, 2.0)) == ("-0.0", "-0.0")
    assert outcome(expression._enc_abs, (-1.0, 1.0)) == ("0.0", "1.0")


# --- whole enclosures: the anchors' f and f', and random trees -------------------

ANCHORS = [
    ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0),
    ("sin(x)", 0.0, math.pi),
    ("2 + sin(20*x)", 0.0, 10.0),
    ("3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2", -4.0, 4.0),
]


def boxes(rng, a, b, count):
    """Cells of dyadic grids over [a, b], as the walk takes them, and random ranges near it."""
    out = []
    for depth in range(6):
        n = 2 ** depth
        out += [(a + i * (b - a) / n, a + (i + 1) * (b - a) / n) for i in range(n)]
    for _ in range(count):
        lo = rng.uniform(a - 0.5, b + 0.5)
        width = rng.choice((0.0, math.ulp(lo), 10.0 ** rng.uniform(-12.0, 1.0), b - a))
        out.append((lo, lo + width))
    return out


def assert_same_enclosures(e, intervals):
    new, ref = expression.compile_enclosure(e), reference_enclosure(e)
    decided = 0
    for lo, hi in intervals:
        got, want = new(lo, hi), ref(lo, hi)
        assert (got is None) == (want is None), (e, lo, hi, got, want)
        if got is not None:
            decided += 1
            assert (repr(got[0]), repr(got[1])) == (repr(want[0]), repr(want[1])), (e, lo, hi)
    return decided


@pytest.mark.parametrize("text, a, b", ANCHORS)
def test_anchor_enclosures_match_the_reference(text, a, b):
    tree = parse(text)
    rng = random.Random(text)
    for e in (tree, differentiate(tree)):
        assert assert_same_enclosures(e, boxes(rng, a, b, 600)) > 300


def test_random_tree_enclosures_match_the_reference():
    rng = random.Random("enclosure-rules:random-tree")
    trees = decided = 0
    for _ in range(300):
        text, a, b = _draw("random-tree", rng)
        try:
            tree = parse(text)
            pair = (tree, differentiate(tree))
        except (ExpressionError, RecursionError):
            continue
        trees += 1
        for e in pair:
            decided += assert_same_enclosures(e, boxes(rng, a, b, 100))
    assert trees > 250 and decided > 20000
