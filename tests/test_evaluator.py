"""compile_expr and compile_enclosure on random trees.

The generated code is the only evaluator in the package; the reference in
conftest.py evaluates the same trees with its own domain checks.  Where an
enclosure is decided, the compiled function must hold inside it.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcrochet.expression import (
    _ENCLOSURE_OPS,
    _FLOAT_OPS,
    FUNCTION_NAMES,
    Binary,
    Call,
    Const,
    EvalDomainError,
    Neg,
    Var,
    _emit,
    _enc_add,
    _enc_cadd,
    _enc_cmul,
    _enc_mul,
    _enc_pow,
    _enc_powc,
    _enc_sub,
    compile_enclosure,
    compile_expr,
    differentiate,
    parse,
)

from conftest import reference_evaluate, render, same_float

# Constants as parse() makes them: nonnegative floats.  The small ones make
# integer and half-integer powers of negative bases common.
CONSTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e3),
).map(Const)
LEAVES = st.one_of(st.just(Var()), st.sampled_from([Const(math.pi), Const(math.e)]), CONSTS)


def _nodes(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Call, st.sampled_from(FUNCTION_NAMES), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
    )


TREES = st.recursive(LEAVES, _nodes, max_leaves=12)
XS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(tree=TREES, x=XS, derive=st.booleans())
def test_compiled_matches_reference(tree, x, derive):
    e = differentiate(tree) if derive else tree
    fn = compile_expr(e)
    try:
        expected = reference_evaluate(e, x)
    except EvalDomainError:
        with pytest.raises(EvalDomainError) as err:
            fn(x)
        assert str(err.value) == f"undefined at x={x!r}"
        return
    got = fn(x)
    assert type(got) is float  # never complex
    assert same_float(got, expected)


# Ranges of every scale, some around the points where rules switch: 0 for
# division, ln, sqrt and powers, and the peaks and poles of sin, cos and tan.
LOWS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1e12, max_value=1e12),
)
WIDTHS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-9),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=20.0),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=TREES, lo=LOWS, width=WIDTHS, derive=st.booleans(),
       inner=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
def test_enclosure_holds_every_compiled_value(tree, lo, width, derive, inner):
    e = differentiate(tree) if derive else tree
    hi = lo + width
    box = compile_enclosure(e)(lo, hi)
    if box is None:
        return
    ylo, yhi = box
    assert math.isfinite(ylo) and math.isfinite(yhi) and ylo <= yhi
    fn = compile_expr(e)
    xs = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    xs += [lo + i * (hi - lo) / 16 for i in range(1, 16)]
    xs += [lo + t * (hi - lo) for t in inner]
    for x in (min(hi, x) for x in xs):  # rounding can step past hi
        y = fn(x)  # raises EvalDomainError where the enclosure was wrong
        assert ylo <= y <= yhi, (x, y, box)


@pytest.mark.parametrize("text, lo, hi", [
    ("1/x", -1.0, 1.0),                # a divisor that may be 0
    ("1/x", 0.0, 1.0),
    ("ln(x)", 0.0, 1.0),               # ln or sqrt out of their domain
    ("sqrt(x)", -1e-300, 1.0),
    ("x^0.5", -1.0, 1.0),              # a fractional power of a base < 0
    ("x^x", -1.0, 1.0),                # a varying one
    ("x^(0-1)", 0.0, 1.0),             # 0 to a negative power
    ("tan(x)", 1.5, 1.6),              # a pole of tan
    ("exp(x)", 700.0, 710.0),          # overflow
    ("x*10000000000*10000000000", 1e290, 1e300),
    ("sign(x)", -1.0, 1.0),            # sign may jump
    ("sign(x - x)", 0.0, 1.0),         # x - x is 0, but its enclosure is not [0, 0]
])
def test_undecided_enclosures(text, lo, hi):
    assert compile_enclosure(parse(text))(lo, hi) is None


@pytest.mark.parametrize("text, lo, hi, low, high", [
    ("x^2", -1.0, 2.0, 0.0, None),     # an even power across 0 reaches 0
    ("2*x - 1/x", 1.0, 2.0, 1.0, 3.5), # + - * / and sqrt need no widening
    ("sqrt(x)", 0.0, 4.0, 0.0, 2.0),
    ("sin(x)", 1.5, 1.6, None, 1.0),   # a peak inside
    ("cos(x)", 3.1, 3.2, -1.0, None),  # a trough inside
    ("sin(x)", 0.0, 100.0, -1.0, 1.0),
    ("sign(x)", 0.5, 1.0, 1.0, 1.0),  # sign where it is constant
    ("sign(0*x)", -1.0, 1.0, 0.0, 0.0),
    ("abs(x)", -3.0, 2.0, 0.0, 3.0),
])
def test_decided_enclosures(text, lo, hi, low, high):
    box = compile_enclosure(parse(text))(lo, hi)
    assert box is not None
    assert low is None or box[0] == low
    assert high is None or box[1] == high


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("text, lo, hi", [
    ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0),  # the running example
    ("sign(x)", 0.5, 1.0),  # no rule of sign checks its bounds
])
@pytest.mark.parametrize("bad", [
    (-INF, None), (INF, None), (NAN, None), (None, -INF), (None, INF), (None, NAN), "reversed",
], ids=["lo=-inf", "lo=inf", "lo=nan", "hi=-inf", "hi=inf", "hi=nan", "lo>hi"])
def test_enclosure_refuses_ranges_that_are_not_finite_and_ordered(text, lo, hi, bad):
    box_of = compile_enclosure(parse(text))
    assert box_of(lo, hi) is not None
    if bad == "reversed":
        lo, hi = hi, lo
    else:
        lo, hi = (lo if bad[0] is None else bad[0]), (hi if bad[1] is None else bad[1])
    assert box_of(lo, hi) is None


@pytest.mark.parametrize("text", ["sign(x)", "sign(sin(5*x))", "sign(x^3 - x)"])
def test_decided_sign_is_one_value(text):
    # so a decided enclosure proves that no sign jumps in the range
    rng = random.Random(text)
    box_of, fn = compile_enclosure(parse(text)), compile_expr(parse(text))
    decided = 0
    for _ in range(300):
        lo = rng.uniform(-3.0, 3.0)
        hi = lo + 10.0 ** rng.uniform(-9.0, 0.5)
        box = box_of(lo, hi)
        if box is None:
            continue
        decided += 1
        assert box[0] == box[1], (lo, hi, box)
        for i in range(21):
            assert fn(min(hi, lo + i * (hi - lo) / 20)) == box[0], (lo, hi, box)
    assert decided >= 100


RULE_CASES = [
    "x*x", "(x - 1)*(x + 2)", "x/(x + 3)", "(x - 1)/(x*x + 1)", "x^2", "x^3", "x^(0-2)",
    "x^0.5", "x^1.5", "x^x", "(x*x + 1)^x", "sin(3*x)", "cos(x/2)", "tan(x)", "exp(x)",
    "ln(x)", "sqrt(x)", "abs(x - 1)", "sign(x)", "-x", "sin(5*x)*cos(3*x) + exp(-x^2)*x^2",
]


@pytest.mark.parametrize("text", RULE_CASES)
def test_enclosure_rules_hold_on_seeded_ranges(text):
    rng = random.Random(text)
    tree = parse(text)
    decided = 0
    for e in (tree, differentiate(tree)):
        box_of, fn = compile_enclosure(e), compile_expr(e)
        for _ in range(150):
            lo = rng.uniform(-6.0, 6.0)
            hi = lo + 10.0 ** rng.uniform(-9.0, 1.0)
            box = box_of(lo, hi)
            if box is None:
                continue
            decided += 1
            for i in range(21):
                y = fn(min(hi, lo + i * (hi - lo) / 20))  # rounding can step past hi
                assert box[0] <= y <= box[1], (e, lo, hi, y, box)
    assert decided >= 50  # the rules decide most ranges


# --- shared subtrees and constant operands ------------------------------------
# compile_expr and compile_enclosure compute each repeated subtree once, and
# pass a finite constant operand of + - * ^ to a rule as a plain number.

def test_signed_zero_constants_stay_apart():
    # Const(0.0) == Const(-0.0), yet x*0.0 and x*-0.0 are different floats
    tree = Binary("*", Binary("*", Var(), Const(0.0)), Binary("*", Var(), Const(-0.0)))
    fn = compile_expr(tree)
    for x in (1.0, -1.0, 0.0, -0.0, 2.5):
        assert same_float(fn(x), reference_evaluate(tree, x))
    assert same_float(fn(1.0), -0.0)
    assert same_float(compile_expr(Binary("+", tree, tree))(1.0), -0.0)


def test_a_failing_shared_subtree_keeps_the_message():
    text = "ln(x - 1) + ln(x - 1)"
    assert _emit(parse(text), _FLOAT_OPS)[0]  # ln(x - 1) is computed once
    with pytest.raises(EvalDomainError) as err:
        compile_expr(parse(text))(0.5)
    assert str(err.value) == "undefined at x=0.5"
    assert isinstance(err.value.__cause__, ValueError)
    assert compile_enclosure(parse(text))(0.25, 0.5) is None


def _rule(rule, *args):
    """The rule's bounds, or None where it raises (undecided or out of range)."""
    try:
        return rule(*args)
    except (ArithmeticError, ValueError):
        return None


def test_constant_rules_match_the_pair_rules():
    rng = random.Random(2121)
    consts = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 0.5, -0.5, 1.5, 1e-300, 1e300, -1e300]
    decided = 0
    for _ in range(4000):
        c = rng.choice(consts) if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)
        if rng.random() < 0.3:
            c = float(round(c))  # integer powers of bases that may be negative
        scale = 10.0 ** rng.choice([-300, -3, 0, 3, 300])
        lo = rng.uniform(-2.0, 2.0) * scale
        hi = lo + rng.choice([0.0, rng.uniform(0.0, 3.0) * scale])
        u, k = (lo, hi), (c, c)
        cmul = _rule(_enc_cmul, c, u)
        assert cmul == _rule(_enc_mul, u, k) == _rule(_enc_mul, k, u), (c, u)
        cadd = _rule(_enc_cadd, c, u)
        assert cadd == _rule(_enc_add, k, u) == _rule(_enc_add, u, k), (c, u)
        assert _rule(_enc_cadd, -c, u) == _rule(_enc_sub, u, k), (c, u)
        powc = _rule(_enc_powc, u, c)
        assert powc == _rule(_enc_pow, u, k), (c, u)
        decided += cmul is not None and powc is not None
        if powc is not None and abs(lo) < 1e3 and abs(hi) < 1e3:
            for x in (lo, hi, 0.5 * (lo + hi)):
                try:
                    y = math.pow(x, c)
                except (ArithmeticError, ValueError):
                    continue
                assert powc[0] <= y <= powc[1], (c, u, x)
    assert decided > 1000


def _shared_tree(rng, steps):
    """A seeded tree whose operands are drawn from the subtrees built so far.

    So subtrees repeat: some as the same object, as differentiate makes
    them, and some as an equal tree of new objects, as parse makes them.
    """
    pool = [Var(), Var(), Const(rng.choice([0.5, 1.0, 2.0, 3.0])), Const(rng.uniform(0.0, 4.0))]
    for _ in range(steps):
        recent = pool[-4:]
        kind = rng.random()
        if kind < 0.1:
            node = Neg(rng.choice(recent))
        elif kind < 0.35:
            node = Call(rng.choice(FUNCTION_NAMES), rng.choice(recent))
        else:
            node = Binary(rng.choice("+-*/^"), rng.choice(recent), rng.choice(recent))
        if rng.random() < 0.3:
            node = parse(render(node))  # equal, but no object in common
        pool.append(node)
    return pool[-1]


def test_shared_trees_match_the_reference():
    rng = random.Random(3131)
    hoisting = decided = 0
    for _ in range(300):
        tree = _shared_tree(rng, rng.randint(4, 10))
        for e in (tree, differentiate(tree)):
            hoisting += bool(_emit(e, _FLOAT_OPS)[0])
            fn, box_of = compile_expr(e), compile_enclosure(e)
            for _ in range(8):
                x = rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-3.0, 3.0)])
                try:
                    expected = reference_evaluate(e, x)
                except EvalDomainError:
                    message = f"^undefined at x={re.escape(repr(x))}$"
                    with pytest.raises(EvalDomainError, match=message):
                        fn(x)
                    continue
                assert same_float(fn(x), expected), (render(e), x)
            for _ in range(4):
                lo = rng.uniform(-3.0, 3.0)
                hi = lo + 10.0 ** rng.uniform(-6.0, 0.5)
                box = box_of(lo, hi)
                if box is None:
                    continue
                decided += 1
                for i in range(11):
                    y = fn(min(hi, lo + i * (hi - lo) / 10))
                    assert box[0] <= y <= box[1], (render(e), lo, hi, y, box)
    assert hoisting > 250  # of 600 trees
    assert decided > 1000  # of 2,400 ranges


@pytest.mark.parametrize("ops, square, five_x", [
    (_FLOAT_OPS, "pow(x, 2.0)", "(5.0*x)"),
    (_ENCLOSURE_OPS, "_enc_powc(x, 2.0)", "_enc_cmul(5.0, x)"),
], ids=["float", "enclosure"])
def test_each_shared_subtree_is_emitted_once(ops, square, five_x):
    # f' holds x^2, 5*x, cos(5*x) and sin(5*x) twice each
    statements, value = _emit(differentiate(parse("exp(-x^2)*x^2 + sin(5*x)*cos(5*x)")), ops)
    source = "\n".join([*statements, value])
    assert source.count(square) == source.count(five_x) == 1
    assert source.count("cos(") == source.count("sin(") == 1
    assert "(5.0, 5.0)" not in source  # constant operands of + - * ^ are plain numbers
