"""compile_expr and compile_enclosure on random trees.

The generated code is the only evaluator in the package; the reference in
conftest.py evaluates the same trees with its own domain checks.  Where an
enclosure is decided, the compiled function must hold inside it.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcrochet.expression import (
    FUNCTION_NAMES,
    Binary,
    Call,
    Const,
    EvalDomainError,
    NamedConst,
    Neg,
    Var,
    compile_enclosure,
    compile_expr,
    differentiate,
    parse,
)

from conftest import reference_evaluate, same_float

# Constants as parse() makes them: nonnegative floats.  The small ones make
# integer and half-integer powers of negative bases common.
CONSTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e3),
).map(Const)
LEAVES = st.one_of(st.just(Var()), st.sampled_from([NamedConst("pi"), NamedConst("e")]), CONSTS)


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
    ("sign(x)", -1.0, 1.0, -1.0, 1.0),
    ("abs(x)", -3.0, 2.0, 0.0, 3.0),
])
def test_decided_enclosures(text, lo, hi, low, high):
    box = compile_enclosure(parse(text))(lo, hi)
    assert box is not None
    assert low is None or box[0] == low
    assert high is None or box[1] == high


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
