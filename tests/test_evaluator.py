"""compile_expr against the reference tree-walker on random trees.

The generated code is the only evaluator in the package; the reference in
conftest.py evaluates the same trees with its own domain checks.
"""

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
    compile_expr,
    differentiate,
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
