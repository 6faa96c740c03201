import math
import random

import pytest

from revcrochet.expression import (
    Binary,
    Call,
    Const,
    EvalDomainError,
    MAX_DEPTH,
    Neg,
    ParseError,
    Var,
    _ENCLOSURE_OPS,
    _FLOAT_OPS,
    _emit,
    compile_enclosure,
    compile_expr,
    differentiate,
    parse,
)

from conftest import evaluate, reference_evaluate, render, same_float


class TestParse:
    def test_running_example_at_point(self):
        # expanded by hand: -22.906304 + 16.1312 + 5.68 + 4
        tree = parse("x^3 + 2*x^2 - 2*x + 4")
        assert evaluate(tree, -2.84) == pytest.approx(2.904896, abs=1e-12)

    def test_identity(self):
        assert evaluate(parse("x"), 7.5) == 7.5

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("sin(1/x")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_identifier_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("2*foo(x)")
        assert err.value.position == 2

    @pytest.mark.parametrize(
        "text, position", [("1" * 400, 0), ("2 + " + "9" * 400 + ".5", 4)], ids=["int", "decimal"]
    )
    def test_number_too_large_for_a_float(self, text, position):
        with pytest.raises(ParseError, match="number too large") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, position", [("²", 0), ("2 + ٣*x", 4)])
    def test_numerals_are_ascii_digits(self, text, position):
        # str.isdigit takes both; float() refuses '²' and reads '٣' as 3
        with pytest.raises(ParseError, match="^unexpected character") as err:
            parse(text)
        assert err.value.position == position

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_whitespace_insensitive(self):
        dense = parse("x^2+1")
        spaced = parse("  x ^ 2 + 1 ")
        assert evaluate(dense, 3.0) == evaluate(spaced, 3.0) == 10.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-2^2"), 0.0) == -4.0
        assert evaluate(parse("-x^2"), 3.0) == -9.0

    def test_named_constants(self):
        assert parse("pi") == Const(math.pi) and parse("e") == Const(math.e)
        assert evaluate(parse("pi"), 0.0) == math.pi
        assert evaluate(parse("e"), 0.0) == math.e

    def test_functions(self):
        assert evaluate(parse("sqrt(abs(x))"), -9.0) == 3.0
        assert evaluate(parse("ln(e)"), 0.0) == pytest.approx(1.0)

    def test_precedence(self):
        assert evaluate(parse("2 + 3 * 4"), 0.0) == 14.0
        assert evaluate(parse("(2 + 3) * 4"), 0.0) == 20.0
        assert evaluate(parse("2 - 3 - 4"), 0.0) == -5.0


def levels(e, memo=None):
    """Nodes on the longest root-to-leaf path of tree e."""
    memo = {} if memo is None else memo  # f' shares subtrees, many times over
    if id(e) not in memo:
        children = [c for c in e if isinstance(c, tuple)]
        memo[id(e)] = 1 + max((levels(c, memo) for c in children), default=0)
    return memo[id(e)]


def nesting(line):
    """The most parentheses open at once in a line of source."""
    depth = deepest = 0
    for ch in line:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


class TestDepthLimit:
    @staticmethod
    def at_cap(kind):
        # trees of exactly MAX_DEPTH levels
        n = MAX_DEPTH - 1
        if kind == "call":
            return "sin(" * n + "x" + ")" * n
        if kind == "pow_left":  # the u^v rule deepens f' the most
            return "(" * n + "x" + "^x)" * n
        return {"sum": "+", "product": "*", "power": "^"}[kind].join(["x"] * (n + 1))

    @pytest.mark.parametrize("kind", ["sum", "product", "power", "pow_left", "call"])
    def test_trees_at_the_cap_compile_and_hash(self, kind):
        tree = parse(self.at_cap(kind))
        deriv = differentiate(tree)
        assert parse(render(tree)) == tree
        assert levels(deriv) <= 4 * MAX_DEPTH - 3  # the bound MAX_DEPTH's comment gives
        for e in (tree, deriv):
            assert same_float(compile_expr(e)(0.5), reference_evaluate(e, 0.5))
            assert compile_enclosure(e)(0.5, 0.5) is not None
            assert isinstance(hash(e), int)
            # one parenthesis per node above the leaves at most (the enclosure
            # of a constant tree is one pair); a shared subtree's statement
            # nests no deeper than the expression it was taken from
            for ops in (_FLOAT_OPS, _ENCLOSURE_OPS):
                statements, value = _emit(e, ops)
                assert max(map(nesting, [*statements, value])) <= max(levels(e) - 1, 1)

    @pytest.mark.parametrize("kind", ["sum", "product", "power", "pow_left", "call"])
    def test_one_level_past_the_cap_is_rejected(self, kind):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(f"-({self.at_cap(kind)})")

    @pytest.mark.parametrize("text", [
        "(" * 1500 + "x + 1" + ")" * 1500,
        "-" * 5000 + "x",
        "x^" * 5000 + "x",
        "+".join(["x"] * 5000),
    ])
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(text)


class TestEvaluate:
    def test_sin_at_zero(self):
        assert evaluate(parse("sin(x)"), 0.0) == 0.0

    def test_running_example_at_minus_three(self):
        # -27 + 18 + 6 + 4
        assert evaluate(parse("x^3 + 2*x^2 - 2*x + 4"), -3.0) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x"), 0.0)

    def test_ln_of_nonpositive(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("ln(x)"), -1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)"), -4.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^0.5"), -8.0)

    def test_error_names_the_point(self):
        with pytest.raises(EvalDomainError, match="x=0.0"):
            evaluate(parse("1/x"), 0.0)

    @pytest.mark.parametrize("text", [
        "(x - 0.5)^1.5",
        "sin((x - 0.5)^1.5)",
        "abs((x - 0.5)^0.5)",  # abs of a complex number would be real
        "sign((x - 0.5)^0.5)",
    ])
    def test_fractional_power_inside_a_call_is_undefined(self, text):
        with pytest.raises(EvalDomainError, match=r"^undefined at x=0\.25$"):
            evaluate(parse(text), 0.25)

    def test_folded_overflow_compiles(self):
        # Const(1e200*1e200) folds to inf, which repr writes as a bare name
        big = "1" + "0" * 200
        d = differentiate(parse(f"{big}*({big}*x)"))
        assert d == Const(math.inf)
        assert evaluate(d, 0.0) == math.inf
        assert math.isnan(evaluate(Binary("+", d, Neg(d)), 0.0))

    def test_signed_zero_constants_compile_apart(self):
        # Const(0.0) == Const(-0.0), yet x*0 and x*-0 differ in sign at x=1
        pos, neg = Binary("*", Var(), Const(0.0)), Binary("*", Var(), Const(-0.0))
        assert pos == neg
        assert math.copysign(1.0, evaluate(pos, 1.0)) == 1.0
        assert math.copysign(1.0, evaluate(neg, 1.0)) == -1.0

    def test_deterministic(self):
        tree = parse("sin(x) + x^2 / 3")
        assert evaluate(tree, 1.234) == evaluate(tree, 1.234)


def central_difference(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


class TestDifferentiate:
    def test_running_example_matches_closed_form(self):
        d = compile_expr(differentiate(parse("x^3 + 2*x^2 - 2*x + 4")))
        for i in range(21):
            x = -3.0 + i * 0.2
            assert d(x) == pytest.approx(3 * x**2 + 4 * x - 2, abs=1e-9)

    def test_constant_rule(self):
        assert differentiate(parse("5")) == Const(0.0)

    def test_sin_to_cos_on_grid(self):
        tree = parse("sin(x)")
        f, d = compile_expr(tree), compile_expr(differentiate(tree))
        for i in range(20):
            x = -2.0 + i * 0.21
            assert d(x) == pytest.approx(math.cos(x), abs=1e-12)
            fd = central_difference(f, x)
            assert abs(d(x) - fd) <= 1e-5 * max(1.0, abs(d(x)))

    def test_abs_derivative_is_sign(self):
        d = differentiate(parse("abs(x)"))
        assert evaluate(d, 3.0) == 1.0
        assert evaluate(d, -3.0) == -1.0
        assert evaluate(d, 0.0) == 0.0

    def test_power_rule_keeps_negative_base_defined(self):
        d = differentiate(parse("x^3"))
        assert evaluate(d, -2.0) == pytest.approx(12.0)

    def test_variable_exponent(self):
        d = differentiate(parse("x^x"))
        x = 1.7
        assert evaluate(d, x) == pytest.approx(x**x * (math.log(x) + 1), rel=1e-12)

    def test_quotient_rule(self):
        d = differentiate(parse("sin(x)/x"))
        x = 2.3
        expected = (x * math.cos(x) - math.sin(x)) / x**2
        assert evaluate(d, x) == pytest.approx(expected, rel=1e-12)


def random_tree(rng, depth=0):
    """A random expression that stays defined on [-2, 2]."""
    choices = ["const", "var", "sin", "cos", "exp", "poly", "add", "mul", "safe_ln", "safe_sqrt"]
    kind = rng.choice(choices if depth < 3 else ["const", "var", "poly"])
    if kind == "const":
        return f"{rng.uniform(-3, 3):.3f}"
    if kind == "var":
        return "x"
    if kind == "poly":
        return f"({rng.uniform(-2, 2):.3f}*x^{rng.randint(1, 4)} + {rng.uniform(-2, 2):.3f})"
    if kind in ("sin", "cos", "exp"):
        return f"{kind}({random_tree(rng, depth + 1)})"
    if kind == "safe_ln":
        return f"ln({random_tree(rng, depth + 1)}^2 + 1.5)"
    if kind == "safe_sqrt":
        return f"sqrt({random_tree(rng, depth + 1)}^2 + 0.5)"
    op = "+" if kind == "add" else "*"
    return f"({random_tree(rng, depth + 1)} {op} {random_tree(rng, depth + 1)})"


def random_parsed_tree(rng, depth):
    """A random tree of the shapes parse() returns, at most depth levels deep.

    One operand of each binary node carries the depth, the other stays
    shallow, so trees at MAX_DEPTH stay small.
    """
    if depth == 1 or rng.random() < 0.1:
        kind = rng.random()
        if kind < 0.4:
            return Var()
        if kind < 0.5:
            return Const(rng.choice([math.pi, math.e]))
        digits = rng.randint(0, 9)
        return Const(float(f"{rng.uniform(0, 10) * 10.0 ** rng.randint(-8, 3):.{digits}f}"))
    kind = rng.random()
    if kind < 0.15:
        return Neg(random_parsed_tree(rng, depth - 1))
    if kind < 0.3:
        return Call(rng.choice(["sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign"]),
                    random_parsed_tree(rng, depth - 1))
    deep = random_parsed_tree(rng, depth - 1)
    shallow = random_parsed_tree(rng, rng.randint(1, min(depth - 1, 4)))
    left, right = (deep, shallow) if rng.random() < 0.5 else (shallow, deep)
    return Binary(rng.choice("+-*/^"), left, right)


class TestProperties:
    def test_render_parse_is_the_identity_on_trees(self):
        rng = random.Random(4242)
        for _ in range(2000):
            tree = random_parsed_tree(rng, rng.randint(1, MAX_DEPTH))
            assert parse(render(tree)) == tree

    def test_equality_and_hash_follow_the_rendered_tree(self):
        # Nodes are namedtuples, which compare equal to any tuple with equal
        # fields; equal trees must still be exactly the equally rendered ones.
        rng = random.Random(4242)
        trees = [random_parsed_tree(rng, rng.randint(1, MAX_DEPTH)) for _ in range(2000)]
        trees += [differentiate(t) for t in trees]
        by_text = {}
        for t in trees:
            by_text.setdefault(render(t), []).append(t)
        for group in by_text.values():
            for t in group:
                assert t == group[0] and hash(t) == hash(group[0])
        # Trees rendered differently must differ.  Equal tuples hash equal,
        # so only pairs within one hash bucket could compare equal.
        by_hash = {}
        for group in by_text.values():
            by_hash.setdefault(hash(group[0]), []).append(group[0])
        for bucket in by_hash.values():
            for i, a in enumerate(bucket):
                assert all(a != b for b in bucket[i + 1:])
        assert len(by_text) > 2000

    def test_trees_are_immutable(self):
        rng = random.Random(4242)
        for _ in range(200):
            tree = random_parsed_tree(rng, rng.randint(1, MAX_DEPTH))
            for t in (tree, differentiate(tree)):
                name = t._fields[0] if t._fields else "value"  # Var: no new attributes
                with pytest.raises(AttributeError):
                    setattr(t, name, Var())

    # The reference renderer in conftest.py: the identity test above shows
    # its parentheses suffice, these cases that it adds none the parser does
    # not need.
    @pytest.mark.parametrize("tree, text", [
        (Binary("+", Var(), Binary("+", Const(2.0), Binary("^", Var(), Const(2.0)))),
         "x + (2 + x^2)"),
        (Binary("*", Var(), Binary("*", Const(2.0), Var())), "x*(2*x)"),
        (Binary("+", Var(), Binary("-", Var(), Const(1.0))), "x + (x - 1)"),
        (Neg(Binary("*", Var(), Var())), "-(x*x)"),
        (Binary("^", Var(), Binary("^", Var(), Var())), "x^(x^x)"),
        (Const(1e-07), "0.0000001"),
    ])
    def test_render_keeps_the_grouping(self, tree, text):
        assert render(tree) == text

    def test_derivative_matches_central_differences(self):
        # 50 random expressions, 20-point grids, 1e-5 relative tolerance
        rng = random.Random(1405)
        checked = 0
        for _ in range(50):
            tree = parse(random_tree(rng))
            f, deriv = compile_expr(tree), compile_expr(differentiate(tree))
            for i in range(20):
                x = -2.0 + i * (4.0 / 19)
                try:
                    sym = deriv(x)
                    fd = central_difference(f, x)
                except EvalDomainError:
                    continue
                if abs(sym) > 1e8:  # fd loses precision on huge slopes
                    continue
                assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym))
                checked += 1
        assert checked > 600

    def test_compiled_matches_tree_eval_bitwise(self):
        rng = random.Random(81)
        for _ in range(60):
            tree = parse(random_tree(rng))
            for e in (tree, differentiate(tree)):
                fn = compile_expr(e)
                for _ in range(40):
                    x = rng.uniform(-2, 2)
                    try:
                        v1 = reference_evaluate(e, x)
                    except EvalDomainError:
                        with pytest.raises(EvalDomainError):
                            fn(x)
                        continue
                    assert same_float(fn(x), v1)

    def test_derivative_uses_only_supported_node_kinds(self):
        rng = random.Random(83)
        allowed_calls = {"sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign"}

        def walk(e):
            if isinstance(e, (Const, Var)):
                return
            if isinstance(e, Neg):
                walk(e.arg)
                return
            if isinstance(e, Call):
                assert e.fn in allowed_calls
                walk(e.arg)
                return
            assert isinstance(e, Binary) and e.op in "+-*/^"
            walk(e.left)
            walk(e.right)

        for _ in range(50):
            walk(differentiate(parse(random_tree(rng))))
