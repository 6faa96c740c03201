"""Parse, evaluate and differentiate univariate expressions in x.

Grammar (infix, whitespace-insensitive, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | tan | exp | ln | sqrt | abs | sign
    NUMBER := digits with an optional decimal point (no exponent notation)

Unary minus binds looser than '^', so -x^2 means -(x^2).  A numeral too
large for a float, or a tree more than MAX_DEPTH levels deep or with more
than that many parentheses open at once, is a ParseError.  Trees are
immutable and hashable.  A tree is evaluated by the function compile_expr
generates for it; evaluation is deterministic for a given tree and x.
compile_enclosure generates, from the same emitter, a function that bounds
what that evaluator returns over a range of x.

Each node class is a namedtuple, so two trees compare equal, and hash
equal, when their fields do.  A namedtuple also equals any tuple with equal
fields, whatever its class, yet no two node classes can hold equal fields:
Const holds a float, NamedConst a str and Neg an Expr (one field each),
while Var, Call and Binary have 0, 2 and 3 fields.  So equal trees are
trees of the same shape and classes, as with one class per node kind.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache


class ExpressionError(ValueError):
    """Base class for errors raised by this module."""


class ParseError(ExpressionError):
    """Syntax or identifier error; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExpressionError):
    """The expression is undefined at the requested point."""


# Deepest tree parse() accepts.  Differentiation adds at most 4 levels per
# level (the u^v rule), so f' of a tree this deep is at most 4*50 - 3 = 197
# levels, whose generated source nests 196 parentheses (one per node, as in
# math.pow(u, v)), and 197 in an enclosure, whose constants are pairs:
# within CPython's limit of 200, and far within the recursion limit that
# hashing, rendering, differentiating and compiling a tree use.
MAX_DEPTH = 50

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign")
NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


def _sign(v: float) -> float:
    return float((v > 0) - (v < 0))


class Expr:
    """Base node; concrete nodes implement derivative/render."""

    __slots__ = ()

    def derivative(self) -> "Expr":
        raise NotImplementedError

    # Rendering precedence: 1 add/sub, 2 mul/div, 3 unary minus, 4 pow, 5 atoms.
    def render(self) -> str:
        raise NotImplementedError

    def precedence(self) -> int:
        return 5


class Const(namedtuple("Const", "value"), Expr):
    __slots__ = ()

    def derivative(self):
        return Const(0.0)

    def render(self):
        v = self.value
        if not math.isfinite(v):
            # differentiate's constant folding can overflow; no numeral says inf
            raise ExpressionError(f"cannot render the non-finite constant {v!r}")
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        text = repr(v)
        if "e" not in text:
            return text
        # The grammar has no exponent notation: 1e-07 renders as 0.0000001.
        from decimal import Decimal

        return format(Decimal(text), "f")

    def precedence(self):
        return 5 if self.value >= 0 else 3


class NamedConst(namedtuple("NamedConst", "name"), Expr):
    """The constant pi or e, by name ('pi' or 'e')."""

    __slots__ = ()

    def derivative(self):
        return Const(0.0)

    def render(self):
        return self.name


class Var(namedtuple("Var", ()), Expr):
    __slots__ = ()

    def derivative(self):
        return Const(1.0)

    def render(self):
        return "x"


class Call(namedtuple("Call", "fn arg"), Expr):
    __slots__ = ()

    def derivative(self):
        u, du = self.arg, self.arg.derivative()
        if self.fn == "sin":
            return _mul(Call("cos", u), du)
        if self.fn == "cos":
            return _neg(_mul(Call("sin", u), du))
        if self.fn == "tan":
            return _div(du, _pow(Call("cos", u), Const(2.0)))
        if self.fn == "exp":
            return _mul(Call("exp", u), du)
        if self.fn == "ln":
            return _div(du, u)
        if self.fn == "sqrt":
            return _div(du, _mul(Const(2.0), Call("sqrt", u)))
        if self.fn == "abs":
            # sign(u)*u' with sign(0) = 0, so |.|' is 0 at the kink.
            return _mul(Call("sign", u), du)
        if self.fn == "sign":
            return Const(0.0)
        raise ExpressionError(f"no derivative rule for {self.fn}")

    def render(self):
        return f"{self.fn}({self.arg.render()})"


class Neg(namedtuple("Neg", "arg"), Expr):
    __slots__ = ()

    def derivative(self):
        return _neg(self.arg.derivative())

    def render(self):
        inner = self.arg.render()
        # Unary minus binds tighter than * and /: -(x*y) is not -x*y.
        if self.arg.precedence() < 3:
            inner = f"({inner})"
        return f"-{inner}"

    def precedence(self):
        return 3


_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


class Binary(namedtuple("Binary", "op left right"), Expr):
    __slots__ = ()

    def derivative(self):
        u, v = self.left, self.right
        du, dv = u.derivative(), v.derivative()
        op = self.op
        if op == "+":
            return _add(du, dv)
        if op == "-":
            return _sub(du, dv)
        if op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, Const(2.0)))
        # Power: use the power rule for constant exponents so that e.g. x^3
        # stays defined for negative x; fall back to u^v*(v'*ln u + v*u'/u).
        if _is_constant(v):
            return _mul(_mul(v, _pow(u, _sub(v, Const(1.0)))), du)
        return _mul(
            Binary("^", u, v),
            _add(_mul(dv, Call("ln", u)), _div(_mul(v, du), u)),
        )

    def render(self):
        prec = _BINARY_PRECEDENCE[self.op]
        left, right = self.left.render(), self.right.render()
        if self.op == "^":
            if self.left.precedence() <= 4:
                left = f"({left})"
            if self.right.precedence() < 5:
                right = f"({right})"
            return f"{left}^{right}"
        if self.left.precedence() < prec:
            left = f"({left})"
        # The parser groups + - * / to the left, so a same-precedence rhs
        # keeps its parentheses: x+(2+x) must not re-parse as (x+2)+x.
        if self.right.precedence() <= prec:
            right = f"({right})"
        if prec == 1:
            return f"{left} {self.op} {right}"
        return f"{left}{self.op}{right}"

    def precedence(self):
        return _BINARY_PRECEDENCE[self.op]


def _is_constant(e: Expr) -> bool:
    if isinstance(e, (Const, NamedConst)):
        return True
    if isinstance(e, Var):
        return False
    if isinstance(e, Neg):
        return _is_constant(e.arg)
    if isinstance(e, Call):
        return _is_constant(e.arg)
    return _is_constant(e.left) and _is_constant(e.right)


# Smart constructors used by differentiation; they fold the obvious
# identities (0+g, 1*g, g^1, constant arithmetic) to keep derivative
# trees small, and never change where an expression is defined except
# for the 0*g -> 0 rule.

def _const_val(e):
    return e.value if isinstance(e, Const) else None


def _add(a, b):
    if _const_val(a) == 0.0:
        return b
    if _const_val(b) == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def _sub(a, b):
    if _const_val(b) == 0.0:
        return a
    if _const_val(a) == 0.0:
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Binary("-", a, b)


def _mul(a, b):
    if _const_val(a) == 0.0 or _const_val(b) == 0.0:
        return Const(0.0)
    if _const_val(a) == 1.0:
        return b
    if _const_val(b) == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def _div(a, b):
    if _const_val(a) == 0.0:
        return Const(0.0)
    if _const_val(b) == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


def _pow(a, b):
    if _const_val(b) == 1.0:
        return a
    if _const_val(b) == 0.0:
        return Const(1.0)
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            return Const(math.pow(a.value, b.value))
        except (ArithmeticError, ValueError):
            pass
    return Binary("^", a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# Tokenizer / parser


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if text[i:j] == ".":
                raise ParseError("bare '.' is not a number", i)
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent; every rule returns (tree, tree depth).

    Depth counts nodes on the longest root-to-leaf path (a leaf is 1).  The
    recursion stays as shallow as MAX_DEPTH: at most that many grouping
    parentheses, and that many calls, negations and exponents, may be open
    at once.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = {"group": 0, "node": 0}

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {found!r}", tok.pos)
        return self.take()

    def deeper(self, depth, tok):
        """depth + 1, or ParseError once that passes MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.pos)
        return depth + 1

    def nested(self, rule, tok, kind="node"):
        """Apply rule inside the group or node that tok opens."""
        self.open[kind] = self.deeper(self.open[kind], tok)
        result = rule()
        self.open[kind] -= 1
        return result

    def parse(self):
        e, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return e

    def expr(self):
        e, depth = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.take()
            right, right_depth = self.term()
            e, depth = Binary(tok.kind, e, right), self.deeper(max(depth, right_depth), tok)
        return e, depth

    def term(self):
        e, depth = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.take()
            right, right_depth = self.unary()
            e, depth = Binary(tok.kind, e, right), self.deeper(max(depth, right_depth), tok)
        return e, depth

    def unary(self):
        if self.peek().kind == "-":
            tok = self.take()
            arg, depth = self.nested(self.unary, tok)
            return Neg(arg), self.deeper(depth, tok)
        return self.power()

    def power(self):
        base, depth = self.atom()
        if self.peek().kind == "^":
            tok = self.take()
            exponent, exp_depth = self.nested(self.unary, tok)
            return Binary("^", base, exponent), self.deeper(max(depth, exp_depth), tok)
        return base, depth

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError("number too large", tok.pos)
            return Const(value), 1
        if tok.kind == "(":
            self.take()
            result = self.nested(self.expr, tok, "group")
            self.expect(")")
            return result
        if tok.kind == "ident":
            self.take()
            name = tok.text
            if name == "x":
                return Var(), 1
            if name in NAMED_CONSTANTS:
                return NamedConst(name), 1
            if name in FUNCTION_NAMES:
                self.expect("(")
                arg, depth = self.nested(self.expr, tok)
                self.expect(")")
                return Call(name, arg), self.deeper(depth, tok)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        found = tok.text or "end of input"
        raise ParseError(f"expected a value, found {found!r}", tok.pos)


# ---------------------------------------------------------------------------
# Public operations


def parse(text: str) -> Expr:
    """Parse an infix expression in x into a tree.

    Raises ParseError (with character offset) on malformed input, unknown
    identifiers, or empty input.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def evaluate(e: Expr, x: float) -> float:
    """Evaluate a tree at x; raises EvalDomainError where undefined."""
    return compile_expr(e)(x)


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative of e with respect to x."""
    return e.derivative()


def render(e: Expr) -> str:
    """Render a tree back to parseable text.

    parse(render(t)) == t for every tree that parse() returns.
    """
    return e.render()


def compile_expr(e: Expr):
    """Compile a tree to a plain Python callable of x, cached per tree.

    The callable returns a float, or raises EvalDomainError naming x where
    the tree is undefined: a division by zero, a math domain or range
    error, or a fractional power of a negative base.  It never returns a
    complex number.
    """
    # Keyed by the generated source: trees that differ only in the sign of
    # a zero constant compare equal, yet compute differently signed zeros.
    return _compile_source(_emit(e, _FLOAT_OPS))


def compile_enclosure(e: Expr):
    """Compile a tree to a callable enclosure(lo, hi), cached per tree.

    It returns (lo', hi') such that, at every float x in [lo, hi], the
    callable compile_expr(e) returns a float in [lo', hi'] and does not
    raise; or None, "undecided", where it cannot prove that.  Every bound
    is finite.  The enclosure is generated from the same tree walk as
    compile_expr, with an interval operation in place of each float one.
    """
    return _compile_enclosure_source(_emit(e, _ENCLOSURE_OPS))


def _emit(e, ops):
    """Python source of one expression that computes tree e from x.

    ops maps each node kind to a template of its operands' sources, and
    "const" to a function of the constant's value.
    """
    if isinstance(e, Const):
        return ops["const"](e.value)
    if isinstance(e, NamedConst):
        return ops["const"](NAMED_CONSTANTS[e.name])
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        return ops["neg"].format(_emit(e.arg, ops))
    if isinstance(e, Call):
        return ops[e.fn].format(_emit(e.arg, ops))
    return ops[e.op].format(_emit(e.left, ops), _emit(e.right, ops))


# One parenthesis per node, as in math.pow(u, v): see MAX_DEPTH.
_FLOAT_OPS = {
    "const": repr,
    "neg": "(-{0})",
    "+": "({0}+{1})",
    "-": "({0}-{1})",
    "*": "({0}*{1})",
    "/": "({0}/{1})",
    # math.pow raises where ** would return a complex number, and returns
    # the same float wherever ** returns one.
    "^": "math.pow({0}, {1})",
    "sin": "math.sin({0})",
    "cos": "math.cos({0})",
    "tan": "math.tan({0})",
    "exp": "math.exp({0})",
    "ln": "math.log({0})",
    "sqrt": "math.sqrt({0})",
    "abs": "abs({0})",
    "sign": "_sign({0})",
}


@lru_cache(maxsize=128)
def _compile_source(body: str):
    src = (
        "def f(x):\n"
        "    try:\n"
        f"        return {body}\n"
        "    except (ArithmeticError, ValueError) as exc:\n"
        "        raise EvalDomainError(f'undefined at x={x!r}') from exc\n"
    )
    # Constant folding in differentiate can overflow to inf, and inf - inf
    # is nan; repr writes those as bare names.
    namespace = {
        "math": math,
        "abs": abs,
        "_sign": _sign,
        "inf": math.inf,
        "nan": math.nan,
        "ArithmeticError": ArithmeticError,
        "ValueError": ValueError,
        "EvalDomainError": EvalDomainError,
        "__builtins__": {},
    }
    exec(src, namespace)  # noqa: S102 - source is generated from our own AST
    return namespace["f"]


# ---------------------------------------------------------------------------
# Enclosures (interval arithmetic, R. E. Moore, 1966)
#
# An enclosure is a pair (lo, hi) of finite floats holding the float that the
# compiled function computes for that node, at every x in the input range.
# IEEE + - * / round monotonically, so the float operation applied to the
# bounds already bounds the float result at any point between them: those
# rules need no widening.  sqrt is correctly rounded, hence monotone too.
# The other math calls are within an ulp or so of the true value, so bounds
# from them are widened by _SLACK ulps' worth.  A case without a sound rule
# raises _Undecided, and the whole enclosure is None.

_INF = math.inf
_SLACK = 2.0**-46  # relative: 64 ulps at the bottom of a binade
_TINY = 1e-300     # absolute: covers results near zero and subnormal ones
_TRIG_LIMIT = 1e8  # |x| above which sin and cos get [-1, 1], tan undecided
_TRIG_MARGIN = 1e-6  # periods; far above the rounding of (x - peak)/period


class _Undecided(ArithmeticError):
    """No rule proves an enclosure here."""


def _undecided():
    raise _Undecided


def _checked(lo, hi):
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _widened(lo, hi):
    return _checked(lo - (abs(lo) * _SLACK + _TINY), hi + (abs(hi) * _SLACK + _TINY))


def _enc_neg(u):
    return -u[1], -u[0]


def _enc_add(u, v):
    return _checked(u[0] + v[0], u[1] + v[1])


def _enc_sub(u, v):
    return _checked(u[0] - v[1], u[1] - v[0])


def _enc_mul(u, v):
    (a, b), (c, d) = u, v
    if a >= 0.0 and c >= 0.0:
        return _checked(a * c, b * d)
    p = (a * c, a * d, b * c, b * d)
    return _checked(min(p), max(p))


def _enc_div(u, v):
    (a, b), (c, d) = u, v
    if not (c > 0.0 or d < 0.0):
        raise _Undecided  # the divisor may be 0
    p = (a / c, a / d, b / c, b / d)
    return _checked(min(p), max(p))


def _enc_pow(u, v):
    (a, b), (p, q) = u, v
    positive = a > 0.0 or (a == 0.0 and p > 0.0)
    if p != q:
        if not positive:
            raise _Undecided  # a varying power of a base that may be <= 0
        # monotone in the base and in the exponent: the corners bound it
        c = (math.pow(a, p), math.pow(a, q), math.pow(b, p), math.pow(b, q))
        return _widened(min(c), max(c))
    if p == 0.0:
        return 1.0, 1.0
    if not positive and (p != math.floor(p) or (p < 0.0 and b >= 0.0)):
        raise _Undecided  # a fractional power of a base < 0, or 0 to a power < 0
    ea, eb = math.pow(a, p), math.pow(b, p)
    lo, hi = _widened(min(ea, eb), max(ea, eb))  # monotone on [a, b] ...
    if a < 0.0 < b and p % 2.0 == 0.0:
        lo = 0.0  # ... unless an even power spans 0
    return lo, hi


def _enc_trig(fn, peak, lo, hi):
    """fn = sin or cos over [lo, hi], where fn peaks at peak + 2*k*pi."""
    if hi - lo >= 2.0 * math.pi or lo < -_TRIG_LIMIT or hi > _TRIG_LIMIT:
        return -1.0, 1.0
    # in periods from a peak; a peak or trough near the range counts as in it
    t0 = (lo - peak) / (2.0 * math.pi) - _TRIG_MARGIN
    t1 = (hi - peak) / (2.0 * math.pi) + _TRIG_MARGIN
    has_peak = math.floor(t1) >= t0
    has_trough = math.floor(t1 - 0.5) + 0.5 >= t0
    if has_peak and has_trough:
        return -1.0, 1.0
    # monotone on [lo, hi], between extrema
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
    # poles at pi/2 + k*pi; increasing between them
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
    return _sign(u[0]), _sign(u[1])  # sign is nondecreasing


_ENCLOSURE_OPS = {
    "const": lambda v: f"({v!r}, {v!r})" if math.isfinite(v) else "_undecided()",
    "neg": "_enc_neg({0})",
    "+": "_enc_add({0}, {1})",
    "-": "_enc_sub({0}, {1})",
    "*": "_enc_mul({0}, {1})",
    "/": "_enc_div({0}, {1})",
    "^": "_enc_pow({0}, {1})",
    **{fn: f"_enc_{fn}({{0}})" for fn in FUNCTION_NAMES},
}


@lru_cache(maxsize=128)
def _compile_enclosure_source(body: str):
    src = (
        "def f(lo, hi):\n"
        "    if not -inf < lo <= hi < inf:\n"
        "        return None\n"
        "    x = (lo, hi)\n"
        "    try:\n"
        f"        return {body}\n"
        "    except (ArithmeticError, ValueError):\n"
        "        return None\n"
    )
    namespace = {name: value for name, value in globals().items() if name.startswith("_enc_")}
    namespace.update(
        inf=math.inf,
        _undecided=_undecided,
        ArithmeticError=ArithmeticError,
        ValueError=ValueError,
        __builtins__={},
    )
    exec(src, namespace)  # noqa: S102 - source is generated from our own AST
    return namespace["f"]
