"""Parse, evaluate and differentiate univariate expressions in x.

Grammar (infix, whitespace-insensitive, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | tan | exp | ln | sqrt | abs | sign
    NUMBER := ASCII digits with an optional decimal point (no exponent notation)

Unary minus binds looser than '^', so -x^2 means -(x^2).  pi and e parse
to Const(math.pi) and Const(math.e).  A numeral too large for a float, or
a tree more than MAX_DEPTH levels deep or with more than that many
parentheses open at once, is a ParseError.  Trees are immutable and
hashable.  A tree is evaluated by the function compile_expr generates for
it; evaluation is deterministic for a given tree and x.  compile_enclosure
generates, from the same emitter, a function that bounds what that
evaluator returns over a range of x.

Each node class is a Record, a tuple with named fields, so two trees
compare equal, and hash equal, when their fields do.  A Record also equals
any tuple with equal fields, whatever its class, yet no two node classes
can hold equal fields: Const holds a float and Neg an Expr (one field
each), while Var, Call and Binary have 0, 2 and 3 fields.  So equal trees
are trees of the same shape and classes, as with one class per node kind.
"""

from __future__ import annotations

import math

try:
    from _collections import _tuplegetter  # the field getter of collections.namedtuple
except ImportError:  # not CPython; namedtuple falls back to the same
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


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
# levels, whose generated source nests at most 196 parentheses, one per node
# above the leaves, as in pow(u, v), in an enclosure too: there a
# constant operand is a plain number or a name (see _emit).  That is within
# CPython's limit of 200, and far within the recursion limit that hashing,
# differentiating and compiling a tree use.
MAX_DEPTH = 50

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign")
NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


def _sign(v: float) -> float:
    return float((v > 0) - (v < 0))


class Record(tuple):
    """An immutable record: a tuple whose items are also named fields.

    A subclass writes its own __new__, as in
    def __new__(cls, lo, hi=1.0): return tuple.__new__(cls, (lo, hi)),
    and sets __slots__ = () unless its instances keep other attributes.
    Record reads the field names off the parameters and adds what
    collections.namedtuple gives a class: _fields, a getter per field,
    _replace, _asdict, its repr, and pickling and copying by the fields.
    namedtuple compiles a __new__ for each class when the class is made;
    here every __new__ is compiled with its module, so importing the
    package compiles nothing.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__new__.__code__
        cls._fields = fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, /, **changes):
        record = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record


class Expr:
    """Base node; concrete nodes implement derivative."""

    __slots__ = ()

    def derivative(self) -> "Expr":
        raise NotImplementedError


class Const(Record, Expr):
    __slots__ = ()

    def __new__(cls, value):
        return tuple.__new__(cls, (value,))

    def derivative(self):
        return Const(0.0)


class Var(Record, Expr):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, ())

    def derivative(self):
        return Const(1.0)


class Call(Record, Expr):
    __slots__ = ()

    def __new__(cls, fn, arg):
        return tuple.__new__(cls, (fn, arg))

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


class Neg(Record, Expr):
    __slots__ = ()

    def __new__(cls, arg):
        return tuple.__new__(cls, (arg,))

    def derivative(self):
        return _neg(self.arg.derivative())


class Binary(Record, Expr):
    __slots__ = ()

    def __new__(cls, op, left, right):
        return tuple.__new__(cls, (op, left, right))

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


def _is_constant(e: Expr) -> bool:
    if isinstance(e, Const):
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


# str.isdigit would also take digits such as '²' and '٣', which float()
# refuses or reads as 2 and 3.
_DIGITS = "0123456789"


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
        if c in _DIGITS or c == ".":
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
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
                return Const(NAMED_CONSTANTS[name]), 1
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


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative of e with respect to x."""
    return e.derivative()


def compile_expr(e: Expr):
    """Compile a tree to a plain Python callable of x.

    The callable returns a float, or raises EvalDomainError naming x where
    the tree is undefined: a division by zero, a math domain or range
    error, or a fractional power of a negative base.  It never returns a
    complex number.  A subtree that occurs more than once is computed
    once.  The generated code calls the math functions by their bare
    names (see _FLOAT_NAMESPACE) and its one handler hands x to
    _domain_error.  Each call compiles the tree anew; PatternSpec.curve
    holds a spec's compiled f and f'.
    """
    src = (
        "def f(x):\n"
        "    try:\n"
        f"{_body(e, _FLOAT_OPS, '        ')}"
        "    except _ERRORS:\n"
        "        raise _domain_error(x)\n"
    )
    namespace = dict(_FLOAT_NAMESPACE)
    exec(src, namespace)  # noqa: S102 - source is generated from our own AST
    return namespace["f"]


def compile_enclosure(e: Expr):
    """Compile a tree to a callable enclosure(lo, hi).

    It returns (lo', hi') such that, at every float x in [lo, hi], the
    callable compile_expr(e) returns a float in [lo', hi'] and does not
    raise; or None, "undecided", where it cannot prove that.  Every bound
    is finite.  Each rule is undecided wherever its operation may be
    discontinuous (a divisor that may be 0, a pole of tan, a jump of
    sign), so a decided enclosure also proves the tree continuous on
    [lo, hi].  The enclosure is generated from the same tree walk as
    compile_expr, with an interval operation in place of each float one,
    and is compiled anew on each call, as compile_expr is.  The generated
    function is the bare body; _guarded checks its range and turns a
    raised rule into None.
    """
    src = f"def f(lo, hi):\n    x = lo, hi\n{_body(e, _ENCLOSURE_OPS, '    ')}"
    namespace = dict(_ENCLOSURE_NAMESPACE)
    exec(src, namespace)  # noqa: S102 - source is generated from our own AST
    return _guarded(namespace["f"])


# What a tree's operations raise where it is undefined.  Every compile_expr
# pays for its generated handler, so the handler names these rather than
# spelling them out.
_ERRORS = (ArithmeticError, ValueError)


def _domain_error(x):
    """EvalDomainError naming x, caused by the exception being handled.

    A compiled function raises it from its handler, so the error's
    __cause__ is what the tree's operation raised, and the context is
    suppressed, as raise ... from exc would leave them.  Its message is
    the one wording of an undefined point: the grid walk, build_plan,
    render_svg, adaptive_simpson and solve_landmarks report it after
    "f is " or "f' is ".
    """
    from sys import exc_info

    error = EvalDomainError(f"undefined at x={x!r}")
    error.__cause__ = exc_info()[1]
    return error


def _guarded(body):
    """body(lo, hi) where lo <= hi are finite, and None elsewhere or where it raises _ERRORS."""

    def enclosure(lo, hi):
        if not -_INF < lo <= hi < _INF:
            return None
        try:
            return body(lo, hi)
        except _ERRORS:
            return None

    return enclosure


def _body(e, ops, indent):
    """The lines that compute tree e and return it, each after indent."""
    statements, value = _emit(e, ops)
    return "".join(f"{indent}{line}\n" for line in statements) + f"{indent}return {value}\n"


def _intern(e):
    """The distinct subtrees of e, children first: (nodes, users, root).

    Each node is ("x", None, None), ("const", repr(value), value),
    ("neg" or a function name, child, None) or (op, left, right), where
    children are indices into nodes.  Subtrees are one node when their
    kinds, operators or functions, constants' reprs and children are: the
    reprs tell Const(0.0) from Const(-0.0), which compare equal.  A negated
    finite constant is the constant -c, the same float.  users[i] counts
    the operands, over all distinct nodes, that are node i; a subtree that
    occurs only inside one repeated subtree has one user.
    """
    nodes, users, index, seen = [], [], {}, {}

    def visit(tree):
        cls, memo = type(tree), None
        if cls is Var:
            node = ("x", None, None)
        elif cls is Const:
            node = ("const", repr(tree.value), tree.value)
        else:
            memo = id(tree)  # differentiate reuses node objects
            i = seen.get(memo)
            if i is not None:
                return i
            if cls is Binary:
                node = (tree.op, visit(tree.left), visit(tree.right))
            elif cls is Neg:
                a = visit(tree.arg)
                kind, _, value = nodes[a]
                if kind == "const" and math.isfinite(value):
                    node = ("const", repr(-value), -value)
                else:
                    node = ("neg", a, None)
            else:
                node = (tree.fn, visit(tree.arg), None)
        i = index.get(node)
        if i is None:
            i = index[node] = len(nodes)
            nodes.append(node)
            users.append(0)
            kind, a, b = node
            if kind != "const" and a is not None:
                users[a] += 1
                if b is not None:
                    users[b] += 1
        if memo is not None:
            seen[memo] = i
        return i

    root = visit(e)
    return nodes, users, root


def _emit(e, ops):
    """Python source that computes tree e from x: (statements, expression).

    Each distinct subtree (see _intern) is emitted once.  One with more
    than one user is assigned to t<i> by a statement ahead of the
    expression, inner ones first; every other node is nested in its one
    user's source.  So no line nests more parentheses than the tree does.

    ops maps each node kind to a template of its operands' sources, and
    "const" to a function of a constant's value and repr.  A constant
    whose source holds a parenthesis (an enclosure's pair) is assigned by
    a statement too, where a template first uses it.  ops["op_const"] and
    ops["const_op"] map an operator to a function of a finite constant on
    that side of it and the other operand's source.
    """
    nodes, users, root = _intern(e)
    const, right, left = ops["const"], ops["op_const"], ops["const_op"]
    statements, refs = [], []

    def bound(j):
        """The source of constant j as a template's operand."""
        if "(" in refs[j]:
            statements.append(f"t{j} = {refs[j]}")
            refs[j] = f"t{j}"
        return refs[j]

    for i, (kind, a, b) in enumerate(nodes):
        if kind == "x":
            refs.append("x")
            continue
        if kind == "const":
            refs.append(const(b, a))
            continue
        ka = nodes[a][0]
        if b is None:
            text = ops[kind].format(bound(a) if ka == "const" else refs[a])
        else:
            kb = nodes[b][0]
            if kb == "const" and kind in right and math.isfinite(nodes[b][2]):
                text = right[kind](nodes[b][2], bound(a) if ka == "const" else refs[a])
            elif ka == "const" and kind in left and math.isfinite(nodes[a][2]):
                text = left[kind](nodes[a][2], refs[b])
            else:
                text = ops[kind].format(
                    bound(a) if ka == "const" else refs[a],
                    bound(b) if kb == "const" else refs[b],
                )
        if users[i] > 1:
            statements.append(f"t{i} = {text}")
            text = f"t{i}"
        refs.append(text)
    return statements, refs[root]


# One parenthesis per node, as in pow(u, v): see MAX_DEPTH.
_FLOAT_OPS = {
    "const": lambda value, text: text,
    "op_const": {},
    "const_op": {},
    "neg": "(-{0})",
    "+": "({0}+{1})",
    "-": "({0}-{1})",
    "*": "({0}*{1})",
    "/": "({0}/{1})",
    "^": "pow({0}, {1})",
    "sin": "sin({0})",
    "cos": "cos({0})",
    "tan": "tan({0})",
    "exp": "exp({0})",
    "ln": "log({0})",
    "sqrt": "sqrt({0})",
    "abs": "abs({0})",
    "sign": "_sign({0})",
}

# Generated code calls these names without a module lookup.  pow is
# math.pow, not the builtin: math.pow raises where ** and the builtin
# would return a complex number, and returns the same float wherever they
# return one.  Constant folding in differentiate can overflow to inf, and
# inf - inf is nan; repr writes those as bare names.
_FLOAT_NAMESPACE = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "pow": math.pow,
    "abs": abs,
    "_sign": _sign,
    "inf": math.inf,
    "nan": math.nan,
    "_ERRORS": _ERRORS,
    "_domain_error": _domain_error,
    "__builtins__": {},
}


# ---------------------------------------------------------------------------
# Enclosures (interval arithmetic, R. E. Moore, 1966)
#
# An enclosure is a pair (lo, hi) of finite floats holding the float that the
# compiled function computes for that node, at every x in the input range.
# IEEE + - * / round monotonically, so the float operation applied to the
# bounds already bounds the float result at any point between them: those
# rules need no widening.  sqrt is correctly rounded, hence monotone too.
# The other math calls are within an ulp or so of the true value, so bounds
# from them are widened by _SLACK ulps' worth: lo - (|lo|*_SLACK + _TINY)
# and hi + (|hi|*_SLACK + _TINY).  A case without a sound rule raises
# _Undecided, and the whole enclosure is None.
#
# Each rule widens and checks its bounds inline, and takes the least and
# greatest of its candidates by comparisons, not min and max: a compiled
# enclosure runs a rule per node on every box, and a helper call costs as
# much as the arithmetic.  The comparisons keep the first of equal
# candidates, as min and max do, so the zero signs are theirs too; after
# widening, -0.0 and 0.0 give the same bound.  A bound goes unchecked only
# where it cannot leave the finite floats.

_INF = math.inf
_SLACK = 2.0**-46  # relative: 64 ulps at the bottom of a binade
_TINY = 1e-300     # absolute: covers results near zero and subnormal ones
_TRIG_LIMIT = 1e8  # |x| above which sin and cos get [-1, 1], tan undecided
_TRIG_MARGIN = 1e-6  # periods; far above the rounding of (x - peak)/period
_TWO_PI = 2.0 * math.pi
# The math functions the rules call, read as globals rather than math's attributes
_floor, _math_pow, _math_exp, _math_log, _math_sqrt, _math_tan = (
    math.floor, math.pow, math.exp, math.log, math.sqrt, math.tan
)


class _Undecided(ArithmeticError):
    """No rule proves an enclosure here."""


def _undecided():
    raise _Undecided


def _enc_neg(u):
    return -u[1], -u[0]


def _enc_add(u, v):
    lo, hi = u[0] + v[0], u[1] + v[1]
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_cadd(c, u):
    """c + u for a finite constant c; u - c is u + (-c), the same float."""
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
    else:  # written out, as this rule is the most frequent of the four-corner ones
        lo = hi = a * c
        p = a * d
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
        p = b * c
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
        p = b * d
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_cmul(c, u):
    """c * u for a finite constant c."""
    lo, hi = (c * u[0], c * u[1]) if c >= 0.0 else (c * u[1], c * u[0])
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_div(u, v):
    (a, b), (c, d) = u, v
    if not (c > 0.0 or d < 0.0):
        raise _Undecided  # the divisor may be 0
    lo = hi = a / c
    for p in (a / d, b / c, b / d):
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_pow(u, v):
    (a, b), (p, q) = u, v
    if p == q:
        return _enc_powc(u, p)
    if not (a > 0.0 or (a == 0.0 and p > 0.0)):
        raise _Undecided  # a varying power of a base that may be <= 0
    # monotone in the base and in the exponent: the corners bound it
    lo = hi = _math_pow(a, p)
    for c in (_math_pow(a, q), _math_pow(b, p), _math_pow(b, q)):
        if c < lo:
            lo = c
        elif c > hi:
            hi = c
    hi += hi * _SLACK + _TINY  # every corner is >= 0, so lo stays finite
    if hi < _INF:
        return lo - (lo * _SLACK + _TINY), hi
    raise _Undecided


def _enc_powc(u, p):
    """u^p for a constant p."""
    a, b = u
    if p == 0.0:
        return 1.0, 1.0
    if not (a > 0.0 or (a == 0.0 and p > 0.0)) and (p != _floor(p) or (p < 0.0 and b >= 0.0)):
        raise _Undecided  # a fractional power of a base < 0, or 0 to a power < 0
    lo, hi = _math_pow(a, p), _math_pow(b, p)
    if hi < lo:  # monotone on [a, b] ...
        lo, hi = hi, lo
    lo -= abs(lo) * _SLACK + _TINY
    hi += abs(hi) * _SLACK + _TINY
    if -_INF < lo and hi < _INF:
        if a < 0.0 < b and p % 2.0 == 0.0:
            lo = 0.0  # ... unless an even power spans 0
        return lo, hi
    raise _Undecided


def _trig_rule(fn, peak):
    """The rule for fn = sin or cos, where fn peaks at peak + 2*k*pi.

    Its bounds lie in [-1, 1], so widened they need no check.
    """

    def rule(u):
        lo, hi = u
        if hi - lo >= _TWO_PI or lo < -_TRIG_LIMIT or hi > _TRIG_LIMIT:
            return -1.0, 1.0
        # in periods from a peak; a peak or trough near the range counts as in it
        t0 = (lo - peak) / _TWO_PI - _TRIG_MARGIN
        t1 = (hi - peak) / _TWO_PI + _TRIG_MARGIN
        has_peak = _floor(t1) >= t0
        has_trough = _floor(t1 - 0.5) + 0.5 >= t0
        if has_peak and has_trough:
            return -1.0, 1.0
        # monotone on [lo, hi], between extrema
        lo, hi = fn(lo), fn(hi)
        if hi < lo:
            lo, hi = hi, lo
        return (
            -1.0 if has_trough else lo - (abs(lo) * _SLACK + _TINY),
            1.0 if has_peak else hi + (abs(hi) * _SLACK + _TINY),
        )

    return rule


_enc_sin = _trig_rule(math.sin, 0.5 * math.pi)
_enc_cos = _trig_rule(math.cos, 0.0)


def _enc_tan(u):
    lo, hi = u
    if lo < -_TRIG_LIMIT or hi > _TRIG_LIMIT:
        raise _Undecided
    # poles at pi/2 + k*pi; increasing between them
    t0 = (lo - 0.5 * math.pi) / math.pi - _TRIG_MARGIN
    t1 = (hi - 0.5 * math.pi) / math.pi + _TRIG_MARGIN
    if _floor(t1) >= t0:
        raise _Undecided
    lo, hi = _math_tan(lo), _math_tan(hi)
    lo -= abs(lo) * _SLACK + _TINY
    hi += abs(hi) * _SLACK + _TINY
    if -_INF < lo and hi < _INF:
        return lo, hi
    raise _Undecided


def _enc_exp(u):
    lo, hi = _math_exp(u[0]), _math_exp(u[1])
    hi += hi * _SLACK + _TINY  # exp is >= 0, so lo stays finite
    if hi < _INF:
        return lo - (lo * _SLACK + _TINY), hi
    raise _Undecided


def _enc_ln(u):
    """ln of a float is within [-745, 710], so widened it needs no check."""
    if not u[0] > 0.0:
        raise _Undecided
    lo, hi = _math_log(u[0]), _math_log(u[1])
    return lo - (abs(lo) * _SLACK + _TINY), hi + (abs(hi) * _SLACK + _TINY)


def _enc_sqrt(u):
    if not u[0] >= 0.0:
        raise _Undecided
    return _math_sqrt(u[0]), _math_sqrt(u[1])


def _enc_abs(u):
    lo, hi = u
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, (hi if hi > -lo else -lo)


def _enc_sign(u):
    """sign where u is all > 0, all < 0 or exactly [0, 0]; elsewhere it may jump."""
    s = _sign(u[0])
    if s != _sign(u[1]):
        raise _Undecided
    return s, s


_ENCLOSURE_OPS = {
    "const": lambda value, text: f"({text}, {text})" if math.isfinite(value) else "_undecided()",
    # rules that take a finite constant operand as a plain number
    "op_const": {
        "+": lambda c, u: f"_enc_cadd({c!r}, {u})",
        "-": lambda c, u: f"_enc_cadd({-c!r}, {u})",
        "*": lambda c, u: f"_enc_cmul({c!r}, {u})",
        "^": lambda c, u: f"_enc_powc({u}, {c!r})",
    },
    "const_op": {
        "+": lambda c, u: f"_enc_cadd({c!r}, {u})",
        "*": lambda c, u: f"_enc_cmul({c!r}, {u})",
    },
    "neg": "_enc_neg({0})",
    "+": "_enc_add({0}, {1})",
    "-": "_enc_sub({0}, {1})",
    "*": "_enc_mul({0}, {1})",
    "/": "_enc_div({0}, {1})",
    "^": "_enc_pow({0}, {1})",
    **{fn: f"_enc_{fn}({{0}})" for fn in FUNCTION_NAMES},
}

# What a compiled enclosure can name; compile_enclosure copies it.
_ENCLOSURE_NAMESPACE = {
    name: value for name, value in globals().items() if name.startswith("_enc_")
}
_ENCLOSURE_NAMESPACE.update(_undecided=_undecided, __builtins__={})
