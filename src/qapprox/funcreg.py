"""Test-function registry and a small arithmetic expression parser.

Grammar (precedence low to high: + - < * / < unary - < ^, with ^ binding
right-associatively):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'

NAME is one of abs, exp, sin, cos, sqrt.  Numbers are decimal literals;
scientific notation is accepted.  Nesting is capped at MAX_NESTING levels.
An expression compiles once to a numpy function of t that evaluates a whole
array of t in one call.  Expressions are only evaluated on [0, 1]; division
by zero, a negative sqrt argument or an undefined power is a runtime
evaluation error reporting the offending t, while overflow yields inf.

Every test function f takes an ndarray t and returns an array of its shape
or a scalar, which callers broadcast (``lambda t: 1.0`` is a valid f).  The
registry names (builtin) are aliases of expressions, and every RealFunction
is compared by its rendered source, so the coefficient caches key each f by
its value, not by its identity.
"""

import re
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field

import numpy as np


class ParseError(ValueError):
    """Syntax error with byte offset and the set of expected tokens."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected: " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class EvalError(ValueError):
    """Runtime evaluation failure, e.g. sqrt of a negative intermediate."""


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


def _check(bad, t, message, value=0.0):
    """Raise EvalError at the first t where the mask bad holds.

    message is formatted with that t and the matching entry of value.
    """
    if np.any(bad):
        bad, t, value = np.broadcast_arrays(bad, t, value)
        i = np.flatnonzero(bad)[0]
        raise EvalError(message.format(t=float(t.flat[i]), v=float(value.flat[i])))


def _divide(num, den, t):
    _check(den == 0.0, t, "division by zero at t={t}")
    return num / den


def _power(base, exp, t):
    out = np.power(base, exp)
    # nan from non-nan operands, or 0 to a negative power; overflow gives inf
    failed = (np.isnan(out) & ~np.isnan(base) & ~np.isnan(exp)) | ((base == 0.0) & (exp < 0.0))
    _check(failed, t, "power failed at t={t}")
    return out


def _sqrt(v, t):
    _check(v < 0.0, t, "sqrt of negative value {v} at t={t}", v)
    return np.sqrt(v)


_BINARY = {
    "+": lambda a, b, t: a + b,
    "-": lambda a, b, t: a - b,
    "*": lambda a, b, t: a * b,
    "/": _divide,
    "^": _power,
}

_FUNCTIONS = {
    "abs": lambda v, t: np.abs(v),
    "exp": lambda v, t: np.exp(v),
    "sin": lambda v, t: np.sin(v),
    "cos": lambda v, t: np.cos(v),
    "sqrt": _sqrt,
}


def _closure(node):
    """numpy closure of t (a scalar or an ndarray) computing the AST."""
    if isinstance(node, Num):
        return lambda t, value=node.value: value
    if isinstance(node, Var):
        return lambda t: t
    if isinstance(node, Neg):
        operand = _closure(node.operand)
        return lambda t: -operand(t)
    if isinstance(node, Bin):
        op, a, b = _BINARY[node.op], _closure(node.left), _closure(node.right)
        return lambda t: op(a(t), b(t), t)
    if isinstance(node, Call):
        fn, arg = _FUNCTIONS[node.name], _closure(node.arg)
        return lambda t: fn(arg(t), t)
    raise AssertionError(type(node))


def _compile(node):
    """Compile an AST once into a function of t, a scalar or an ndarray.

    Overflow yields inf, which callers reject as non-finite; undefined
    operations raise EvalError naming the offending t.
    """
    return np.errstate(all="ignore")(_closure(node))


def evaluate(node, t):
    """Value of the expression at t, a scalar or an ndarray."""
    return _compile(node)(t)


def to_source(node):
    """Render an AST back to source; parse(to_source(e)) == e structurally
    while e is at most MAX_NESTING // 2 levels deep."""
    if isinstance(node, Num):
        return format(node.value, ".17g")
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        return f"(-{to_source(node.operand)})"
    if isinstance(node, Bin):
        return f"({to_source(node.left)}{node.op}{to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({to_source(node.arg)})"
    raise AssertionError(type(node))


# --- tokenizer / parser ----------------------------------------------------

# Nesting levels an expression may have: a parenthesis, a function call, a
# unary minus, a '^' and each operator of a chain such as t+t+t is one level
# above its operands.  A level costs the recursive parser at most five frames
# (expr at both of its ranks, unary, power, atom) and _closure, the compiled
# function and to_source one frame each, so parsing stays within about 500
# frames and the others within about 100 of Python's default recursion limit
# of 1000, which leaves the caller the rest.  Deeper input is a ParseError,
# not a RecursionError.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad]!r}", bad)
        group = m.lastgroup  # an operator is its own kind
        tokens.append((m.group(group) if group == "op" else group, m.group(group), m.start(group)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent.  Each rule returns (node, levels), the nesting levels
    of what it parsed; self.depth counts the levels open at the current token."""

    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], expected={kind})
        self.i += 1
        return tok

    def level(self, levels, tok):
        """levels, or a ParseError at tok if that is past MAX_NESTING."""
        if levels > MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", tok[2])
        return levels

    @contextmanager
    def below(self, tok):
        """One level down from tok; the body runs in the caller's frame."""
        self.depth = self.level(self.depth + 1, tok)
        yield
        self.depth -= 1

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected={"end"})
        return node

    def expr(self, ops="+-"):
        """ops '+-': a chain of terms; ops '*/': a term, a chain of unaries."""
        node, levels = self.expr("*/") if ops == "+-" else self.unary()
        while self.peek()[0] in ops:
            tok = self.take(self.peek()[0])
            right, up = self.expr("*/") if ops == "+-" else self.unary()
            node, levels = Bin(tok[0], node, right), self.level(max(levels, up) + 1, tok)
        return node, levels

    def unary(self):
        tok = self.peek()
        if tok[0] != "-":
            return self.power()
        self.take("-")
        with self.below(tok):
            node, levels = self.unary()
        return Neg(node), self.level(levels + 1, tok)

    def power(self):
        node, levels = self.atom()
        tok = self.peek()
        if tok[0] != "^":
            return node, levels
        self.take("^")
        # right-associative; the exponent may carry its own unary minus
        with self.below(tok):
            exponent, up = self.unary()
        return Bin("^", node, exponent), self.level(max(levels, up) + 1, tok)

    def atom(self):
        tok = self.peek()
        if tok[0] == "number":
            self.take("number")
            return Num(float(tok[1])), 0
        name = None
        if tok[0] == "name":
            self.take("name")
            if tok[1] == "t":
                return Var(), 0
            if tok[1] not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {tok[1]!r}", tok[2],
                                 expected={"t"} | set(_FUNCTIONS))
            name = tok[1]
        elif tok[0] != "(":
            raise ParseError(f"unexpected {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
                             tok[2], expected={"number", "t", "("})
        opening = self.take("(")
        with self.below(opening):
            node, levels = self.expr()
        self.take(")")
        return (node if name is None else Call(name, node)), self.level(levels + 1, opening)


def parse(source):
    """Parse an expression in the variable t into an AST."""
    return _Parser(source).parse()


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """A real function on [0,1] compiled from an AST.  source = to_source(node)
    is the one compared and hashed field, so equal sources are one cache key."""

    node: InitVar[object]
    source: str = field(init=False)
    fn: object = field(init=False, compare=False, repr=False)

    def __post_init__(self, node):
        object.__setattr__(self, "source", to_source(node))
        object.__setattr__(self, "fn", _compile(node))

    def __call__(self, t):
        return self.fn(t)


# The registry's aliases, each the expression of the same numpy operations
_ALIASES = {"id": Var(), "square": Bin("*", Var(), Var()), "expdec": Call("exp", Neg(Var()))}
_PARAMETRIC = {"const": lambda c: c, "absdev": lambda c: Call("abs", Bin("-", Var(), c)),
               "sin": lambda c: Call("sin", Bin("*", c, Var()))}


def builtin(name):
    """Look up a registry alias: id (t), square (t*t), expdec (exp(-t)), and
    const:c (c), absdev:c (abs(t-c)) and sin:a (sin(a*t)) with a parameter.
    An alias shares its expression's cache key."""
    if name in _ALIASES:
        return RealFunction(_ALIASES[name])
    head, _, arg = name.partition(":")
    if head in _PARAMETRIC:
        try:
            c = Num(float(arg))  # not re-parsed, so const:inf stays a numeric failure
        except ValueError:
            raise KeyError(f"bad parameter in builtin name {name!r}") from None
        return RealFunction(_PARAMETRIC[head](c))
    raise KeyError(f"unknown builtin function {name!r}")


def from_expression(source):
    """Compile an expression into a RealFunction."""
    return RealFunction(parse(source))


def resolve(text):
    """Resolve a CLI --f argument: registry alias first, expression otherwise."""
    try:
        return builtin(text)
    except KeyError:
        return from_expression(text)
