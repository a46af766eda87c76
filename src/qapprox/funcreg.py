"""Test-function registry and a small arithmetic expression parser.

Grammar (precedence low to high: + - < * / < unary - < ^, with ^ binding
right-associatively):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'

NAME is one of abs, exp, sin, cos, sqrt.  Numbers are decimal literals;
scientific notation is accepted.  An expression compiles once to a numpy
function of t that evaluates a whole array of t in one call.  Expressions
are only evaluated on [0, 1]; division by zero, a negative sqrt argument or
an undefined power is a runtime evaluation error reporting the offending t,
while overflow yields inf.

Every test function f takes an ndarray t and returns an array of its shape
or a scalar, which callers broadcast (``lambda t: 1.0`` is a valid f).
"""

import re
from dataclasses import dataclass
from typing import Optional

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
    """Render an AST back to source; parse(to_source(e)) == e structurally."""
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
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], expected={kind})
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected={"end"})
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take("-")
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            # right-associative; the exponent may carry its own unary minus
            return Bin("^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "number":
            self.take("number")
            return Num(float(tok[1]))
        if tok[0] == "name":
            self.take("name")
            if tok[1] == "t":
                return Var()
            if tok[1] in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Call(tok[1], arg)
            raise ParseError(
                f"unknown identifier {tok[1]!r}",
                tok[2],
                expected={"t"} | set(_FUNCTIONS),
            )
        if tok[0] == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(
            f"unexpected {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
            tok[2],
            expected={"number", "t", "("},
        )


def parse(source):
    """Parse an expression in the variable t into an AST."""
    return _Parser(source).parse()


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """A named real-valued function on [0,1] with optional Lipschitz metadata."""

    name: str
    fn: object
    lipschitz: Optional[float] = None

    def __call__(self, t):
        return self.fn(t)


def _builtin_table():
    return {
        "id": lambda: RealFunction("id", lambda t: t, lipschitz=1.0),
        "square": lambda: RealFunction("square", lambda t: t * t, lipschitz=2.0),
        "expdec": lambda: RealFunction("expdec", lambda t: np.exp(-t), lipschitz=1.0),
    }


def builtin(name):
    """Look up a registry function; const:c, absdev:c and sin:a take a parameter."""
    table = _builtin_table()
    if name in table:
        return table[name]()
    if ":" in name:
        head, _, arg = name.partition(":")
        try:
            c = float(arg)
        except ValueError:
            raise KeyError(f"bad parameter in builtin name {name!r}") from None
        if head == "const":
            return RealFunction(name, lambda t, c=c: c, lipschitz=0.0)
        if head == "absdev":
            return RealFunction(name, lambda t, c=c: abs(t - c), lipschitz=1.0)
        if head == "sin":
            return RealFunction(name, lambda t, c=c: np.sin(c * t), lipschitz=abs(c))
    raise KeyError(f"unknown builtin function {name!r}")


def from_expression(source):
    """Compile an expression into a RealFunction."""
    return RealFunction(source, _compile(parse(source)))


def resolve(text):
    """Resolve a CLI --f argument: registry name first, expression otherwise."""
    try:
        return builtin(text)
    except KeyError:
        return from_expression(text)


def registry_samples():
    """A small cross-section of registry functions for property tests."""
    return [
        builtin("const:2"),
        builtin("id"),
        builtin("square"),
        builtin("absdev:0.5"),
        builtin("absdev:0.3"),
        builtin("expdec"),
        builtin("sin:3"),
    ]
