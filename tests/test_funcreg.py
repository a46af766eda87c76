import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import builtin_lambda, registry_samples
from qapprox.funcreg import (
    MAX_NESTING,
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    builtin,
    evaluate,
    from_expression,
    parse,
    resolve,
    to_source,
)


@pytest.mark.parametrize(
    "source,t,expect",
    [
        ("t^2 + 0.5", 0.5, 0.75),
        ("abs(t-0.5)", 0.0, 0.5),
        ("1-2*t", 1.0, -1.0),  # precedence: * before -
        ("2*t^2", 0.5, 0.5),  # ^ before *
        ("-t^2", 1.0, -1.0),  # ^ binds tighter than unary minus
        ("2^-1", 0.0, 0.5),  # unary minus allowed in the exponent
        ("2^3^2", 0.0, 512.0),  # right-associative power
        ("1-2-3", 0.0, -4.0),  # left-associative subtraction
        ("8/4/2", 0.0, 1.0),
        ("sin(0)", 0.3, 0.0),
        ("cos(0)*exp(0)", 0.3, 1.0),
        ("sqrt(t)", 0.25, 0.5),
        ("(1+t)*(1-t)", 0.5, 0.75),
        ("1e-1 + .5", 0.0, 0.6),
    ],
)
def test_parse_and_evaluate(source, t, expect):
    assert evaluate(parse(source), t) == pytest.approx(expect, abs=1e-14)


def test_parse_errors_are_structured():
    with pytest.raises(ParseError) as err:
        parse("t +")
    assert err.value.position == 3
    assert err.value.expected
    with pytest.raises(ParseError) as err:
        parse("foo(t)")
    assert "foo" in str(err.value)
    assert "t" in err.value.expected
    with pytest.raises(ParseError):
        parse("t @ 2")
    with pytest.raises(ParseError) as err:
        parse("t t")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("sin t")


def test_eval_errors():
    with pytest.raises(EvalError) as err:
        evaluate(parse("sqrt(t-0.5)"), 0.2)
    assert "0.2" in str(err.value)
    with pytest.raises(EvalError):
        evaluate(parse("1/t"), 0.0)


# recursive AST strategy for round-trip and differential tests
_ast = st.deferred(
    lambda: st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(abs)),
        st.builds(Var),
        st.builds(Neg, _ast),
        st.builds(Bin, st.sampled_from("+-*"), _ast, _ast),
        st.builds(Call, st.sampled_from(["abs", "sin", "cos"]), _ast),
    )
)


@given(_ast)
def test_round_trip(node):
    assert parse(to_source(node)) == node


def oracle(node, t):
    # straightforward independent tree walk
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -oracle(node.operand, t)
    if isinstance(node, Bin):
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
        return ops[node.op](oracle(node.left, t), oracle(node.right, t))
    return {"abs": abs, "sin": math.sin, "cos": math.cos}[node.name](oracle(node.arg, t))


@given(_ast, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_differential_evaluation(node, t):
    want = oracle(node, t)
    assert evaluate(node, t) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert evaluate(parse(to_source(node)), t) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_builtins():
    assert builtin("id")(0.3) == 0.3
    assert builtin("const:2")(0.77) == 2.0
    assert builtin("absdev:0.5")(0.1) == pytest.approx(0.4)
    assert builtin("square")(0.4) == pytest.approx(0.16)
    assert builtin("expdec")(0.0) == 1.0
    assert builtin("sin:3")(0.5) == pytest.approx(math.sin(1.5))
    with pytest.raises(KeyError):
        builtin("nope")
    with pytest.raises(KeyError):
        builtin("const:xyz")


PARAMETERS = ("0", "-0", "0.5", "0.3", "-2.5", "3", "40", "1e-300")


@pytest.mark.parametrize("name", ["id", "square", "expdec"]
                         + [f"{head}:{c}" for head in ("const", "absdev", "sin") for c in PARAMETERS])
def test_builtins_equal_their_lambdas_bitwise(name):
    ts = np.concatenate((np.linspace(0.0, 1.0, 10001), 0.99 ** np.arange(1000), [1e-300, 5e-324]))
    got, want = builtin(name), builtin_lambda(name)
    for t in (ts, 0.0, 0.37, 1.0):
        g, w = np.broadcast_arrays(got(t), want(t))
        assert g.tobytes() == w.tobytes()


def test_equal_sources_are_one_key():
    assert builtin("sin:3") == resolve("sin(3*t)")
    assert hash(builtin("sin:3")) == hash(resolve("sin(3*t)"))
    assert resolve("t^2") == resolve("t ^ 2") != resolve("t*t") == builtin("square")
    assert builtin("const:0") != builtin("const:-0")  # the sources 0 and -0


NESTED = {
    "parentheses": lambda m: "(" * m + "t" + ")" * m,
    "calls": lambda m: "abs(" * m + "t" + ")" * m,
    "unary minus": lambda m: "-" * m + "t",
    "powers": lambda m: "t" + "^t" * m,
    "sum": lambda m: "t" + "+t" * m,
    "product": lambda m: "t" + "*t" * m,
}


@pytest.mark.parametrize("form", NESTED)
def test_nesting_cap(form):
    # at the cap, parse, to_source, compile and evaluation run; one level
    # more is a ParseError at the token that opens it, the last one
    f = from_expression(NESTED[form](MAX_NESTING))
    assert np.all(np.isfinite(f(np.array([0.0, 0.5, 1.0]))))
    source = NESTED[form](MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nested") as err:
        parse(source)
    assert err.value.position == max(source.rfind(c) for c in "(-^+*")
    with pytest.raises(ParseError):
        parse(NESTED[form](1500))


def test_registry_samples_total_on_unit_interval():
    for f in registry_samples():
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert math.isfinite(f(t))


def test_from_expression_and_resolve():
    f = from_expression("t^2+1")
    assert f(0.5) == pytest.approx(1.25)
    assert f.source == "((t^2)+1)"
    assert resolve("id")(0.4) == 0.4  # registry wins
    assert resolve("t*3")(0.4) == pytest.approx(1.2)  # expression fallback


def test_array_evaluation_and_errors():
    ts = np.array([0.5, 0.0, 1.0])
    assert np.array_equal(evaluate(parse("2*t"), ts), 2 * ts)
    with pytest.raises(EvalError) as err:
        evaluate(parse("1/t"), ts)
    assert "t=0.0" in str(err.value)
    with pytest.raises(EvalError) as err:
        evaluate(parse("(t-0.4)^0.5"), ts)
    assert "t=0.0" in str(err.value)
    # overflow is not an evaluation error: it yields inf for the caller to reject
    assert evaluate(parse("exp(1000*t)"), ts)[2] == math.inf
