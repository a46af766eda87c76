import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import registry_samples
from qapprox.funcreg import (
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
    assert builtin("id").lipschitz == 1.0
    with pytest.raises(KeyError):
        builtin("nope")
    with pytest.raises(KeyError):
        builtin("const:xyz")


def test_registry_samples_total_on_unit_interval():
    for f in registry_samples():
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert math.isfinite(f(t))


def test_from_expression_and_resolve():
    f = from_expression("t^2+1")
    assert f(0.5) == pytest.approx(1.25)
    assert f.name == "t^2+1"
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
