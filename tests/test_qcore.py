import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import q_binomial, q_factorial

from qapprox.qcore import (
    as_q,
    NumericError,
    SeriesLimitError,
    TruncationPolicy,
    _q_binomial_row_cached,
    jackson_integral,
    log_q_pochhammer_inf,
    q_binomial_row,
    q_integer,
)

QS = [0.3, 0.6, 0.9, 1.0]


def test_q_integer_examples():
    assert q_integer(3, 0.5) == pytest.approx(1.75, abs=1e-15)
    assert q_integer(5, 1.0) == 5.0
    assert q_integer(0, 0.7) == 0.0
    # arrays broadcast: rows of n against columns of q
    got = q_integer(np.array([0, 1, 3, 10]), np.array([[0.5], [0.9]]))
    want = [[q_integer(n, q) for n in (0, 1, 3, 10)] for q in (0.5, 0.9)]
    assert np.allclose(got, want, rtol=4e-16, atol=0.0)
    for n, q in ((np.array([1, -1]), 0.5), (np.array([1, 2]), 1.0), (3, np.array([0.5, 0.0]))):
        with pytest.raises(ValueError):
            q_integer(n, q)


def test_q_factorial_examples():
    assert q_factorial(0, 0.5) == 1.0
    assert q_factorial(3, 1.0) == 6.0
    # direct multiplication oracle: 1 * 1.5 * 1.75
    assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)


def test_q_binomial_examples():
    assert q_binomial(2, 1, 0.5) == pytest.approx(1.5)
    assert q_binomial(4, 2, 0.5) == pytest.approx((1 + 0.25) * (1 + 0.5 + 0.25), rel=1e-14)
    assert q_binomial(5, 7, 0.9) == 0.0
    assert q_binomial(5, -1, 0.9) == 0.0


def brute_pascal(n, k, q):
    # independent of the production recurrence order
    if k < 0 or k > n:
        return 0.0
    if n == 0:
        return 1.0
    return brute_pascal(n - 1, k - 1, q) + q**k * brute_pascal(n - 1, k, q)


@pytest.mark.parametrize("q", QS)
def test_q_binomial_against_brute_force(q):
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k, q) == pytest.approx(brute_pascal(n, k, q), rel=1e-12)


@pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
def test_q_binomial_factorial_identity(q):
    for n in range(21):
        for k in range(n + 1):
            expect = q_factorial(n, q) / (q_factorial(k, q) * q_factorial(n - k, q))
            assert q_binomial(n, k, q) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 4)])
def test_q_binomial_row_against_exact_rows(q):
    # dyadic q is exact in a float, so the rows are exact rationals; the
    # cumulative product of ratios stays within a few ulps of them
    for n in (0, 1, 2, 3, 7, 50, 199, 200):
        row = [Fraction(1)]
        for k in range(n):
            row.append(row[-1] * (1 - q ** (n - k)) / (1 - q ** (k + 1)))
        got = q_binomial_row(n, float(q))
        assert len(got) == n + 1
        assert all(abs(Fraction(g) - r) <= 4e-15 * r for g, r in zip(got.tolist(), row))


def test_q_binomial_row_at_q1_is_exact():
    for n in (0, 1, 6, 7, 50):
        assert q_binomial_row(n, 1.0).tolist() == [math.comb(n, k) for k in range(n + 1)]


@given(
    n=st.integers(min_value=0, max_value=50),
    q=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_q_integer_recurrence(n, q):
    assert q_integer(n + 1, q) == pytest.approx(1.0 + q * q_integer(n, q), rel=1e-12, abs=1e-12)


@given(
    n=st.integers(min_value=0, max_value=60),
    u=st.floats(min_value=1.0, max_value=9.0, allow_nan=False),
)
def test_q_integer_matches_exact_sum_near_one(n, u):
    # 1 + q + ... + q^(n-1) in exact rational arithmetic on the float q;
    # (1 - q^n)/(1 - q) in floats loses up to 5e-9 of it near q = 1
    q = 1.0 - 10.0**-u
    exact = sum(Fraction(q) ** i for i in range(n))
    assert q_integer(n, q) == pytest.approx(float(exact), rel=2e-15, abs=0.0)


def test_q_pochhammer_examples():
    # direct product oracle
    expect = 1.0
    s = 0
    while 0.5**s * 0.3 > 1e-16:
        expect *= 1.0 - 0.5**s * 0.3
        s += 1
    assert math.exp(log_q_pochhammer_inf(0.3, 0.5)) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("x", [1e-3, 0.3, 0.5, 0.9, 0.995, 1 - 1e-6])
def test_log_q_pochhammer_inf_against_log_sum(q, x):
    # every logarithm of the product, summed exactly (agrees with 40-digit
    # arithmetic to 2e-15)
    terms, s = [], 0
    while x * q**s > 1e-18:
        terms.append(math.log1p(-x * q**s))
        s += 1
    assert log_q_pochhammer_inf(x, q) == pytest.approx(math.fsum(terms), rel=0, abs=1e-12)


def _exact_log_sum(x, q):
    # every logarithm of the product, summed exactly
    terms, s = [], 0
    while x * q**s > 1e-18:
        terms.append(math.log1p(-x * q**s))
        s += 1
    return math.fsum(terms)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_log_q_pochhammer_inf_array_form(q):
    # one common S for the whole array: each entry within an ulp or two of
    # its scalar call, which picks S from that x alone
    xs = np.array([[0.995, 1e-3, 0.3, 0.0], [0.5, 1 - 1e-6, 0.9, 0.3]])
    got = log_q_pochhammer_inf(xs, q)
    assert got.shape == xs.shape
    for x, v in zip(xs.ravel(), got.ravel()):
        scalar = log_q_pochhammer_inf(float(x), q)
        assert v == pytest.approx(scalar, rel=0, abs=2e-15 * max(1.0, abs(scalar)))
        assert v == pytest.approx(_exact_log_sum(x, q), rel=0, abs=1e-12)
    assert isinstance(log_q_pochhammer_inf(0.3, q), float)
    edges = log_q_pochhammer_inf(np.array([0.0, 1.0, 0.5]), q)
    assert edges[0] == 0.0 and edges[1] == -math.inf and np.isfinite(edges[2])
    with pytest.raises(NumericError):
        log_q_pochhammer_inf(np.array([0.5, 1.5, 0.0]), q)


def test_log_q_pochhammer_inf_vanishing_and_negative_factors():
    assert log_q_pochhammer_inf(1.0, 0.999) == -math.inf
    with pytest.raises(NumericError):
        log_q_pochhammer_inf(1.5, 0.9)


def test_q_binomial_row_overflow_is_a_numeric_error():
    assert np.all(np.isfinite(q_binomial_row(1029, 1.0)))
    with pytest.raises(NumericError):
        q_binomial_row(1030, 1.0)


def test_q_pochhammer_infinite_rejects_q1():
    with pytest.raises(ValueError):
        log_q_pochhammer_inf(0.3, 1.0)


def test_jackson_examples():
    assert jackson_integral(lambda t: 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert jackson_integral(lambda t: t, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert jackson_integral(lambda t: t * t, 0.5) == pytest.approx(4.0 / 7.0, rel=1e-13)


@pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("m", range(7))
def test_jackson_monomials(q, m):
    # analytically int t^m d_q t = 1/[m+1]_q
    got = jackson_integral(lambda t: t**m, q)
    assert got == pytest.approx(1.0 / q_integer(m + 1, q), rel=1e-12)


def test_classical_branch_agrees():
    assert q_binomial(10, 4, 1.0) == math.comb(10, 4)
    assert jackson_integral(lambda t: t**3, 1.0) == pytest.approx(0.25, abs=1e-10)


def test_deterministic_bitwise():
    f = lambda t: math.sin(3 * t) + t**2
    a = jackson_integral(f, 0.7)
    b = jackson_integral(f, 0.7)
    assert a == b


def test_binomial_row_cache_is_bounded():
    for i in range(300):  # 300 distinct (n, q)
        q_binomial_row(5 + i % 30, 0.3 + 0.002 * i)
    info = _q_binomial_row_cached.cache_info()
    assert info.maxsize == 128 and info.currsize <= 128


def test_max_terms_exhaustion_signals():
    tight = TruncationPolicy(rel_eps=1e-14, max_terms=5)
    with pytest.raises(SeriesLimitError):
        jackson_integral(lambda t: t, 0.9, tight)
    with pytest.raises(SeriesLimitError):
        log_q_pochhammer_inf(0.9, 0.99, tight)


def test_parameter_validation():
    with pytest.raises(ValueError):
        as_q(0.0)
    with pytest.raises(ValueError):
        as_q(1.5)
    for rel_eps in (0.0, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TruncationPolicy(rel_eps=rel_eps)
    with pytest.raises(ValueError):
        TruncationPolicy(max_terms=0)
    with pytest.raises(ValueError):
        q_integer(-1, 0.5)
