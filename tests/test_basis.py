import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import direct_basis, scan_basis_matrix
from qapprox import limit_basis_identity_sums
from qapprox.basis import basis_matrix, basis_row, limit_basis, log_limit_basis

QS = [0.3, 0.6, 0.9, 1.0]
XS = np.linspace(0.0, 1.0, 101)


def test_bernstein_examples():
    # C(2,1)_q x (1-x)_q^1 = 1.5 * 0.5 * 0.5
    assert basis_row(2, 0.5, 0.5)[1] == pytest.approx(0.375, rel=1e-14)
    assert basis_row(4, 0.5, 0.3)[2] == pytest.approx(direct_basis(4, 2, 0.5, 0.3), rel=1e-13)


@pytest.mark.parametrize("q", QS)
def test_basis_row_against_direct_products(q):
    for n in (1, 3, 7, 12):
        for x in (0.0, 0.2, 0.5, 0.9, 1.0):
            row = basis_row(n, q, x)
            for k in range(n + 1):
                assert row[k] == pytest.approx(direct_basis(n, k, q, x), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q", QS)
def test_partition_of_unity(q):
    for n in range(1, 31):
        for x in XS:
            row = basis_row(n, q, x)
            assert np.all(row >= 0.0)
            assert np.sum(row) == pytest.approx(1.0, abs=1e-12)


def test_endpoint_degeneracy():
    row = basis_row(6, 0.7, 0.0)
    assert row[0] == 1.0 and np.all(row[1:] == 0.0)
    row = basis_row(6, 0.7, 1.0)
    assert row[6] == pytest.approx(1.0, rel=1e-14)
    assert np.sum(row[:6]) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        basis_row(5, 0.5, 1.2)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 1300),
    st.one_of(st.floats(0.0, 0.999, exclude_min=True), st.just(1.0)),
    st.lists(st.floats(0.0, 1.0 - 1e-12), max_size=5),
)
@example(1300, 0.999, [0.5, 0.999])
@example(1000, 1.0, [0.5])
@example(1, 0.5, [])
def test_column_limit_keeps_the_bits_of_the_scan(n, q, extra):
    if q == 1.0:
        n = min(n, 1000)  # C(n, n/2) overflows a float from n = 1030
    xs = np.array([0.0, 1.0, 1.0 - 1e-12] + extra)
    full = scan_basis_matrix(n, q, xs)
    assert np.array_equal(basis_matrix(n, q, xs), full)
    for K in range(n + 1):
        assert np.array_equal(basis_matrix(n, q, xs, K), full[:, : K + 1])
    for K in (-1, n + 1):
        with pytest.raises(ValueError, match="k_max"):
            basis_matrix(n, q, xs, K)


def test_limit_basis_boundaries():
    assert limit_basis(0, 0.5, 0.0) == 1.0
    assert limit_basis(3, 0.5, 0.0) == 0.0
    assert limit_basis(0, 0.5, 1.0) == 0.0
    assert log_limit_basis(2, 0.5, 1.0) == -math.inf
    for k, q, x in ((3, 1.0, 0.2), (-1, 0.5, 0.2), (1, 0.5, 1.2)):  # q = 1, k < 0, x > 1
        with pytest.raises(ValueError):
            limit_basis(k, q, x)


def test_limit_basis_direct_oracle():
    # p_inf,k(q;x) = x^k / prod_{i<=k}(1-q^i) * prod_{s>=0}(1-q^s x)
    q, x, k = 0.5, 0.3, 2
    ck = (1 - q) * (1 - q**2)
    pi = 1.0
    s = 0
    while q**s * x > 1e-18:
        pi *= 1.0 - q**s * x
        s += 1
    assert limit_basis(k, q, x) == pytest.approx(x**k / ck * pi, rel=1e-12)


def test_limit_basis_survives_q_near_one():
    # the raw Euler products underflow here; the log-space value must not
    v = limit_basis(5, 0.999, 0.5)
    assert 0.0 <= v <= 1.0
    assert math.isfinite(log_limit_basis(5, 0.999, 0.5))


@pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("x", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
def test_limit_identity_sums(q, x):
    s0, s1, s2 = limit_basis_identity_sums(q, x)
    assert s0 == pytest.approx(1.0, abs=1e-10)
    assert s1 == pytest.approx(x, abs=1e-10)
    assert s2 == pytest.approx(x**2 + (1 - q) * x * (1 - x), abs=1e-10)


def test_identity_sum_spot_values():
    # weighted sums at q=0.5, x=0.75: s1 = 0.75, s2 = 0.75^2 + 0.5*0.75*0.25
    _, s1, s2 = limit_basis_identity_sums(0.5, 0.75)
    assert s1 == pytest.approx(0.75, abs=1e-10)
    assert s2 == pytest.approx(0.65625, abs=1e-10)

