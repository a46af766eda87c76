import math
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from qapprox import moments
from qapprox.durrmeyer import StancuParams
from qapprox.statconv import (
    CLASSICAL_PAIR,
    _monomial_errors,
    ONES,
    AlphaBetaPair,
    DensityQuery,
    WeightSequence,
    ab_stat_trajectory,
    empirical_density,
    korovkin_harness,
    qn_sequence,
    weighted_mean,
    weighted_trajectory,
    window,
)
from qapprox.qcore import BLOCK_ENTRIES, q_integer


def is_square(k):
    """Squares among the int64 indices k, against the exact squares up to max(k)."""
    return np.isin(k, np.arange(math.isqrt(int(k.max(initial=0))) + 1) ** 2)


def test_window_examples():
    assert list(window(CLASSICAL_PAIR, 10)) == list(range(1, 11))
    assert list(window(AlphaBetaPair(lambda n: n, lambda n: 2 * n), 5)) == list(range(5, 11))
    assert list(window(AlphaBetaPair(lambda n: n * n, lambda n: n * n + n), 4)) == list(
        range(16, 21)
    )
    # real-valued endpoints round inward
    assert list(window(AlphaBetaPair(lambda n: n / 2, lambda n: 2.5 * n), 3)) == list(
        range(2, 8)
    )
    with pytest.raises(ValueError):
        window(AlphaBetaPair(lambda n: 10.6, lambda n: 10.4), 1)


def test_pair_validation():
    CLASSICAL_PAIR.validate_on(range(1, 50))
    with pytest.raises(ValueError):
        AlphaBetaPair(lambda n: -n, lambda n: n).validate_on(range(1, 20))
    with pytest.raises(ValueError):
        # constant-width window: beta - alpha never grows
        AlphaBetaPair(lambda n: n * n, lambda n: n * n + 5).validate_on(range(1, 20))


def test_empirical_density_examples():
    q = DensityQuery(members=lambda k: k % 3 == 0)
    assert empirical_density(q, 10) == pytest.approx(0.3)
    q = DensityQuery(gamma=0.5, members=is_square)
    assert empirical_density(q, 100) == pytest.approx(1.0)
    q = DensityQuery(members=lambda k: False)
    assert empirical_density(q, 1000) == 0.0


def test_density_bounds_and_monotonicity():
    small = DensityQuery(gamma=0.7, members=is_square)
    larger = DensityQuery(gamma=0.7, members=lambda k: is_square(k) | (k % 7 == 0))
    for n in (10, 100, 1000):
        a, b = empirical_density(small, n), empirical_density(larger, n)
        assert 0.0 <= a <= b <= n ** (1 - 0.7) + 1e-12


def test_density_union_subadditive():
    A = lambda k: k % 4 == 0
    B = lambda k: k % 6 == 0
    for n in (10, 50, 500):
        dq = lambda members: empirical_density(DensityQuery(gamma=0.8, members=members), n)
        assert dq(lambda k: A(k) | B(k)) <= dq(A) + dq(B) + 1e-12


def test_trajectory_examples():
    const = lambda k: 4.2
    assert ab_stat_trajectory(const, 4.2, 0.1, DensityQuery(), [10, 100]) == [0.0, 0.0]
    ind = lambda k: np.where(is_square(k), 1.0, 0.0)
    assert ab_stat_trajectory(ind, 0.0, 0.5, DensityQuery(), [10**4]) == [
        pytest.approx(0.01)
    ]
    assert ab_stat_trajectory(ind, 0.0, 0.5, DensityQuery(gamma=0.5), [10**4]) == [
        pytest.approx(1.0)
    ]
    with pytest.raises(ValueError):
        ab_stat_trajectory(const, 0.0, 0.0, DensityQuery(), [10])


def test_weighted_trajectory_examples():
    recip = lambda k: 1.0 / k
    # |{k <= 100 : 1/k >= 0.1}| = 10
    assert weighted_trajectory(recip, 0.0, 0.1, DensityQuery(), ONES, [100]) == [
        pytest.approx(0.1)
    ]
    const = lambda k: 2.0
    heavy = WeightSequence(s=lambda k: 1.0 + k)
    assert weighted_trajectory(const, 2.0, 0.5, DensityQuery(), heavy, [50]) == [0.0]


def test_weighted_reduces_to_unweighted_bitwise():
    ind = lambda k: np.where(is_square(k), 1.0, 0.0)
    for gamma in (1.0, 0.5):
        q = DensityQuery(gamma=gamma)
        ns = [10, 100, 1000, 10**4]
        assert weighted_trajectory(ind, 0.0, 0.5, q, ONES, ns) == ab_stat_trajectory(
            ind, 0.0, 0.5, q, ns
        )


def test_weighted_mean_examples():
    assert weighted_mean(lambda k: 3.3, ONES, DensityQuery(), 17) == pytest.approx(3.3)
    assert weighted_mean(lambda k: k.astype(float), ONES, DensityQuery(), 4) == pytest.approx(2.5)
    # s_k = k on the window (k >= 1); s_0 only exists to satisfy s_0 > 0
    kw = WeightSequence(s=lambda k: np.where(k != 0, k, 1.0))
    got = weighted_mean(lambda k: 1.0, kw, DensityQuery(gamma=0.5), 3)
    assert got == pytest.approx(math.sqrt(6.0))


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSequence(s=lambda k: 0.0)
    with pytest.raises(ValueError):
        WeightSequence(s=lambda k: math.nan)
    # s_0 > 0 but S_n nan on the window: no silent nan density or mean
    nan_late = WeightSequence(s=lambda k: np.where(k < 5, 1.0, math.nan))
    with pytest.raises(ValueError, match="S_n"):
        weighted_trajectory(lambda k: 1.0, 0.0, 0.5, DensityQuery(), nan_late, [10])
    with pytest.raises(ValueError, match="S_n"):
        weighted_mean(lambda k: 1.0, nan_late, DensityQuery(), 10)
    with pytest.raises(ValueError):
        DensityQuery(gamma=0.0)
    with pytest.raises(ValueError):
        DensityQuery(gamma=1.5)


def test_qn_sequence():
    assert float(qn_sequence(0.5, 1)) == 0.5
    assert float(qn_sequence(0.5, 4)) == pytest.approx(0.5**0.25)
    for n in (1, 7, 100, 5000):
        assert float(qn_sequence(0.5, n)) ** n == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        qn_sequence(1.0, 5)
    with pytest.raises(ValueError):
        qn_sequence(0.5, 0)


def test_qn_growth():
    prev_q = 0.0
    prev_nq = 0.0
    for n in (1, 2, 5, 20, 100, 1000, 10**5):
        qn = float(qn_sequence(0.3, n))
        nq = q_integer(n, qn)
        assert qn > prev_q
        assert nq > prev_nq
        prev_q, prev_nq = qn, nq
    # [n]_{q_n} grows ~ n (1-a)/ln(1/a); spot the crude lower bound
    n = 10**5
    nq = q_integer(n, float(qn_sequence(0.3, n)))
    assert nq > n / 2 * (1 - 0.3) / math.log(1 / 0.3)
    assert 1.0 / nq < 1e-4  # 1/[n]_{q_n} -> 0


def test_korovkin_harness_small():
    xs = [i / 20 for i in range(21)]
    ns = [20, 40, 80]
    report = korovkin_harness(
        0.5, StancuParams(), ns, xs, query=DensityQuery(), eps_list=[0.01]
    )
    assert all(e <= 1e-10 for e in report.errors[0])
    assert report.errors[1][0] > report.errors[1][1] > report.errors[1][2]
    assert report.errors[2][0] > report.errors[2][1] > report.errors[2][2]
    assert report.columns() == [
        "n", "qn", "e0", "e1", "e2",
        "dens0_eps0.01", "dens1_eps0.01", "dens2_eps0.01",
    ]
    rows = report.rows()
    assert len(rows) == 3 and len(rows[0]) == 8
    # e0 never exceeds eps, so its density trajectory is identically zero
    assert report.densities[(0, 0.01)] == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        korovkin_harness(0.5, StancuParams(), [80, 40], xs)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_eps_must_be_finite_and_positive(eps):
    with pytest.raises(ValueError, match="eps"):
        ab_stat_trajectory(lambda k: 1.0, 0.0, eps, DensityQuery(), [10])
    with pytest.raises(ValueError, match="eps"):
        weighted_trajectory(lambda k: 1.0, 0.0, eps, DensityQuery(), ONES, [10])
    with pytest.raises(ValueError, match="eps"):
        korovkin_harness(0.5, StancuParams(), [10, 20], [0.0, 1.0], eps_list=[0.1, eps])


PAIRS = [
    CLASSICAL_PAIR,
    AlphaBetaPair(lambda n: n, lambda n: 2 * n),
    AlphaBetaPair(lambda n: n * n, lambda n: n * n + n),
]


def _sequences(integral):
    """(x, weights): integer-valued (sums exact in float64) or irrational."""
    if integral:
        return (lambda k: (k % 7 - 3).astype(float)), WeightSequence(s=lambda k: k % 5 + 1.0)
    return (lambda k: 1.0 + np.sin(k)), WeightSequence(s=lambda k: 0.5 + 1.0 / (1.0 + k))


def _assert_matches_references(pair, ns, gamma, integral, ell, eps):
    x, weights = _sequences(integral)
    query = DensityQuery(pair=pair, gamma=gamma, members=lambda k: (k % 3 == 0) | (k % 5 == 1))
    rel = 0.0 if integral else 1e-13
    for n in ns:
        assert empirical_density(query, n) == oracles.empirical_density(query, n)
        want = oracles.weighted_mean(x, weights, query, n)
        assert weighted_mean(x, weights, query, n) == pytest.approx(want, rel=rel, abs=0.0)
    want = oracles.weighted_trajectory(x, ell, eps, query, weights, ns)
    assert weighted_trajectory(x, ell, eps, query, weights, ns) == pytest.approx(
        want, rel=rel, abs=0.0
    )
    assert ab_stat_trajectory(x, ell, eps, query, ns) == oracles.weighted_trajectory(
        x, ell, eps, query, ONES, ns
    )


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(PAIRS),
    ns=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True).map(sorted),
    gamma=st.floats(0.05, 1.0),
    integral=st.booleans(),
    ell=st.floats(-1.0, 1.0),
    eps=st.floats(0.01, 4.0),
)
def test_blocked_pass_matches_scalar_references(pair, ns, gamma, integral, ell, eps):
    _assert_matches_references(pair, ns, gamma, integral, ell, eps)


@pytest.mark.parametrize("integral", [True, False])
def test_blocked_pass_across_a_block_boundary(integral):
    # P_1 = [1, 2] puts the pass's first block at [1, 1 + BLOCK_ENTRIES), and
    # P_512 = [512^2, 512^2 + 512] straddles its end
    m = math.isqrt(BLOCK_ENTRIES)
    assert m * m <= 1 + BLOCK_ENTRIES <= m * m + m
    _assert_matches_references(PAIRS[2], [1, m], 0.75, integral, 0.5, 0.3)


def test_density_working_set_is_bounded():
    query = DensityQuery(members=lambda k: k % 3 == 0)
    tracemalloc.start()
    try:
        value = empirical_density(query, 5 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1666666 / 5e6
    assert peak < 32 * 2**20


def test_sequences_are_called_once_per_block():
    sizes = []

    def members(k):
        sizes.append(len(k))
        return k % 2 == 0

    n = 2 * BLOCK_ENTRIES + 5
    assert empirical_density(DensityQuery(members=members), n) == (n // 2) / n
    assert len(sizes) <= math.ceil(n / BLOCK_ENTRIES) and sum(sizes) == n

    sizes.clear()
    ns = [BLOCK_ENTRIES // 2, n]  # nested windows: one pass over [1, n]
    weighted_trajectory(lambda k: members(k) * 1.0, 0.0, 0.5, DensityQuery(), ONES, ns)
    assert len(sizes) <= math.ceil(n / BLOCK_ENTRIES) and sum(sizes) == n


def test_monomial_errors_take_one_set_of_q_integers_per_row_block(monkeypatch):
    xs = np.linspace(0.0, 1.0, 101)
    ks = np.arange(1, 6001, dtype=np.int64)
    blocks = -(-len(ks) // (BLOCK_ENTRIES // len(xs)))
    assert blocks == 3
    calls = []
    inner = moments.q_integer
    monkeypatch.setattr(moments, "q_integer", lambda n, q: calls.append(n) or inner(n, q))
    _monomial_errors(0.5, StancuParams(1.0, 2.0), ks, xs)
    assert len(calls) == 4 * blocks  # [n], [n+2], [n+3] and [3], not once per monomial
