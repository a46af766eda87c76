import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    classical_coefficients,
    coefficient_finite,
    direct_basis,
    full_row_columns,
    jackson_coefficients,
    limit_jackson_coefficients,
    log_limit_row,
    registry_samples,
    scan_basis_matrix,
)
from qapprox import durrmeyer, limit_basis_identity_sums
from qapprox.analysis import GridSpec
from qapprox.basis import (
    INFINITE,
    _euler_table,
    basis_row,
    limit_basis,
)
from qapprox.durrmeyer import (
    BLOCK_WIDEN,
    GRID_ENTRIES,
    GRID_TAIL,
    OperatorSpec,
    StancuParams,
    apply,
    apply_finite,
    apply_limit,
    finite_coefficients,
    finite_inner,
    limit_coefficients,
    limit_inner,
    _finite_columns,
    _limit_columns,
    _limit_plan,
    _RULE_T,
    _RULE_W,
    _column_limits,
    _series_cap,
)
from qapprox.funcreg import from_expression, resolve
from qapprox.moments import MONOMIALS, finite_moment, limit_moment
from qapprox.qcore import (
    DEFAULT_POLICY,
    NumericError,
    QApproxError,
    SeriesLimitError,
    TruncationPolicy,
    q_binomial_row,
    q_integer,
)

SPECS = [
    OperatorSpec(3, 0.5),
    OperatorSpec(5, 0.8, StancuParams(1.0, 2.0)),
    OperatorSpec(10, 0.95),
    OperatorSpec(4, 1.0, StancuParams(0.5, 3.0)),
    OperatorSpec(INFINITE, 0.5),
    OperatorSpec(INFINITE, 0.9, StancuParams(1.0, 2.0)),
]
XS = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


def test_stancu_validation():
    StancuParams(0.0, 0.0)
    StancuParams(1.0, 2.0)
    with pytest.raises(ValueError):
        StancuParams(2.0, 1.0)
    with pytest.raises(ValueError):
        StancuParams(-1.0, 2.0)
    for varpi, vartheta in ((0.0, math.inf), (math.inf, math.inf), (0.0, math.nan), (-math.inf, 1.0)):
        with pytest.raises(ValueError):
            StancuParams(varpi, vartheta)
    with pytest.raises(ValueError):
        OperatorSpec(INFINITE, 1.0)
    with pytest.raises(ValueError):
        OperatorSpec(0, 0.5)


def test_inner_arguments():
    spec = OperatorSpec(5, 0.8, StancuParams(1.0, 2.0))
    nq = q_integer(5, 0.8)
    assert finite_inner(spec, 0.5) == pytest.approx((nq * 0.5 + 1.0) / (nq + 2.0))
    st = StancuParams(1.0, 2.0)
    assert limit_inner(0.9, st, 0.5) == pytest.approx((0.5 + 0.1) / (1.0 + 0.2))
    # clamped to [0,1] at both ends
    assert 0.0 <= limit_inner(0.9, st, 1.0) <= 1.0


def test_classical_coefficient_oracle():
    # (n+1) * int_0^1 t * p_21(t) dt with p_21 = 2t(1-t): 3 * 2*(1/3 - 1/4)
    spec = OperatorSpec(2, 1.0)
    assert coefficient_finite(spec, 1, lambda t: t) == pytest.approx(0.5, abs=1e-10)


def test_classical_apply_oracle():
    # classical Durrmeyer first moment (nx+1)/(n+2)
    spec = OperatorSpec(3, 1.0)
    assert apply_finite(spec, lambda t: t, 0.5) == pytest.approx(0.5, abs=1e-10)
    assert apply_finite(spec, lambda t: t, 0.2) == pytest.approx(1.6 / 5.0, abs=1e-10)


def test_coefficient_against_jackson_partial_sum():
    # independent partial-sum oracle at the spec'd example point
    n, q, k = 5, 0.8, 3
    spec = OperatorSpec(n, q, StancuParams(1.0, 2.0))
    nq = q_integer(n, q)
    acc = 0.0
    for j in range(400):
        t = q**j
        acc += q**j * ((nq * t + 1.0) / (nq + 2.0)) * direct_basis(n, k, q, q * t)
    expect = q_integer(n + 1, q) * q ** (-k) * (1.0 - q) * acc
    assert coefficient_finite(spec, k, lambda t: t) == pytest.approx(expect, rel=1e-12)
    assert finite_coefficients(spec, lambda t: t)[k] == pytest.approx(expect, rel=1e-10)


def test_limit_coefficient_against_jackson_partial_sum():
    q, k = 0.5, 1
    spec = OperatorSpec(INFINITE, q)
    acc = 0.0
    for j in range(200):
        t = q**j
        acc += q**j * t * limit_basis(k, q, q * t)
    expect = q ** (-k) / (1.0 - q) * (1.0 - q) * acc
    assert limit_coefficients(spec, lambda t: t)[k] == pytest.approx(expect, rel=1e-11)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_constant_reproduction(spec):
    for x in XS:
        assert apply(spec, lambda t: 1.0, x) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_linearity(spec):
    f, g = registry_samples()[2], registry_samples()[5]
    a, b = 1.7, -0.4
    for x in (0.2, 0.5, 0.8):
        combo = apply(spec, lambda t: a * f(t) + b * g(t), x)
        split = a * apply(spec, f, x) + b * apply(spec, g, x)
        assert combo == pytest.approx(split, abs=1e-11)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_positivity(spec):
    for f in (lambda t: (t - 0.5) ** 2, lambda t: abs(t - 0.3)):
        for x in XS:
            assert apply(spec, f, x) >= -1e-14


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_monotonicity(spec):
    f = registry_samples()[3]
    g = lambda t: f(t) + 0.25 * t + 0.1  # f <= g pointwise by construction
    for x in (0.1, 0.5, 0.9):
        assert apply(spec, f, x) <= apply(spec, g, x) + 1e-11


def test_range_preservation():
    # varpi = vartheta = 0: values stay within [min f, max f]
    f = registry_samples()[3]  # absdev:0.5, range [0, 0.5]
    for n in range(1, 11):
        spec = OperatorSpec(n, 0.7)
        for x in XS:
            v = apply_finite(spec, f, x)
            assert -1e-12 <= v <= 0.5 + 1e-12


def test_limit_first_moment_example():
    spec = OperatorSpec(INFINITE, 0.9)
    assert apply_limit(spec, lambda t: t, 0.5) == pytest.approx(0.55, abs=1e-10)


def test_limit_q_to_one_sweep():
    # D_inf(t^2; x) -> x^2 as q -> 1
    x = 0.4
    errs = []
    for q in (0.9, 0.99, 0.999):
        spec = OperatorSpec(INFINITE, q)
        errs.append(abs(apply_limit(spec, lambda t: t * t, x) - x * x))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_limit_boundary_x1_continuity():
    # value at x = 1 continues the x -> 1- limit; gap shrinks ~ (1 - x)
    spec = OperatorSpec(INFINITE, 0.6, StancuParams(1.0, 2.0))
    f = registry_samples()[2]
    at_one = apply_limit(spec, f, 1.0)
    gaps = [abs(apply_limit(spec, f, x) - at_one) for x in (0.99, 0.999, 0.9999)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_dispatch_and_domain_errors():
    finite = OperatorSpec(3, 0.5)
    limit = OperatorSpec(INFINITE, 0.5)
    with pytest.raises(ValueError):
        apply_finite(limit, lambda t: t, 0.5)
    with pytest.raises(ValueError):
        apply_limit(finite, lambda t: t, 0.5)
    with pytest.raises(ValueError):
        apply_finite(finite, lambda t: t, 1.5)
    assert apply(finite, lambda t: t, 0.5) == apply_finite(finite, lambda t: t, 0.5)
    assert apply(limit, lambda t: t, 0.5) == apply_limit(limit, lambda t: t, 0.5)


def test_coefficients_reconstruct_unity():
    spec = OperatorSpec(6, 0.8, StancuParams(1.0, 2.0))
    coeffs = finite_coefficients(spec, lambda t: 1.0)
    for x in XS:
        assert float(coeffs @ basis_row(6, 0.8, x)) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_bitwise():
    spec = OperatorSpec(7, 0.85, StancuParams(0.5, 3.0))
    f = registry_samples()[5]
    assert apply_finite(spec, f, 0.37) == apply_finite(spec, f, 0.37)
    lspec = OperatorSpec(INFINITE, 0.85)
    assert apply_limit(lspec, f, 0.37) == apply_limit(lspec, f, 0.37)


@pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=str)
def test_batched_apply_matches_scalar_references(q, stancu):
    # the batched grid paths against sums over the scalar reference functionals
    f = from_expression("exp(-t)+t^2")
    xs = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    n = 7
    spec = OperatorSpec(n, q, stancu)
    coeffs = [coefficient_finite(spec, k, f) for k in range(n + 1)]
    want = [sum(c * basis_row(n, q, x)[k] for k, c in enumerate(coeffs)) for x in xs]
    assert apply_finite(spec, f, xs) == pytest.approx(want, rel=1e-12)
    if q == 1.0:
        return
    spec = OperatorSpec(INFINITE, q, stancu)
    coeffs = _limit_coefficients_to(spec, f, 599)
    want = [sum(c * limit_basis(k, q, x) for k, c in enumerate(coeffs)) for x in xs[:-1]]
    # x = 1 carries the continuous extension f(inner(1)), where every p_inf,k vanishes
    want.append(f(limit_inner(q, stancu, 1.0)))
    assert apply_limit(spec, f, xs) == pytest.approx(want, rel=1e-12)


def _limit_coefficients_to(spec, f, k_max):
    # A_k for k <= K_cap from limit_coefficients, the rest from the dense oracle
    cap = _series_cap(spec.q, spec.policy)
    head = limit_coefficients(spec, f)[: k_max + 1]
    return np.concatenate((head, limit_jackson_coefficients([spec], [f], range(cap + 1, k_max + 1))[:, 0]))


def test_limit_coefficient_cache_is_bounded():
    spec = OperatorSpec(INFINITE, 0.5)
    for i in range(600):
        apply_limit(spec, resolve(f"t^2+{i}"), 0.5)  # a fresh source, so a fresh cache key
    info = limit_coefficients.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32


PLAN_QS = [0.5, 0.9, 0.99, 0.999]


def _clear_limit_caches():
    _limit_plan.cache_clear()
    limit_coefficients.cache_clear()


@pytest.mark.parametrize("q", PLAN_QS)
def test_limit_plan_gives_the_cold_coefficients(q):
    # the plan of (q, policy), first used by another f and shift pair, gives
    # the same A_k as a cold plan, for every k up to K_cap
    spec = OperatorSpec(INFINITE, q, StancuParams(1.0, 2.0))
    f = from_expression("sin(3*t)+abs(t-0.37)")
    other = OperatorSpec(INFINITE, q), from_expression("exp(-2*t)*t^2")
    _clear_limit_caches()
    cold = limit_coefficients(spec, f).copy()
    assert len(cold) == _series_cap(q, DEFAULT_POLICY) + 1
    _clear_limit_caches()
    limit_coefficients(*other)
    assert np.array_equal(limit_coefficients(spec, f), cold)


@pytest.mark.parametrize("q", PLAN_QS)
def test_apply_limit_is_the_same_with_a_warm_plan(q):
    spec = OperatorSpec(INFINITE, q, StancuParams(1.0, 2.0))
    f = from_expression("sin(3*t)+abs(t-0.37)")
    xs = GridSpec(201).xs
    _clear_limit_caches()
    cold = apply_limit(spec, f, xs)
    limit_coefficients.cache_clear()
    apply_limit(OperatorSpec(INFINITE, q), from_expression("exp(-2*t)*t^2"), xs)
    info = _limit_plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)  # the second f reads the first f's plan
    limit_coefficients.cache_clear()
    assert np.array_equal(apply_limit(spec, f, xs), cold)


def test_limit_plan_cache_is_bounded():
    f = resolve("t^2")
    for q in np.linspace(0.05, 0.5, 100):
        apply_limit(OperatorSpec(INFINITE, float(q)), f, 0.5)
    info = _limit_plan.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def test_memo_values_are_read_only():
    f = resolve("sin(3*t)")
    log_c, _, residual = _euler_table(0.9)
    values = [finite_coefficients(OperatorSpec(5, 0.8), f),
              limit_coefficients(OperatorSpec(INFINITE, 0.9), f), q_binomial_row(5, 0.8), log_c,
              residual]
    for value in values:
        with pytest.raises(ValueError):
            value[0] = 1.0
    blocks, left, right, nodes = _limit_plan(0.9, DEFAULT_POLICY)
    assert isinstance(blocks, tuple)
    for table in (left, right, nodes):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_equal_sources_share_a_cache_key():
    spec = OperatorSpec(7, 0.77)
    before = finite_coefficients.cache_info()
    finite_coefficients(spec, resolve("t^2"))
    finite_coefficients(spec, resolve("t^2"))
    after = finite_coefficients.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_constant_f_broadcasts_on_array_x(spec):
    vals = apply(spec, lambda t: 1.0, np.array(XS))
    assert vals.shape == (len(XS),)
    assert np.allclose(vals, 1.0, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99, 0.995, 0.999])
@pytest.mark.parametrize("stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=str)
def test_limit_grid_values_match_closed_forms(q, stancu):
    xs = GridSpec(1001).xs
    spec = OperatorSpec(INFINITE, q, stancu)
    m0, m1, m2 = (limit_moment(q, stancu, j, xs) for j in range(3))
    for f, want in (
        (resolve("const:2"), 2.0 * m0),
        (resolve("0.3-1.2*t+2.5*t^2"), 0.3 * m0 - 1.2 * m1 + 2.5 * m2),
    ):
        got = apply_limit(spec, f, xs)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("q", [0.5, 0.9, 0.999])
def test_limit_coefficients_match_dense_jackson_sum(q):
    # A_k(f) = sum_j w_kj f(inner(q^j)) / sum_j w_kj over every node j, with
    # log w_kj = j (k+1) log q - log prod_{i<=j} (1 - q^i) up to a k-only term
    stancu = StancuParams(1.0, 2.0)
    spec = OperatorSpec(INFINITE, q, stancu)
    f = from_expression("sin(3*t)+t^2")
    k_max = min(len(log_limit_row(q, 0.995)) - 1, _series_cap(q, DEFAULT_POLICY))
    got = limit_coefficients(spec, f)
    ks = sorted(set(np.linspace(0, k_max, 40, dtype=int)))
    assert got[ks] == pytest.approx(limit_jackson_coefficients([spec], [f], ks)[:, 0], rel=1e-13)


BENCHMARK_FAMILIES = ["0.3-1.2*t+2.5*t^2", "sin(3.7*t)", "abs(t-0.37)", "exp(-2.3*t)*t^2"]


@pytest.mark.parametrize("q", [0.99, 0.995, 0.999])
def test_limit_coefficients_of_the_benchmark_families_match_the_oracle(q):
    specs = [OperatorSpec(INFINITE, q, stancu) for stancu in (StancuParams(), StancuParams(1.0, 2.0))]
    fs = [resolve(src) for src in BENCHMARK_FAMILIES]
    ks = sorted(set(np.linspace(0, _series_cap(q, DEFAULT_POLICY), 60, dtype=int)))
    got = np.column_stack([limit_coefficients(spec, f)[ks] for spec in specs for f in fs])
    assert got == pytest.approx(limit_jackson_coefficients(specs, fs, ks), rel=1e-13)


def _blocks_seen(run):
    """run() with durrmeyer._blocks spied on: its value, and the
    (lo, hi, budget, blocks) of each call of _blocks."""
    calls = []
    real = durrmeyer._blocks

    def spy(lo, hi, budget):
        blocks = list(real(lo, hi, budget))
        calls.append((lo, hi, budget, blocks))
        return iter(blocks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(durrmeyer, "_blocks", spy)
        out = run()
    return out, calls


def _assert_block_invariants(lo, hi, budget, blocks):
    # consecutive row slices that cover every row, each column span holding
    # its rows' windows, within the budget and BLOCK_WIDEN of the narrowest
    assert budget == GRID_ENTRIES
    assert [ks.start for ks, _, _ in blocks] == [0] + [ks.stop for ks, _, _ in blocks[:-1]]
    assert blocks[-1][0].stop == len(lo)
    for ks, a, b in blocks:
        rows = ks.stop - ks.start
        assert rows >= 1
        assert np.all(lo[ks] >= a) and np.all(hi[ks] <= b)
        assert rows == 1 or rows * (b - a) <= budget
        assert b - a <= BLOCK_WIDEN * np.min(hi[ks] - lo[ks])


@settings(max_examples=15, deadline=None)
@given(q=st.floats(0.3, 0.999))
@example(q=0.999)
def test_limit_plan_blocks_hold_the_node_windows(q):
    plan, calls = _blocks_seen(lambda: _limit_plan.__wrapped__(q, DEFAULT_POLICY))
    ((lo, hi, budget, blocks),) = calls
    plan_blocks, left, right, nodes = plan
    J = len(nodes)
    assert plan_blocks == tuple(blocks) and len(lo) == _series_cap(q, DEFAULT_POLICY) + 1
    _assert_block_invariants(lo, hi, budget, blocks)
    # each window is where log w_kj = j rate_k + g_j reaches the cut, and
    # ends where it falls below it
    cut = math.log(DEFAULT_POLICY.rel_eps / J) - left[:, 2]
    rows = np.arange(len(lo))

    def below(j, where):
        return (j * left[rows, 0] + right[1, np.minimum(j, J - 1)] < cut)[where]

    assert np.all(below(lo - 1, lo > 0)) and np.all(below(hi, hi < J))
    assert not np.any(below(lo, lo < hi))


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
def test_limit_series_blocks_hold_each_row(q):
    spec = OperatorSpec(INFINITE, q)
    f = resolve("sin(3.7*t)")
    limit_coefficients(spec, f)  # the plan's blocks are not the series'
    _, calls = _blocks_seen(lambda: apply_limit(spec, f, GridSpec(201).xs))
    ((lo, hi, budget, blocks),) = calls
    assert np.all(lo == 0) and len(lo) == 199  # the x in (0, 1)
    _assert_block_invariants(lo, hi, budget, blocks)


def test_classical_operator_beyond_float_binomials_is_a_numeric_error():
    with pytest.raises(NumericError):
        apply_finite(OperatorSpec(1200, 1.0), lambda t: t * t, 0.5)


@pytest.mark.parametrize("n, q", [(1022, 0.5), (1023, 0.5), (2000, 0.5), (600, 0.3), (200, 0.01)])
def test_finite_operator_beyond_float_q_powers_matches_closed_forms(n, q):
    # q^-k of the integral form overflows a float once n log10(1/q) > 308;
    # the normalised Jackson weights never form it
    xs = np.linspace(0.0, 1.0, 11)
    spec = OperatorSpec(n, q, StancuParams(0.5, 1.0))
    for j, f in ((0, lambda t: 1.0), (1, lambda t: t), (2, lambda t: t * t)):
        got = apply_finite(spec, f, xs)
        assert np.allclose(got, finite_moment(spec, j, xs), rtol=0.0, atol=1e-14)


def _per_x_limit(spec, f, xs):
    # reference: one x at a time, exp(log_limit_row) contracted with the
    # coefficients and divided by its sum
    out = []
    for x in np.ravel(xs):
        if x == 1.0:
            out.append(f(limit_inner(spec.q, spec.stancu, 1.0)))
            continue
        p = np.exp(log_limit_row(spec.q, x, policy=spec.policy))
        out.append(p @ _limit_coefficients_to(spec, f, len(p) - 1) / p.sum())
    return np.reshape(out, np.shape(xs))


@pytest.mark.parametrize("q", [0.5, 0.9, 0.999])
@pytest.mark.parametrize("stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=str)
def test_batched_apply_limit_matches_per_x_reference(q, stancu):
    spec = OperatorSpec(INFINITE, q, stancu)
    f = from_expression("sin(3*t)+abs(t-0.37)")
    xs = np.array([[0.7, 0.0, 0.25, 1.0, 0.99], [0.25, 0.013, 1.0, 0.5, 0.0]])  # unsorted, repeats
    got = apply_limit(spec, f, xs)
    want = _per_x_limit(spec, f, xs)
    assert got.shape == xs.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    one = apply_limit(spec, f, 0.25)
    assert isinstance(one, float)
    assert one == pytest.approx(want[0, 2], rel=1e-13)
    for bad in (np.array([0.5, 1.5]), -0.1):
        with pytest.raises(ValueError):
            apply_limit(spec, f, bad)
    with pytest.raises(SeriesLimitError):
        apply_limit(OperatorSpec(INFINITE, q, stancu, TruncationPolicy(max_terms=5)), f, xs)


def test_apply_limit_working_set_is_bounded():
    # blocks of (x, k) exponents and of Pochhammer terms, not a grid x K matrix
    spec = OperatorSpec(INFINITE, 0.999)
    f = resolve("sin(3*t)")
    xs = GridSpec(1001).xs
    apply_limit(spec, f, xs)  # coefficients built and cached
    tracemalloc.start()
    try:
        apply_limit(spec, f, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_one_x_working_set_is_small():
    # the kernel's buffer is sized by its largest block, here one row
    spec = OperatorSpec(INFINITE, 0.9)
    f = resolve("sin(3*t)")
    for call in (lambda: limit_basis_identity_sums(0.9, 0.5), lambda: apply_limit(spec, f, 0.5)):
        call()  # tables, plan and coefficients built and cached
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2**20


NEAR_ONE = [1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=str)
def test_limit_operator_near_one_matches_closed_forms(q, stancu):
    # past K_cap the series is closed by its tail, so x -> 1 costs no more
    # terms; each x alone, so its value does not depend on a neighbour's block
    spec = OperatorSpec(INFINITE, q, stancu)
    for j, f in ((0, lambda t: np.ones_like(t)), (1, lambda t: t), (2, lambda t: t * t)):
        for x in NEAR_ONE:
            got = apply_limit(spec, f, x)
            assert got == pytest.approx(limit_moment(q, stancu, j, x), rel=0.0, abs=1e-15)


@pytest.mark.parametrize("q, cap", [(0.5, 48), (0.9, 328), (0.95, 687), (0.99, 3666),
                                    (0.995, 7489), (0.999, 39125)])
def test_limit_series_cap(q, cap):
    assert _series_cap(q, DEFAULT_POLICY) == cap
    # the coefficients of a near-1 query stop at the cap
    spec = OperatorSpec(INFINITE, q)
    f = resolve("t^2")
    apply_limit(spec, f, 1.0 - 1e-9)
    assert len(limit_coefficients(spec, f)) == cap + 1


def test_limit_series_cap_stays_inside_apply_limit():
    # the scalar basis rows keep their full truncation index and no tail term;
    # the identity sums stop at the cap and close the series with its tail,
    # so they meet the contract at least as closely as the full rows' sums
    for q, x, K, last in ((0.5, 0.99, 2950, -34.23765052497977),
                          (0.9, 0.999, 27342, -34.23640683209257),
                          (0.999, 0.995, 11720, -34.24488385020459)):
        row = log_limit_row(q, x)
        assert len(row) == K + 1 and row[-1] == last
        p = np.exp(row)
        w = 1.0 - q ** np.arange(K + 1)
        want = np.array((1.0, x, x * x + (1 - q) * x * (1 - x)))
        full = np.abs(np.array((p.sum(), w @ p, (w * w) @ p)) - want)
        assert np.all(np.abs(np.array(limit_basis_identity_sums(q, x)) - want) <= full + 1e-14)
    # the cap is what the terms count against, whatever x
    f = resolve("t")
    with pytest.raises(SeriesLimitError):
        apply_limit(OperatorSpec(INFINITE, 0.999, policy=TruncationPolicy(max_terms=1000)), f, 0.9999)
    with pytest.raises(SeriesLimitError):
        apply_limit(OperatorSpec(INFINITE, 0.9, policy=TruncationPolicy(max_terms=300)), f, 1 - 1e-6)
    spec = OperatorSpec(INFINITE, 0.9, policy=TruncationPolicy(max_terms=400))
    assert apply_limit(spec, f, 1 - 1e-6) == pytest.approx(limit_moment(0.9, StancuParams(), 1, 1 - 1e-6),
                                                         rel=0.0, abs=1e-15)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_limit_identity_sums_near_one(q):
    # the capped kernel and its tail answer every x below 1 in a fixed number of terms
    for x in (0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, math.nextafter(1.0, 0.0)):
        s0, s1, s2 = limit_basis_identity_sums(q, x)
        assert s0 == pytest.approx(1.0, rel=0.0, abs=1e-11)
        assert s1 == pytest.approx(x, rel=0.0, abs=1e-11)
        assert s2 == pytest.approx(x * x + (1 - q) * x * (1 - x), rel=0.0, abs=1e-11)


KINKED = [  # (f, the values where f has a kink)
    ("abs(t-0.37)", [0.37]),
    ("abs(t-0.5)", [0.5]),
    ("abs(t-0.81)", [0.81]),
    ("sqrt(t)", []),
    ("sqrt(abs(t-0.5))", [0.5]),
    ("sin(40*t)", []),
]
SMOOTH = [  # with abs(t-c), one member of each benchmark family
    ("0.25+(-1.5)*t+(2.0)*t^2", []),
    ("sin(3.7*t)", []),
    ("exp(-2.5*t)*t^2", []),
]
CLASSICAL_CASES = (
    [(f, kinks, n) for f, kinks in KINKED for n in (1, 5, 40)]
    + [(f, kinks, n) for f, kinks in SMOOTH for n in (5, 20, 40)]
    + [("abs(t-0.37)", [0.37], 20)]
)


@pytest.mark.parametrize(
    "stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=["plain", "shifted"]
)
@pytest.mark.parametrize(
    "src, kinks, n", CLASSICAL_CASES, ids=[f"{f}-{n}" for f, _, n in CLASSICAL_CASES]
)
def test_classical_coefficients_match_kink_split_reference(src, kinks, n, stancu):
    spec = OperatorSpec(n, 1.0, stancu)
    f = from_expression(src)
    want = classical_coefficients(spec, f, kinks)
    got = finite_coefficients(spec, f)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [5, 100, 1000])
def test_finite_coefficients_match_dense_jackson_sum(n, q):
    specs = [OperatorSpec(n, q), OperatorSpec(n, q, StancuParams(1.0, 2.0))]
    fs = [from_expression(src) for src, _ in SMOOTH + [("abs(t-0.37)", [0.37])]]
    ks = np.unique(np.linspace(0, n, min(n + 1, 25)).astype(int))
    want = jackson_coefficients(specs, fs, ks)
    got = np.column_stack([finite_coefficients(spec, f)[ks] for spec in specs for f in fs])
    assert np.all(np.max(np.abs(got - want), axis=0) <= 5e-14 * np.max(np.abs(want), axis=0))


@pytest.mark.parametrize("q", [0.99, 0.999])
def test_finite_coefficients_of_small_k_keep_their_node_tails(q):
    # past its peak the weight of k = 0 decays only as q^j: the nodes must
    # reach where its share beyond them is rel_eps, not rel_eps [n+1]_q
    spec = OperatorSpec(5, q)
    f = from_expression("sin(3.7*t)")
    want = jackson_coefficients([spec], [f], range(6))[:, 0]
    got = finite_coefficients(spec, f)
    assert np.max(np.abs(got - want)) <= spec.policy.rel_eps * np.max(np.abs(want))


def test_grid_working_set_is_bounded():
    spec = OperatorSpec(1000, 0.9)
    f = from_expression("abs(t-0.37)")
    xs = GridSpec(1001).xs
    finite_coefficients(spec, f)
    tracemalloc.start()
    try:
        apply_finite(spec, f, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("n", [40, 300, 1000, 1300])
def test_grid_rows_leave_out_only_entries_below_the_tail(n, q):
    spec = OperatorSpec(n, q)
    xs = GridSpec(1001).xs
    rows = GRID_ENTRIES // (n + 1)
    limits = _column_limits(spec, xs, rows)
    log_c_inf = _euler_table(q)[1]
    for i, K in zip(range(0, len(xs), rows), limits):
        block = scan_basis_matrix(n, q, xs[i : i + rows])
        assert np.all(block[:, K + 1 :] < GRID_TAIL / (n + 1))
        x_top = xs[i : i + rows].max()
        if K < n:  # the least index of the bound x_top^K / c_inf <= GRID_TAIL / (n + 1)
            assert (K - 1) * math.log(x_top) - log_c_inf > math.log(GRID_TAIL / (n + 1))
    # the first block's x_top is below 0.06 from n = 300 on; c_inf is tiny at q = 0.999
    assert (limits[0] < n) == (n >= 1000 or (n >= 300 and q <= 0.99))
    assert limits[-1] == n  # its block holds x = 1


NEAR_ONE_TAIL = 1.0 - 10.0 ** -np.arange(2.0, 13.0)
CORPUS = [
    (n, q) for n in (5, 40, 300, 1000, 1300) for q in (0.5, 0.9, 0.99, 0.999, 1.0)
    if not (q == 1.0 and n > 1000)  # C(1300, 650) overflows a float
]


@pytest.mark.parametrize(
    "stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=["plain", "shifted"]
)
@pytest.mark.parametrize("n, q", CORPUS)
def test_grid_side_matches_the_full_rows(n, q, stancu):
    spec = OperatorSpec(n, q, stancu)
    grid = GridSpec(1001).xs
    for f in (from_expression("abs(t-0.37)"), from_expression("sin(3.7*t)")):
        ulp = np.spacing(np.max(np.abs(finite_coefficients(spec, f))))
        for xs in (grid, np.concatenate((grid, NEAR_ONE_TAIL))):
            want = full_row_columns(spec, [f], xs)[0]
            assert np.all(np.abs(apply_finite(spec, f, xs) - want) <= ulp)


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, -math.inf])
@pytest.mark.parametrize("where", [0, 500, 1000])
def test_grid_checks_x_before_its_truncation_index(bad, where):
    spec = OperatorSpec(1000, 0.9)
    xs = GridSpec(1001).xs.copy()
    xs[where] = bad
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
        apply_finite(spec, from_expression("t^2"), xs)
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
        apply_finite(spec, from_expression("t^2"), np.full(1001, bad))


def test_finite_coefficients_near_one_working_set_is_bounded():
    # windowed node blocks, not a (nodes x (n + 1)) matrix: J = 322k here
    spec = OperatorSpec(1000, 0.9999, StancuParams(0.5, 1.0))
    square = lambda t: t * t
    tracemalloc.start()
    try:
        finite_coefficients(spec, square)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    xs = np.linspace(0.0, 1.0, 11)
    for j, f in ((0, lambda t: 1.0), (1, lambda t: t), (2, square)):
        assert np.allclose(apply_finite(spec, f, xs), finite_moment(spec, j, xs), rtol=0.0, atol=1e-13)


def test_classical_rule_is_the_10_point_gauss_lobatto_rule():
    p = np.polynomial.legendre.Legendre.basis(9)
    x = np.concatenate(([-1.0], p.deriv().roots(), [1.0]))
    assert np.allclose(_RULE_T, (x + 1.0) / 2.0, rtol=0.0, atol=2e-15)
    assert np.allclose(_RULE_W, 1.0 / (90.0 * p(x) ** 2), rtol=0.0, atol=2e-15)
    for j in range(18):  # exact up to degree 2 * 10 - 3
        assert _RULE_W @ _RULE_T**j == pytest.approx(1.0 / (j + 1), rel=1e-15)


def test_classical_rule_calls_f_once_per_round():
    sizes = []

    def f(t):
        sizes.append(len(t))
        return abs(t - 0.37)

    spec = OperatorSpec(40, 1.0, StancuParams(1.0, 2.0))
    got = finite_coefficients(spec, f)
    want = classical_coefficients(spec, lambda t: abs(t - 0.37), [0.37])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert len(sizes) <= 64 and min(sizes) > 1


def test_classical_operator_at_the_largest_float_degree():
    spec = OperatorSpec(1029, 1.0, StancuParams(0.5, 1.0))
    f = lambda t: t * t
    xs = np.linspace(0.0, 1.0, 11)
    tracemalloc.start()
    try:
        got = apply_finite(spec, f, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.allclose(got, finite_moment(spec, 2, xs), rtol=0.0, atol=1e-13)
    with pytest.raises(NumericError):
        apply_finite(OperatorSpec(1030, 1.0), f, xs)


def test_classical_rule_limits():
    spec = OperatorSpec(5, 1.0)
    with pytest.raises(NumericError):
        finite_coefficients(spec, lambda t: np.where(t > 0.7, np.inf, t))
    tight = OperatorSpec(5, 1.0, policy=TruncationPolicy(max_terms=50))
    with pytest.raises(SeriesLimitError):
        finite_coefficients(tight, resolve("abs(t-0.37)"))
    # a looser rel_eps stops sooner, within its own tolerance
    loose = OperatorSpec(5, 1.0, policy=TruncationPolicy(rel_eps=1e-6))
    f = resolve("abs(t-0.37)")
    want = classical_coefficients(spec, f, [0.37])
    got = finite_coefficients(loose, f)
    assert 0.0 < np.max(np.abs(got - want)) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 300),
    x=st.floats(0.0, 1.0),
    shifts=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).map(sorted),
    c=st.floats(0.0, 1.0),
)
def test_classical_operator_properties(n, x, shifts, c):
    spec = OperatorSpec(n, 1.0, StancuParams(*shifts))
    assert apply_finite(spec, lambda t: 1.0, x) == pytest.approx(1.0, rel=0.0, abs=1e-13)
    for j, f in ((1, lambda t: t), (2, lambda t: t * t)):
        want = finite_moment(spec, j, x)
        assert apply_finite(spec, f, x) == pytest.approx(want, rel=0.0, abs=1e-13)
    assert apply_finite(spec, lambda t: abs(t - c), x) >= 0.0


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 2000),
    q=st.floats(0.5, 0.999),
    x=st.floats(0.0, 1.0),
    shifts=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).map(sorted),
    c=st.floats(0.0, 1.0),
)
@example(n=1000, q=0.999, x=0.7, shifts=[1.0, 2.0], c=0.37)
@example(n=2000, q=0.999, x=0.7, shifts=[1.0, 2.0], c=0.37)  # C(n,k)_q overflows
def test_finite_operator_properties(n, q, x, shifts, c):
    spec = OperatorSpec(n, q, StancuParams(*shifts))
    fs = (lambda t: 1.0, lambda t: t, lambda t: t * t, lambda t: abs(t - c))
    try:
        values = [apply_finite(spec, f, x) for f in fs]
    except QApproxError:  # typed, e.g. C(n,k)_q beyond a float near q = 1
        return
    assert all(math.isfinite(v) for v in values)
    assert values[0] == pytest.approx(1.0, rel=0.0, abs=1e-13)
    for j in (1, 2):
        assert values[j] == pytest.approx(finite_moment(spec, j, x), rel=0.0, abs=1e-13)
    assert values[3] >= 0.0


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(0.5, 0.999),
    x=st.floats(0.0, 1.0),
    shifts=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).map(sorted),
    c=st.floats(0.0, 1.0),
)
@example(q=0.999, x=1.0 - 1e-12, shifts=[1.0, 2.0], c=0.37)
@example(q=0.999, x=float(np.nextafter(1.0, 0.0)), shifts=[0.0, 0.0], c=1.0)
@example(q=0.5, x=5e-324, shifts=[0.0, 0.0], c=0.0)  # 0.5 / x overflows
def test_limit_operator_properties(q, x, shifts, c):
    stancu = StancuParams(*shifts)
    spec = OperatorSpec(INFINITE, q, stancu)
    fs = (lambda t: 1.0, lambda t: t, lambda t: t * t, lambda t: abs(t - c))
    values = [apply_limit(spec, f, x) for f in fs]  # no QApproxError at the default policy
    assert all(math.isfinite(v) for v in values)
    assert values[0] == pytest.approx(1.0, rel=0.0, abs=1e-13)
    for j in (1, 2):
        assert values[j] == pytest.approx(limit_moment(q, stancu, j, x), rel=0.0, abs=1e-13)
    assert values[3] >= 0.0


COLUMN_XS = {
    "empty": [],
    "zeros": [0.0, 0.0],
    "ones": [1.0, 1.0, 1.0],
    "duplicates": [0.7, 0.0, 0.3, 0.7, 1.0, 0.3, 1.0 - 1e-12, 0.999, 1.0 - 1e-12],
    "grid": np.linspace(0.0, 1.0, 201),
}


COLUMN_NQ = [(n, q) for n in (7, 300, INFINITE) for q in (0.5, 0.9, 0.99, 0.999, 1.0)
             if n is not INFINITE or q < 1.0]


@pytest.mark.parametrize("xs", COLUMN_XS.values(), ids=COLUMN_XS)
@pytest.mark.parametrize("stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=str)
@pytest.mark.parametrize("n, q", COLUMN_NQ, ids=[f"n={n or 'inf'}-q={q}" for n, q in COLUMN_NQ])
def test_columns_are_the_one_f_values_bitwise(n, q, stancu, xs):
    # one pass for several f gives each f's row the bits of apply(spec, f, xs)
    spec = OperatorSpec(n, q, stancu)
    fs = list(MONOMIALS.values()) + [resolve("sin:3"), resolve("absdev:0.5")]
    xa = np.array(xs, dtype=float)
    got = (_limit_columns if spec.is_limit else _finite_columns)(spec, fs, xa)
    assert got.shape == (len(fs), len(xa))
    for row, f in zip(got, fs):
        assert row.tobytes() == apply(spec, f, xa).tobytes()
