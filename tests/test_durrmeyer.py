import math

import numpy as np
import pytest

from qapprox.analysis import GridSpec
from qapprox.basis import INFINITE, log_limit_row
from qapprox.durrmeyer import (
    OperatorSpec,
    StancuParams,
    apply,
    apply_finite,
    apply_limit,
    coefficient_finite,
    coefficient_limit,
    finite_coefficients,
    finite_inner,
    limit_coefficients,
    limit_inner,
    _limit_slot,
)
from qapprox.funcreg import from_expression, registry_samples, resolve
from qapprox.moments import limit_moment
from qapprox.qcore import NumericError, q_integer

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
    from qapprox.basis import bernstein_basis

    n, q, k = 5, 0.8, 3
    spec = OperatorSpec(n, q, StancuParams(1.0, 2.0))
    nq = q_integer(n, q)
    acc = 0.0
    for j in range(400):
        t = q**j
        acc += q**j * ((nq * t + 1.0) / (nq + 2.0)) * bernstein_basis(n, k, q, q * t)
    expect = q_integer(n + 1, q) * q ** (-k) * (1.0 - q) * acc
    assert coefficient_finite(spec, k, lambda t: t) == pytest.approx(expect, rel=1e-12)
    assert finite_coefficients(spec, lambda t: t)[k] == pytest.approx(expect, rel=1e-10)


def test_limit_coefficient_against_jackson_partial_sum():
    from qapprox.basis import limit_basis

    q, k = 0.5, 1
    spec = OperatorSpec(INFINITE, q)
    acc = 0.0
    for j in range(200):
        t = q**j
        acc += q**j * t * limit_basis(k, q, q * t)
    expect = q ** (-k) / (1.0 - q) * (1.0 - q) * acc
    assert coefficient_limit(spec, k, lambda t: t) == pytest.approx(expect, rel=1e-11)


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
    with pytest.raises(ValueError):
        coefficient_finite(finite, 9, lambda t: t)
    assert apply(finite, lambda t: t, 0.5) == apply_finite(finite, lambda t: t, 0.5)
    assert apply(limit, lambda t: t, 0.5) == apply_limit(limit, lambda t: t, 0.5)


def test_coefficients_reconstruct_unity():
    spec = OperatorSpec(6, 0.8, StancuParams(1.0, 2.0))
    coeffs = finite_coefficients(spec, lambda t: 1.0)
    from qapprox.basis import basis_row

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
    from qapprox.basis import bernstein_basis, limit_basis

    f = from_expression("exp(-t)+t^2")
    xs = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    n = 7
    spec = OperatorSpec(n, q, stancu)
    coeffs = [coefficient_finite(spec, k, f) for k in range(n + 1)]
    want = [sum(c * bernstein_basis(n, k, q, x) for k, c in enumerate(coeffs)) for x in xs]
    assert apply_finite(spec, f, xs) == pytest.approx(want, rel=1e-12)
    if q == 1.0:
        return
    spec = OperatorSpec(INFINITE, q, stancu)
    # descending k: the first call builds every coefficient, the rest reuse it
    coeffs = [coefficient_limit(spec, k, f) for k in reversed(range(600))][::-1]
    want = [sum(c * limit_basis(k, q, x) for k, c in enumerate(coeffs)) for x in xs[:-1]]
    # x = 1 carries the continuous extension f(inner(1)), where every p_inf,k vanishes
    want.append(f(limit_inner(q, stancu, 1.0)))
    assert apply_limit(spec, f, xs) == pytest.approx(want, rel=1e-12)


def test_limit_coefficient_cache_is_bounded():
    spec = OperatorSpec(INFINITE, 0.5)
    for _ in range(600):
        apply_limit(spec, resolve("t^2"), 0.5)  # a fresh f, so a fresh cache key
    assert _limit_slot.cache_info().currsize <= 64


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
    k_max = len(log_limit_row(q, 0.995)) - 1
    got = limit_coefficients(spec, f, k_max)
    js = np.arange(int(math.log(1e-22) / math.log(q)))
    log_c = np.cumsum(np.log1p(-(q ** js[1:])).astype(np.longdouble))
    log_c = np.concatenate(([0.0], log_c.astype(float)))
    f_nodes = f(limit_inner(q, stancu, q**js))
    for k in sorted(set(np.linspace(0, k_max, 40, dtype=int))):
        e = js * (k + 1) * math.log(q) - log_c
        w = np.exp(e - e.max())
        assert got[k] == pytest.approx((w @ f_nodes) / w.sum(), rel=1e-13)


def test_classical_operator_beyond_float_binomials_is_a_numeric_error():
    with pytest.raises(NumericError):
        apply_finite(OperatorSpec(1200, 1.0), lambda t: t * t, 0.5)
