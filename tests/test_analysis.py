import math

import numpy as np
import pytest

import oracles
from oracles import registry_samples
from qapprox.analysis import (
    DEFAULT_GRID,
    GridSpec,
    basis_inequality_check,
    fixed_point_check,
    modulus_of_continuity,
    q_to_one_experiment,
    rate_experiment,
    sup_norm_diff,
)
from qapprox.basis import _log_pochhammer, limit_basis
from qapprox.durrmeyer import StancuParams
from qapprox.funcreg import builtin
from qapprox.moments import finite_moment, finite_moment_at, limit_moment
from qapprox.durrmeyer import OperatorSpec

SLACK = 2.0 * DEFAULT_GRID.spacing


def test_grid_spec():
    g = GridSpec(11)
    assert g.xs[0] == 0.0 and g.xs[-1] == 1.0 and len(g.xs) == 11
    assert g.spacing == pytest.approx(0.1)
    with pytest.raises(ValueError):
        GridSpec(1)


def test_modulus_examples():
    assert modulus_of_continuity(lambda x: 3.0, 0.3) == 0.0
    assert modulus_of_continuity(lambda x: x, 0.2) == pytest.approx(0.2, abs=SLACK)
    # analytically omega(t -> t^2, h) = h(2 - h)
    assert modulus_of_continuity(lambda x: x * x, 0.2) == pytest.approx(0.36, abs=SLACK)
    assert modulus_of_continuity(lambda x: x, 0.0) <= SLACK


def test_modulus_nondecreasing():
    f = builtin("sin:3")
    prev = -1.0
    for t in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0):
        w = modulus_of_continuity(f, t)
        assert w >= prev - 1e-14
        prev = w


@pytest.mark.parametrize("points", [2, 3, 101, 1001])
def test_modulus_is_the_per_step_maximum_bitwise(points):
    grid = GridSpec(points)
    ts = np.concatenate(([0.0, 1.0, 0.5 * grid.spacing, grid.spacing, 0.3, 0.3],
                         0.99 ** np.arange(5, 41), np.linspace(0.0, 1.0, 37)))
    fs = registry_samples() + [builtin("sin:40"), lambda x: np.cos(7.0 * x) * x]
    for f in fs:
        want = oracles.modulus_of_continuity(f, ts, grid)
        assert modulus_of_continuity(f, ts, grid).tolist() == want
        assert [modulus_of_continuity(f, t, grid) for t in ts[::7]] == want[::7]
        assert modulus_of_continuity(f, ts[:78].reshape(2, 39), grid).ravel().tolist() == want[:78]
    for bad in (-0.1, 1.5, math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError):
            modulus_of_continuity(fs[0], bad, grid)


LIPSCHITZ = {"const:2": 0.0, "id": 1.0, "square": 2.0, "absdev:0.5": 1.0, "absdev:0.3": 1.0,
             "expdec": 1.0, "sin:3": 3.0}


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("t", [0.05, 0.1])
def test_modulus_subadditive(lam, t):
    for name, lip in LIPSCHITZ.items():
        f = builtin(name)
        slack = 2.0 * lip * DEFAULT_GRID.spacing
        w_lam = modulus_of_continuity(f, min(lam * t, 1.0))
        w = modulus_of_continuity(f, t)
        assert w_lam <= (1.0 + lam) * w + slack


def test_sup_norm_examples():
    assert sup_norm_diff(lambda x: x, lambda x: x) == 0.0
    assert sup_norm_diff(lambda x: x * (1 - x), lambda x: 0.0) == pytest.approx(0.25)
    assert sup_norm_diff(lambda x: x, lambda x: x * x) == pytest.approx(0.25)


def test_rate_experiment_constant_and_oracle():
    grid = GridSpec(101)
    st = StancuParams()
    report = rate_experiment(builtin("const:3"), 0.8, st, [2, 4, 8], grid)
    assert all(row[1] == pytest.approx(0.0, abs=1e-11) for row in report.rows)
    # f = t: sup_diff predictable from the two closed-form first moments
    report = rate_experiment(builtin("id"), 0.8, st, [5, 10], grid)
    for n, sup_diff, omega, ratio in report.rows:
        spec = OperatorSpec(n, 0.8, st)
        expect = max(
            abs(finite_moment(spec, 1, x) - limit_moment(0.8, st, 1, x))
            for x in grid.xs
        )
        assert sup_diff == pytest.approx(expect, abs=1e-9)
        assert ratio == pytest.approx(sup_diff / omega, rel=1e-12)
    assert math.isfinite(report.estimated_constant)


def test_rate_monotone_after_burn_in():
    report = rate_experiment(
        builtin("absdev:0.5"), 0.9, StancuParams(), list(range(5, 26)), GridSpec(201)
    )
    diffs = [row[1] for row in report.rows]
    violations = sum(1 for a, b in zip(diffs, diffs[1:]) if b > a + 1e-13)
    assert violations <= 2
    assert diffs[-1] < diffs[0]


def test_q_to_one_experiment():
    grid = GridSpec(201)
    rows = q_to_one_experiment(builtin("const:1"), StancuParams(), [0.9, 0.99], grid)
    assert all(v == pytest.approx(0.0, abs=1e-11) for _, v in rows)
    rows = q_to_one_experiment(builtin("square"), StancuParams(), [0.9, 0.99], grid)
    assert rows[0][1] > rows[1][1]
    with pytest.raises(ValueError):
        q_to_one_experiment(builtin("square"), StancuParams(), [0.99, 0.9], grid)
    with pytest.raises(ValueError):
        q_to_one_experiment(builtin("square"), StancuParams(), [0.9, 1.0], grid)


def test_fixed_point_values():
    st = StancuParams()
    assert fixed_point_check(builtin("const:7.3"), 0.5, st) <= 1e-10
    # D_inf(t; x) - x = (1-q)(1-x), maximal at x = 0
    assert fixed_point_check(builtin("id"), 0.5, st) == pytest.approx(0.5, abs=1e-10)
    assert fixed_point_check(builtin("square"), 0.5, st) > 0.05



@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("stancu", [StancuParams(), StancuParams(1.0, 2.0)], ids=str)
def test_rate_experiment_matches_the_closed_form_distance(q, stancu):
    # for f = t^2 both operators have closed forms, so every sup_diff(n) is
    # pinned to max_x |D_n(t^2; x) - D_inf(t^2; x)| on the grid
    ns = np.arange(5, 61)
    xs = DEFAULT_GRID.xs
    want = np.max(np.abs(finite_moment_at(ns[:, None], q, stancu, 2, xs)
                         - limit_moment(q, stancu, 2, xs)), axis=1)
    rows = rate_experiment(builtin("square"), q, stancu, range(5, 61)).rows
    assert [row[0] for row in rows] == ns.tolist()
    assert np.abs(np.array([row[1] for row in rows]) - want).max() <= 1e-14

def test_basis_inequality():
    assert basis_inequality_check(10, 0.8, GridSpec(101)) <= 1e-12
    with pytest.raises(ValueError):
        basis_inequality_check(5, 1.0, GridSpec(11))


def test_basis_inequality_skips_subnormal_pairs():
    # at n = 200, q = 0.9 some p_nk underflow to 0 where p_inf,k is subnormal
    assert basis_inequality_check(200, 0.9, GridSpec(101)) <= 0.0


@pytest.mark.parametrize(
    "n, q, total",
    [(5, 0.5, "0x1.4e5e6c06ab7e9p+5"), (20, 0.8, "0x1.7763c15b898efp+5"),
     (40, 0.95, "0x1.5a452d83eb7b1p+5")],
)
def test_basis_inequality_computes_log_pochhammer_once_per_x(n, q, total):
    # limit_basis(k, q, x) at every k <= n of each x reads one memoised
    # log (x;q)_inf; total is the exact sum of every value as computed
    # without the memo
    assert _log_pochhammer.cache_info().maxsize == 256
    _log_pochhammer.cache_clear()
    grid = GridSpec(51)
    assert basis_inequality_check(n, q, grid) == 0.0
    assert _log_pochhammer.cache_info().misses == 51
    values = [limit_basis(k, q, x) for x in grid.xs for k in range(n + 1)]
    assert math.fsum(values) == float.fromhex(total)
