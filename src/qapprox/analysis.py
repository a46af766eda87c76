"""Modulus of continuity, sup-norm estimation and the experiment
procedures probing the limit operator's convergence behavior.

The modulus of continuity is estimated on a grid and is therefore a lower
bound that converges under grid refinement; inequality assertions involving
it must budget a slack of about 2*Lip/(points-1).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import durrmeyer
from .basis import INFINITE, basis_row, limit_basis
from .durrmeyer import OperatorSpec
from .qcore import DEFAULT_POLICY, NumericError, as_q


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid on [0,1] including both endpoints."""

    points: int = 1001

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("a grid needs at least 2 points")

    @property
    def xs(self):
        return np.linspace(0.0, 1.0, self.points)

    @property
    def spacing(self):
        return 1.0 / (self.points - 1)


DEFAULT_GRID = GridSpec()


def _values(f, xs):
    vals = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
    if not np.all(np.isfinite(vals)):
        raise NumericError("function produced non-finite values on the grid")
    return vals


def modulus_of_continuity(f, t, grid=DEFAULT_GRID):
    """Grid estimate of omega(f, t) = sup{|f(x)-f(y)| : |x-y| <= t}.

    Pairs within t plus half a grid spacing of slack are compared, so the
    estimate is exact for grid-aligned extrema and a lower bound otherwise.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    vals = _values(f, grid.xs)
    h = grid.spacing
    d_max = int(math.floor(t / h + 0.5 + 1e-12))
    best = 0.0
    for d in range(1, d_max + 1):
        diff = np.max(np.abs(vals[d:] - vals[:-d]))
        if diff > best:
            best = float(diff)
    return best


def sup_norm_diff(f, g, grid=DEFAULT_GRID):
    """max over the grid of |f - g|."""
    return float(np.max(np.abs(_values(f, grid.xs) - _values(g, grid.xs))))


@dataclass
class RateReport:
    """Finite-vs-limit sup distances with modulus-of-continuity ratios."""

    rows: list = field(default_factory=list)  # (n, sup_diff, omega, ratio)

    @property
    def estimated_constant(self):
        ratios = [r[3] for r in self.rows if not math.isnan(r[3])]
        return max(ratios, default=float("nan"))


def rate_experiment(f, q, stancu, n_list, grid=DEFAULT_GRID, policy=DEFAULT_POLICY):
    """Rows (n, ||D_n f - D_inf f||_grid, omega(f, q^n), ratio)."""
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("the rate experiment requires q < 1")
    n_list = list(n_list)
    if sorted(n_list) != n_list:
        raise ValueError("n_list must be increasing")
    xs = grid.xs
    limit_spec = OperatorSpec(INFINITE, qv, stancu, policy)
    limit_vals = durrmeyer.apply_limit(limit_spec, f, xs)
    report = RateReport()
    for n in n_list:
        spec = OperatorSpec(n, qv, stancu, policy)
        finite_vals = durrmeyer.apply_finite(spec, f, xs)
        sup_diff = float(np.max(np.abs(finite_vals - limit_vals)))
        omega = modulus_of_continuity(f, qv**n, grid)
        ratio = sup_diff / omega if omega > 0 else float("nan")
        report.rows.append((n, sup_diff, omega, ratio))
    return report


def q_to_one_experiment(f, stancu, q_list, grid=DEFAULT_GRID, policy=DEFAULT_POLICY):
    """||D_inf,q f - f||_grid for each q; expected to shrink as q -> 1-."""
    q_list = list(q_list)
    if sorted(q_list) != q_list or any(qv >= 1.0 for qv in q_list):
        raise ValueError("q_list must increase toward 1 with every q < 1")
    xs = grid.xs
    f_vals = _values(f, xs)
    out = []
    for qv in q_list:
        spec = OperatorSpec(INFINITE, qv, stancu, policy)
        vals = durrmeyer.apply_limit(spec, f, xs)
        out.append((qv, float(np.max(np.abs(vals - f_vals)))))
    return out


def fixed_point_check(f, q, stancu, grid=DEFAULT_GRID, policy=DEFAULT_POLICY):
    """||D_inf f - f||_grid; zero exactly for constants and only for them."""
    spec = OperatorSpec(INFINITE, as_q(q), stancu, policy)
    xs = grid.xs
    vals = durrmeyer.apply_limit(spec, f, xs)
    return float(np.max(np.abs(vals - _values(f, xs))))


def basis_inequality_check(n, q, grid=DEFAULT_GRID, policy=DEFAULT_POLICY):
    """Max over k <= n and grid x of |p_nk - p_inf,k| - (q^(n-k)/(1-q))(p_nk + p_inf,k)."""
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("the basis inequality requires q < 1")
    worst = -math.inf
    for x in grid.xs:
        finite = basis_row(n, qv, x)
        for k in range(n + 1):
            p_inf = limit_basis(k, qv, x, policy)
            lhs = abs(finite[k] - p_inf)
            rhs = qv ** (n - k) / (1.0 - qv) * (finite[k] + p_inf)
            worst = max(worst, lhs - rhs)
    return worst
