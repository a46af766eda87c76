"""Alpha-beta statistical density machinery and the Korovkin-style
empirical harness.

Only finite-n trajectories are ever reported: limits of densities are not
computable, so "convergence" is something tests assert through trajectory
bounds, never through extrapolation.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import moments
from .durrmeyer import OperatorSpec, StancuParams


@dataclass(frozen=True)
class AlphaBetaPair:
    """Window sequences alpha(n), beta(n) defining P_n = [alpha(n), beta(n)]."""

    alpha: Callable[[int], float]
    beta: Callable[[int], float]

    def validate_on(self, ns):
        """Check the window conditions on a sampled range of n values."""
        prev_a = prev_b = -math.inf
        gaps = []
        for n in sorted(ns):
            a, b = self.alpha(n), self.beta(n)
            if a < prev_a or b < prev_b:
                raise ValueError(f"alpha/beta must be nondecreasing (violated at n={n})")
            if b < a:
                raise ValueError(f"beta(n) >= alpha(n) violated at n={n}")
            prev_a, prev_b = a, b
            gaps.append(b - a)
        if len(gaps) >= 2 and gaps[-1] <= gaps[0]:
            raise ValueError("beta(n) - alpha(n) must grow on the probed range")


CLASSICAL_PAIR = AlphaBetaPair(alpha=lambda n: 1, beta=lambda n: n)


@dataclass(frozen=True)
class DensityQuery:
    """A density question: window pair, order gamma and index set K."""

    pair: AlphaBetaPair = CLASSICAL_PAIR
    gamma: float = 1.0
    members: Callable[[int], bool] = lambda k: False

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class WeightSequence:
    """Nonnegative weights s_k with s_0 > 0."""

    s: Callable[[int], float]

    def __post_init__(self):
        if self.s(0) <= 0:
            raise ValueError("s_0 must be positive")


ONES = WeightSequence(s=lambda k: 1.0)


def window(pair, n):
    """Integers in [alpha(n), beta(n)] as a range; empty windows are errors."""
    if n < 1:
        raise ValueError("n must be at least 1")
    lo = math.ceil(pair.alpha(n))
    hi = math.floor(pair.beta(n))
    if hi < lo:
        raise ValueError(f"empty window at n={n}: [{pair.alpha(n)}, {pair.beta(n)}]")
    return range(lo, hi + 1)


def empirical_density(query, n):
    """|K intersect P_n| / (beta(n) - alpha(n) + 1)^gamma at finite n."""
    win = window(query.pair, n)
    count = sum(1 for k in win if query.members(k))
    return count / float(len(win)) ** query.gamma


def ab_stat_trajectory(x, ell, eps, query, n_list):
    """Density trajectory of the exceedance set {k : |x_k - ell| >= eps}."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    exceeds = DensityQuery(
        pair=query.pair,
        gamma=query.gamma,
        members=lambda k: abs(x(k) - ell) >= eps,
    )
    return [empirical_density(exceeds, n) for n in n_list]


def weighted_trajectory(x, ell, eps, query, weights, n_list):
    """Weighted density trajectory: |{k in P_n : s_k |x_k - ell| >= eps}| / S_n^gamma."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = []
    for n in n_list:
        win = window(query.pair, n)
        sn = 0.0
        count = 0
        for k in win:
            sk = weights.s(k)
            sn += sk
            if sk * abs(x(k) - ell) >= eps:
                count += 1
        if sn <= 0.0:
            raise ValueError(f"S_n is zero at n={n}")
        out.append(count / sn**query.gamma)
    return out


def weighted_mean(x, weights, query, n):
    """z_n = S_n^(-gamma) sum_{k in P_n} s_k x_k."""
    win = window(query.pair, n)
    sn = 0.0
    acc = 0.0
    for k in win:
        sk = weights.s(k)
        sn += sk
        acc += sk * x(k)
    if sn <= 0.0:
        raise ValueError(f"S_n is zero at n={n}")
    return acc / sn**query.gamma


def qn_sequence(a, n):
    """q_n = a^(1/n): q_n -> 1 with q_n^n = a exactly and 1/[n]_{q_n} -> 0."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    return a ** (1.0 / n)


@dataclass
class KorovkinReport:
    """Sup-norm monomial errors e_i(n) along q_n = a^(1/n), plus densities."""

    a: float
    n_list: list
    qn: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # i -> [e_i(n) for n in n_list]
    densities: dict = field(default_factory=dict)  # (i, eps) -> trajectory

    def rows(self):
        base = list(zip(self.n_list, self.qn, self.errors[0], self.errors[1], self.errors[2]))
        extra = [self.densities[key] for key in sorted(self.densities)]
        return [row + tuple(col[i] for col in extra) for i, row in enumerate(base)]

    def columns(self):
        cols = ["n", "qn", "e0", "e1", "e2"]
        cols += [f"dens{i}_eps{eps:g}" for i, eps in sorted(self.densities)]
        return cols


def _monomial_error(a, stancu, k, xs):
    """e_i(k) for i = 0, 1, 2 via the closed-form moments at q_k = a^(1/k)."""
    spec = OperatorSpec(k, qn_sequence(a, k), stancu)
    out = []
    for i in range(3):
        vals = moments.finite_moment(spec, i, xs)
        out.append(float(np.max(np.abs(vals - xs**i))))
    return out


def korovkin_harness(a, stancu, n_list, grid_xs, query=None, eps_list=(), weights=ONES):
    """Monomial sup-errors of D_{n,q_n} and their weighted density trajectories.

    e_i(k) is evaluated through the verified closed-form moments so windows
    up to k ~ 10^3 stay cheap; the density trajectories treat {e_i(k)} as the
    sequence under test with limit 0.
    """
    n_list = list(n_list)
    if any(b > a2 for a2, b in zip(n_list[1:], n_list)):
        raise ValueError("n_list must be increasing")
    if query is None:
        query = DensityQuery()
    stancu = stancu or StancuParams()
    xs = np.asarray(grid_xs, dtype=float)

    report = KorovkinReport(a=a, n_list=n_list)
    cache = {}

    def e(i, k):
        if k not in cache:
            cache[k] = _monomial_error(a, stancu, k, xs)
        return cache[k][i]

    for n in n_list:
        report.qn.append(qn_sequence(a, n))
    for i in range(3):
        report.errors[i] = [e(i, n) for n in n_list]
    for eps in eps_list:
        for i in range(3):
            traj = weighted_trajectory(
                lambda k, i=i: e(i, k), 0.0, eps, query, weights, n_list
            )
            report.densities[(i, eps)] = traj
    return report
