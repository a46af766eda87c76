"""Alpha-beta statistical density machinery and the Korovkin-style
empirical harness.

Index sequences (the members of an index set, a sequence x_k and the
weights s_k) are array-valued: an int64 index array in, a bool or float
array of its shape (or a broadcast scalar) out.  Every density, trajectory
and weighted mean is one blocked pass over the span of its windows.

Only finite-n trajectories are ever reported: limits of densities are not
computable, so "convergence" is something tests assert through trajectory
bounds, never through extrapolation.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import moments
from .durrmeyer import StancuParams
from .qcore import BLOCK_ENTRIES


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


def _at(seq, ks, dtype):
    """The index sequence seq on the index array ks, as an array of ks's shape."""
    return np.broadcast_to(np.asarray(seq(ks), dtype=dtype), ks.shape)


@dataclass(frozen=True)
class DensityQuery:
    """A density question: window pair, order gamma and index set K
    (members: an index predicate, int64 array in, bool array out)."""

    pair: AlphaBetaPair = CLASSICAL_PAIR
    gamma: float = 1.0
    members: Callable[[np.ndarray], np.ndarray] = lambda k: False

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class WeightSequence:
    """Nonnegative weights s_k with s_0 > 0 (s: int64 array in, float array out)."""

    s: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not _at(self.s, np.zeros(1, dtype=np.int64), float)[0] > 0:  # also rejects nan
            raise ValueError("s_0 must be positive")


ONES = WeightSequence(s=lambda k: 1.0)


def window(pair, n):
    """Integers in [alpha(n), beta(n)] as a range.  An empty window is an
    error, as is one whose ends lo and hi + 1 do not fit in int64."""
    if n < 1:
        raise ValueError("n must be at least 1")
    lo = math.ceil(pair.alpha(n))
    hi = math.floor(pair.beta(n))
    if hi < lo:
        raise ValueError(f"empty window at n={n}: [{pair.alpha(n)}, {pair.beta(n)}]")
    if lo < -(2**63) or hi + 1 > 2**63 - 1:  # the scans index the ends in int64
        raise ValueError(f"window [{lo}, {hi}] at n={n} exceeds the int64 index range")
    return range(lo, hi + 1)


def _window_sums(pair, n_list, columns):
    """Sums of columns(k) over each window P_n, n in n_list, in one pass.

    columns maps an int64 array of consecutive indices to a 2-D array, one
    row per index.  The pass walks [min alpha(n), max beta(n)] in blocks of
    at most BLOCK_ENTRIES indices, calls columns once per block and keeps
    running totals at the window ends, so each window sum is the difference
    of two totals.  Bool and integer columns are totalled exactly in int64.
    Float columns are totalled in np.longdouble (80-bit extended precision
    on x86-64), so the rounding that a long prefix carries into the
    difference stays below that of a direct float64 sum over the window.
    Returns the windows and a 2-D array of sums (int64 or float64), one row
    per n.
    """
    wins = [window(pair, n) for n in n_list]
    ends = np.array([(w.start, w.stop) for w in wins], dtype=np.int64).reshape(-1, 2)
    first, last = (int(ends.min()), int(ends.max())) if wins else (0, 0)
    totals = carry = None
    # with no windows, one empty block still gives the sums their width
    for start in range(first, last, BLOCK_ENTRIES) or [first]:
        stop = min(start + BLOCK_ENTRIES, last)
        block = np.asarray(columns(np.arange(start, stop, dtype=np.int64)))
        if totals is None:
            dtype = np.longdouble if block.dtype.kind == "f" else np.int64
            totals = np.zeros(ends.shape + block.shape[1:], dtype=dtype)
            carry = np.zeros(block.shape[1:], dtype=dtype)
        # cum[i] is carry plus the total of the block's first i rows
        cum = np.zeros((len(block) + 1,) + block.shape[1:], dtype=dtype)
        np.cumsum(block, axis=0, dtype=dtype, out=cum[1:])
        cum += carry
        here = (ends >= start) & (ends <= stop)
        totals[here] = cum[ends[here] - start]
        carry = cum[-1]
    sums = totals[:, 1] - totals[:, 0]
    return wins, sums if dtype == np.int64 else sums.astype(float)


def _normed(gamma, counts, sn, n_list):
    """count / S_n^gamma for each n, once every S_n is checked positive."""
    for n, s in zip(n_list, sn):
        if not s > 0.0:  # also rejects nan
            raise ValueError(f"S_n must be positive, got {s} at n={n}")
    return [c / s**gamma for c, s in zip(counts, sn)]


def empirical_density(query, n):
    """|K intersect P_n| / (beta(n) - alpha(n) + 1)^gamma at finite n."""
    (win,), sums = _window_sums(query.pair, [n], lambda ks: _at(query.members, ks, bool)[:, None])
    return int(sums[0, 0]) / float(len(win)) ** query.gamma


def _exceedances(values, eps_list, query, weights, n_list):
    """Weighted density trajectories |{k in P_n : s_k v_k >= eps}| / S_n^gamma
    of every column v of values(k) and every eps of eps_list, in one pass.

    values maps an int64 index array to a 2-D array, one row per index.
    Returns the trajectories eps-major: (eps_0, v_0), (eps_0, v_1), ...
    """
    for eps in eps_list:
        if not (math.isfinite(eps) and eps > 0):  # nan fails both tests
            raise ValueError(f"eps must be finite and positive, got {eps}")

    def columns(ks):
        s = _at(weights.s, ks, float)
        v = s[:, None] * values(ks)
        return np.column_stack([s] + [v >= eps for eps in eps_list])

    _, sums = _window_sums(query.pair, n_list, columns)
    sn = sums[:, 0].tolist()
    return [_normed(query.gamma, col.tolist(), sn, n_list) for col in sums[:, 1:].T]


def ab_stat_trajectory(x, ell, eps, query, n_list):
    """Density trajectory of the exceedance set {k : |x_k - ell| >= eps}."""
    return weighted_trajectory(x, ell, eps, query, ONES, n_list)


def weighted_trajectory(x, ell, eps, query, weights, n_list):
    """Weighted density trajectory: |{k in P_n : s_k |x_k - ell| >= eps}| / S_n^gamma."""
    (traj,) = _exceedances(
        lambda ks: np.abs(_at(x, ks, float) - ell)[:, None], [eps], query, weights, n_list
    )
    return traj


def weighted_mean(x, weights, query, n):
    """z_n = S_n^(-gamma) sum_{k in P_n} s_k x_k."""

    def columns(ks):
        s = _at(weights.s, ks, float)
        return np.column_stack((s, s * _at(x, ks, float)))

    _, sums = _window_sums(query.pair, [n], columns)
    sn, acc = sums[0].tolist()
    (z,) = _normed(query.gamma, [acc], [sn], [n])
    return z


def qn_sequence(a, n):
    """q_n = a^(1/n): q_n -> 1 with q_n^n = a exactly and 1/[n]_{q_n} -> 0.

    n may be an integer array (array out).
    """
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0, 1)")
    if np.any(np.asarray(n) < 1):
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


def _monomial_errors(a, stancu, ks, xs):
    """e_i(k) = max over xs of |D_k(t^i; x) - x^i| at q_k = a^(1/k), i = 0, 1, 2.

    One row per k of the index array ks, from the closed-form moments
    evaluated on (k x grid) row blocks of at most BLOCK_ENTRIES entries, all
    three from one set of q-integers per block.
    """
    out = np.empty((len(ks), 3))
    rows = max(1, BLOCK_ENTRIES // max(1, len(xs)))
    for r in range(0, len(ks), rows):
        kb = ks[r : r + rows, None]
        qb = qn_sequence(a, kb)
        for i, m in enumerate(moments._finite_moments(kb, qb, stancu, xs)):
            vals = np.broadcast_to(m, (len(kb), len(xs)))
            out[r : r + rows, i] = np.max(np.abs(vals - xs**i), axis=1)
    return out


def korovkin_harness(a, stancu, n_list, grid_xs, query=None, eps_list=(), weights=ONES):
    """Monomial sup-errors of D_{n,q_n} and their weighted density trajectories.

    e_i(k) is evaluated through the verified closed-form moments, for all k
    of a block at once; the density trajectories treat {e_i(k)} as the
    sequence under test with limit 0, every (i, eps) in one pass.
    """
    n_list = list(n_list)
    if any(lo >= hi for lo, hi in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if query is None:
        query = DensityQuery()
    stancu = stancu or StancuParams()
    xs = np.asarray(grid_xs, dtype=float)

    report = KorovkinReport(a=a, n_list=n_list)
    report.qn = [qn_sequence(a, n) for n in n_list]
    errors = _monomial_errors(a, stancu, np.array(n_list, dtype=np.int64), xs)
    for i in range(3):
        report.errors[i] = errors[:, i].tolist()
    if eps_list:
        trajs = _exceedances(
            lambda ks: _monomial_errors(a, stancu, ks, xs), eps_list, query, weights, n_list
        )
        keys = [(i, eps) for eps in eps_list for i in range(3)]
        report.densities.update(zip(keys, trajs))
    return report
