"""Finite q-Bernstein basis p_{nk}(q;x) and its limit basis p_{inf,k}(q;x).

The limit basis is evaluated in log space: for q close to 1 both the Euler
products prod(1 - q^i) and the basis values themselves underflow long before
their ratios do.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import (
    DEFAULT_POLICY,
    SeriesLimitError,
    as_q,
    log_q_pochhammer_inf,
    q_binomial_row,
)

# Marker for the n -> infinity basis/operator degree.
INFINITE = None


@dataclass(frozen=True)
class BasisPoint:
    """An (n, k, q, x) evaluation point; n = INFINITE selects the limit basis."""

    n: object
    k: int
    q: float
    x: float

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not (0.0 <= self.x <= 1.0):
            raise ValueError("x must lie in [0, 1]")
        qv = as_q(self.q)
        if self.n is INFINITE:
            if qv == 1.0:
                raise ValueError("the limit basis requires q < 1")
        elif self.n < 0:
            raise ValueError("n must be nonnegative")


@lru_cache(maxsize=128)
def _euler_table(qv):
    """Prefix log-products logc[k] = log prod_{i=1}^{k} (1 - q^i), read-only.

    The sequence converges; entries past the convergence index reuse the
    limiting value.  Returns (logc array, log of the infinite product).
    """
    if qv >= 1.0:
        raise ValueError("Euler product requires q < 1")
    i_max = max(4, int(math.ceil(math.log(1e-18) / math.log(qv))) + 2)
    logs = np.log1p(-(qv ** np.arange(1, i_max + 1)))
    # a float64 running sum drifts by ~1e-12 over the 3e4 terms of q = 0.999,
    # which skews the limit basis weights across k; extended precision does not
    logc = np.concatenate(([0.0], np.cumsum(logs.astype(np.longdouble)).astype(float)))
    logc.flags.writeable = False
    return logc, float(logc[-1])


def _log_c_row(qv, K):
    """log c_k = log prod_{i=1}^{k} (1 - q^i) for k = 0..K."""
    logc, logc_inf = _euler_table(qv)
    if K < len(logc):
        return logc[: K + 1]
    return np.concatenate((logc, np.full(K + 1 - len(logc), logc_inf)))


def bernstein_basis(n, k, q, x):
    """p_{nk}(q;x) = C(n,k)_q x^k (1-x)_q^{n-k}; zero for k outside 0..n."""
    if k < 0 or k > n:
        return 0.0
    return float(basis_row(n, q, x)[k])


def basis_matrix(n, q, xs):
    """Rows p_{nk}(q;x), k = 0..n, one per x of xs, built from cumulative
    products along k of the powers x^k and the q-Pochhammer (1-x)_q^m."""
    qv = as_q(q)
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    col = xs[:, None]
    powers = np.ones((len(xs), n + 1))
    poch = np.ones((len(xs), n + 1))
    np.cumprod(np.broadcast_to(col, (len(xs), n)), axis=1, out=powers[:, 1:])
    np.cumprod(1.0 - (qv ** np.arange(n)) * col, axis=1, out=poch[:, 1:])
    return q_binomial_row(n, qv) * powers * poch[:, ::-1]


def basis_row(n, q, x):
    """All p_{nk}(q;x), k = 0..n, at one x."""
    return basis_matrix(n, q, [x])[0]


def log_limit_row(q, x, K=None, policy=DEFAULT_POLICY):
    """log p_{inf,k}(q;x) for k = 0..K at one x in [0, 1]; -inf where the basis vanishes.

    log p_{inf,k} = k log x + log (x;q)_inf - log c_k.  For x < 1, K defaults
    to the truncation index of the limit series at x: the smallest K past
    which every basis value is below rel_eps.
    """
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("the limit basis requires q < 1")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:  # p_{inf,k}(q;0) = [k = 0]
        row = np.full(1 if K is None else K + 1, -math.inf)
        row[0] = 0.0
        return row
    log_pi = log_q_pochhammer_inf(x, qv, policy)  # -inf at x = 1, where the s = 0 factor vanishes
    log_x = math.log(x)
    if K is None:
        k = (math.log(policy.rel_eps) - 2.0 - log_pi + _euler_table(qv)[1]) / log_x
        K = max(8, int(math.ceil(k)))
        if K > policy.max_terms:
            raise SeriesLimitError("limit operator k-series exceeds max_terms")
    return np.arange(K + 1) * log_x + log_pi - _log_c_row(qv, K)


def log_limit_basis(k, q, x, policy=DEFAULT_POLICY):
    """log p_{inf,k}(q;x) for x in [0,1]; -inf where the basis vanishes."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(log_limit_row(q, x, k, policy)[k])


def limit_basis(k, q, x, policy=DEFAULT_POLICY):
    """p_{inf,k}(q;x) = x^k / ((1-q)^k [k]_q!) * prod_{s>=0}(1 - q^s x)."""
    return math.exp(log_limit_basis(k, q, x, policy))


def limit_basis_identity_sums(q, x, policy=DEFAULT_POLICY):
    """Sums s_m = sum_k (1-q^k)^m p_{inf,k}(q;x) for m = 0, 1, 2.

    Contract: s0 = 1, s1 = x, s2 = x^2 + (1-q)x(1-x) on [0, 1).
    """
    qv = as_q(q)
    if not (0.0 <= x < 1.0):
        raise ValueError("identity sums require x in [0, 1)")
    p = np.exp(log_limit_row(qv, x, policy=policy))
    w = 1.0 - qv ** np.arange(len(p))
    return float(np.sum(p)), float(w @ p), float((w * w) @ p)
