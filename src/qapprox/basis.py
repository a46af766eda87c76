"""Finite q-Bernstein basis p_{nk}(q;x) and its limit basis p_{inf,k}(q;x).

The limit basis is evaluated in log space: for q close to 1 both the Euler
products prod(1 - q^i) and the basis values themselves underflow long before
their ratios do.
"""

import math
from functools import lru_cache

import numpy as np

from .qcore import (
    DEFAULT_POLICY,
    as_q,
    log_q_pochhammer_inf,
    q_binomial_row,
)

# Marker for the n -> infinity basis/operator degree.
INFINITE = None


@lru_cache(maxsize=128)
def _euler_table(qv):
    """Prefix log-products logc[k] = log prod_{i=1}^{k} (1 - q^i), read-only.

    The sequence converges; entries past the convergence index reuse the
    limiting value.  Returns (logc array, log of the infinite product, the
    rounding residual of each logc entry): the prefix sums are accumulated
    in extended precision, and logc + residual keeps it, so differences of
    entries near log c_inf need not cancel in float64.
    """
    if qv >= 1.0:
        raise ValueError("Euler product requires q < 1")
    i_max = max(4, int(math.ceil(math.log(1e-18) / math.log(qv))) + 2)
    logs = np.log1p(-(qv ** np.arange(1, i_max + 1)))
    # a float64 running sum drifts by ~1e-12 over the 3e4 terms of q = 0.999,
    # which skews the limit basis weights across k; extended precision does not
    exact = np.zeros(i_max + 1, dtype=np.longdouble)
    np.cumsum(logs, dtype=np.longdouble, out=exact[1:])
    del logs
    logc = exact.astype(float)
    exact -= logc
    residual = exact.astype(float)  # exact: at most 11 bits
    logc.flags.writeable = False
    residual.flags.writeable = False
    return logc, float(logc[-1]), residual


def _padded(row, K):
    """Entries 0..K of a table that converges, its last entry repeated past its end."""
    if K < len(row):
        return row[: K + 1]
    return np.concatenate((row, np.full(K + 1 - len(row), row[-1])))


def _log_c_row(qv, K):
    """log c_k = log prod_{i=1}^{k} (1 - q^i) for k = 0..K."""
    return _padded(_euler_table(qv)[0], K)


def basis_matrix(n, q, xs, k_max=None):
    """Rows p_{nk}(q;x), k = 0..k_max (default n), one per x of xs, built from
    cumulative products along k of the powers x^k and the q-Pochhammer
    (x;q)_m = prod_{i<m} (1 - q^i x).

    Column k needs (x;q)_{n-k}, so the columns k <= k_max need m >= n - k_max
    only: the head (x;q)_{n-k_max} is one product over its factors, k-major
    and reduced along k, the same left-to-right product as the cumulative
    one.  From the first i with q^i <= 2^-54 on, 1 - q^i x rounds to 1.0 and
    leaves a product's bits as they are, so (x;q)_m is (x;q)_live for
    m >= live (two factors to spare) and the factors past live are never
    formed.  Every entry has the bits of the plain left-to-right scan of the
    whole row."""
    qv = as_q(q)
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    K = n if k_max is None else k_max
    if not 0 <= K <= n:
        raise ValueError(f"k_max must lie in 0..{n}, got {K}")
    live = n if qv**n > 2.0**-54 else min(n, math.ceil(math.log(2.0**-54) / math.log(qv)) + 2)
    lo = n - K  # column j of poch is (x;q)_{lo + j}
    span = max(0, live - lo)  # the factors of its columns 1.. that may differ from 1.0
    col = xs[:, None]
    q_pow = qv ** np.arange(live)
    powers = np.ones((len(xs), K + 1))
    poch = np.ones((len(xs), K + 1))
    np.cumprod(np.broadcast_to(col, (len(xs), K)), axis=1, out=powers[:, 1:])
    factors = 1.0 - q_pow[lo:] * col
    if lo:
        poch[:, 0] = np.multiply.reduce(1.0 - np.multiply.outer(q_pow[:lo], xs), axis=0)
        factors[:, :1] *= poch[:, :1]
    np.cumprod(factors, axis=1, out=poch[:, 1 : span + 1])
    if span < K:
        poch[:, span + 1 :] = poch[:, span : span + 1]
    powers *= q_binomial_row(n, qv)[: K + 1]  # in place, in the scan's order of products
    powers *= poch[:, ::-1]
    return powers


def basis_row(n, q, x):
    """All p_{nk}(q;x), k = 0..n, at one x."""
    return basis_matrix(n, q, [x])[0]


@lru_cache(maxsize=256)
def _log_pochhammer(x, qv, policy):
    """log (x;q)_inf at one x; limit_basis reads it at every k of the same x."""
    return log_q_pochhammer_inf(x, qv, policy)


def log_limit_basis(k, q, x, policy=DEFAULT_POLICY):
    """log p_{inf,k}(q;x) = k log x + log (x;q)_inf - log c_k for x in [0,1];
    -inf where the basis vanishes.  log (x;q)_inf (-inf at x = 1, where the
    s = 0 factor vanishes) is memoised per (x, q, policy)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    qv = as_q(q)
    if qv == 1.0 or not (0.0 <= x <= 1.0):
        raise ValueError("the limit basis requires q < 1 and x in [0, 1]")
    log_pi = _log_pochhammer(float(x), qv, policy)
    if x == 0.0:
        return 0.0 if k == 0 else -math.inf
    logc, logc_inf, _ = _euler_table(qv)
    return float(k * math.log(x) + log_pi - (logc[k] if k < len(logc) else logc_inf))


def limit_basis(k, q, x, policy=DEFAULT_POLICY):
    """p_{inf,k}(q;x) = x^k / ((1-q)^k [k]_q!) * prod_{s>=0}(1 - q^s x)."""
    return math.exp(log_limit_basis(k, q, x, policy))
