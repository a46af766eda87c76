"""q-calculus primitives: q-integers, q-factorials, Gaussian binomials,
q-Pochhammer products and the Jackson q-integral on [0,1].

All routines are pure, deterministic (fixed summation order) and define the
q = 1 limit by continuity, so classical values can serve as oracles.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate


class QApproxError(Exception):
    """Base class for numerical failures in this package."""


class SeriesLimitError(QApproxError):
    """A series or product hit its term cap before its stopping criterion."""


class NumericError(QApproxError):
    """A non-finite value appeared where a finite one is required."""


def as_q(q) -> float:
    """Coerce a number to a validated float q in (0, 1]; q = 1 is the classical branch."""
    qv = float(q)
    if not (0.0 < qv <= 1.0):
        raise ValueError(f"q must lie in (0, 1], got {qv}")
    return qv


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls every infinite series/product evaluated by the package."""

    rel_eps: float = 1e-14
    max_terms: int = 10**6

    def __post_init__(self):
        if self.rel_eps <= 0:
            raise ValueError("rel_eps must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = TruncationPolicy()


def q_integer(n, q):
    """[n]_q = (1 - q^n)/(1 - q), with [n]_1 = n and [0]_q = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    qv = as_q(q)
    if qv == 1.0:
        return float(n)
    return (1.0 - qv**n) / (1.0 - qv)


def q_factorial(n, q):
    """[n]_q! = prod_{j=1}^{n} [j]_q, empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    qv = as_q(q)
    out = 1.0
    for j in range(1, n + 1):
        out *= q_integer(j, qv)
    if not math.isfinite(out):
        raise NumericError(f"q_factorial({n}) overflowed")
    return out


def q_binomial(n, k, q):
    """Gaussian binomial coefficient via the q-Pascal recurrence.

    Returns 0 for k < 0 or k > n.  The recurrence
    C(n,k)_q = C(n-1,k-1)_q + q^k C(n-1,k)_q involves only nonnegative
    additions, so it is numerically stable.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0.0
    qv = as_q(q)
    if qv == 1.0:
        return float(math.comb(n, k))
    return q_binomial_row(n, qv)[k]


def q_binomial_row(n, q):
    """All Gaussian binomials C(n,k)_q for k = 0..n (read-only, cached)."""
    return _q_binomial_row_cached(n, as_q(q))


@lru_cache(maxsize=4096)
def _q_binomial_row_cached(n, qv):
    row = np.array([1.0])
    with np.errstate(over="ignore"):  # reported below, as a typed error
        for m in range(1, n + 1):
            # new[k] = C(m-1,k-1)_q + q^k C(m-1,k)_q
            new = np.zeros(m + 1)
            new[1:] = row
            new[:m] += (qv ** np.arange(m)) * row
            row = new
    if not np.all(np.isfinite(row)):
        raise NumericError(f"Gaussian binomial row n={n}, q={qv} overflows a float")
    row.flags.writeable = False
    return row


def q_pochhammer(x, q, m, policy=DEFAULT_POLICY):
    """(1 - x)_q^m = prod_{s=0}^{m-1} (1 - q^s x).

    m may be math.inf (or None), which requires q < 1 strictly; the
    infinite product is exp(log_q_pochhammer_inf).
    """
    qv = as_q(q)
    if m is None:
        m = math.inf
    if m == math.inf:
        return math.exp(log_q_pochhammer_inf(x, qv, policy))
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = 1.0
    for s in range(int(m)):
        out *= 1.0 - (qv**s) * x
    return out


def log_q_pochhammer_inf(x, q, policy=DEFAULT_POLICY):
    """log prod_{s>=0} (1 - q^s x) for q < 1; -inf when a factor vanishes.

    The S factors with q^s |x| > 1/2 are summed as logarithms.  The rest,
    with y = q^S x and |y| <= 1/2, is the series
    log (y;q)_inf = -sum_{m>=1} y^m / (m (1 - q^m)),
    whose m-th term is at most |y|^(m-1) / m times the first; it stops once
    |y|^(m-1) < rel_eps.  The S logarithms and the series terms together
    count against max_terms.
    """
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("infinite q-Pochhammer requires q < 1")
    if x == 0.0:
        return 0.0
    if x >= 1.0:  # the s = 0 factor is the smallest
        if x == 1.0:
            return -math.inf
        raise NumericError("q-Pochhammer factor negative at s=0")
    lnq = math.log(qv)
    S = max(0, math.ceil(math.log(0.5 / abs(x)) / lnq))
    y = x * qv**S
    while abs(y) > 0.5:  # S one short by rounding
        S, y = S + 1, y * qv
    M = max(1, math.ceil(math.log(policy.rel_eps) / math.log(abs(y))) + 1)
    if S + M > policy.max_terms:
        raise SeriesLimitError("q-Pochhammer product exceeded max_terms")
    m = np.arange(1, M + 1)
    tail = np.sum(y**m / (m * -np.expm1(m * lnq)))
    return float(np.sum(np.log1p(-(qv ** np.arange(S)) * x)) - tail)


def jackson_integral(f, q, policy=DEFAULT_POLICY):
    """Jackson q-integral of f over [0,1]: (1-q) sum_j q^j f(q^j).

    Uses compensated (Kahan) summation in ascending j and stops only after
    two consecutive terms fall below rel_eps relative to the accumulated
    magnitude.  At q = 1 the integral is the classical one and is computed
    by adaptive quadrature.
    """
    qv = as_q(q)
    if qv == 1.0:
        val, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    total = 0.0
    comp = 0.0
    magnitude = 0.0
    small_streak = 0
    node = 1.0
    for _ in range(policy.max_terms):
        fval = f(node)
        if not math.isfinite(fval):
            raise NumericError(f"integrand non-finite at t={node}")
        term = node * fval
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        magnitude += abs(term)
        if abs(term) <= policy.rel_eps * max(magnitude, 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return (1.0 - qv) * total
        else:
            small_streak = 0
        node *= qv
    raise SeriesLimitError("Jackson integral exceeded max_terms")
