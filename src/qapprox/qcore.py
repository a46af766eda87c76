"""q-calculus primitives: q-integers, q-factorials, Gaussian binomials,
the log of the infinite q-Pochhammer product and the Jackson q-integral on [0,1].

All routines are pure, deterministic (fixed summation order) and define the
q = 1 limit by continuity, so classical values can serve as oracles.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
        if not (0.0 < self.rel_eps < 1.0):  # also rejects nan
            raise ValueError(f"rel_eps must lie in (0, 1), got {self.rel_eps}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = TruncationPolicy()

# Entries of one (row, term) block of a batched series: bounds the working
# set of every blocked array computation at about 2 MB.
BLOCK_ENTRIES = 256 * 1024


def q_integer(n, q):
    """[n]_q = (1 - q^n)/(1 - q), with [n]_1 = n and [0]_q = 0.

    n and q may also be arrays that broadcast together, with every q in
    (0, 1) (array out).
    """
    if np.ndim(n) or np.ndim(q):
        qv = np.asarray(q, dtype=float)
        if np.any(np.asarray(n) < 0) or not np.all((qv > 0.0) & (qv < 1.0)):
            raise ValueError("array q-integers need n >= 0 and q in (0, 1)")
        lnq = np.log(qv)
        return np.expm1(n * lnq) / np.expm1(lnq)
    if n < 0:
        raise ValueError("n must be nonnegative")
    qv = as_q(q)
    if qv == 1.0:
        return float(n)
    lnq = math.log(qv)  # expm1 keeps both differences exact as q -> 1
    return math.expm1(n * lnq) / math.expm1(lnq)


def q_binomial_row(n, q):
    """All Gaussian binomials C(n,k)_q for k = 0..n (read-only, cached)."""
    return _q_binomial_row_cached(n, as_q(q))


@lru_cache(maxsize=128)
def _q_binomial_row_cached(n, qv):
    """C(n,k)_q for k <= n // 2 from the ratios C(n,k+1)_q / C(n,k)_q =
    [n-k]_q / [k+1]_q (one cumulative product; exact integers at q = 1),
    mirrored by C(n,k)_q = C(n,n-k)_q."""
    overflow = f"Gaussian binomial row n={n}, q={qv} overflows a float"
    if qv == 1.0:
        try:
            head = np.array([math.comb(n, k) for k in range(n // 2 + 1)], dtype=float)
        except OverflowError:
            raise NumericError(overflow) from None
    else:
        lnq = math.log(qv)
        k = np.arange(n // 2)
        head = np.ones(n // 2 + 1)
        with np.errstate(over="ignore"):  # reported below, as a typed error
            np.cumprod(np.expm1((n - k) * lnq) / np.expm1((k + 1) * lnq), out=head[1:])
        if not np.all(np.isfinite(head)):
            raise NumericError(overflow)
    row = np.concatenate((head, head[: n - n // 2][::-1]))
    row.flags.writeable = False
    return row


def log_q_pochhammer_inf(x, q, policy=DEFAULT_POLICY):
    """log prod_{s>=0} (1 - q^s x) for q < 1; -inf when a factor vanishes.

    x may be a scalar (float out) or an array (array of its shape out).  The
    S factors with q^s max|x| > 1/2 are summed as logarithms.  The rest,
    with y = q^S x and |y| <= 1/2, is the series
    log (y;q)_inf = -sum_{m>=1} y^m / (m (1 - q^m)),
    whose m-th term is at most |y|^(m-1) / m times the first; it stops once
    max|y|^(m-1) < rel_eps.  The S logarithms and the series terms together
    count against max_terms.  Rows of x are summed BLOCK_ENTRIES // max(S, M)
    at a time.
    """
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("infinite q-Pochhammer requires q < 1")
    xs = np.asarray(x, dtype=float).ravel()
    if np.any(xs > 1.0):  # the s = 0 factor is the smallest
        raise NumericError("q-Pochhammer factor negative at s=0")
    out = np.where(xs == 1.0, -math.inf, 0.0)
    live = np.flatnonzero((xs != 0.0) & (xs != 1.0))
    if len(live):
        xl = xs[live]
        top = np.abs(xl).max()
        lnq = math.log(qv)
        # 0.5 / top overflows for the smallest subnormals, where S is 0
        S = 0 if top <= 0.5 else math.ceil(math.log(0.5 / top) / lnq)
        while top * qv**S > 0.5:  # S one short by rounding
            S += 1
        M = max(1, math.ceil(math.log(policy.rel_eps) / math.log(top * qv**S)) + 1)
        if S + M > policy.max_terms:
            raise SeriesLimitError("q-Pochhammer product exceeded max_terms")
        powers = -(qv ** np.arange(S))
        m = np.arange(1, M + 1)
        weights = m * -np.expm1(m * lnq)
        rows = max(1, BLOCK_ENTRIES // max(S, M))
        for i in range(0, len(xl), rows):
            xb = xl[i : i + rows, None]
            tail = np.sum((xb * qv**S) ** m / weights, axis=1)
            out[live[i : i + rows]] = np.sum(np.log1p(powers * xb), axis=1) - tail
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def jackson_integral(f, q, policy=DEFAULT_POLICY):
    """Jackson q-integral of f over [0,1]: (1-q) sum_j q^j f(q^j).

    Uses compensated (Kahan) summation in ascending j and stops only after
    two consecutive terms fall below rel_eps relative to the accumulated
    magnitude.  At q = 1 the integral is the classical one and is computed
    by adaptive quadrature (scipy.integrate.quad, imported on that call).
    """
    qv = as_q(q)
    if qv == 1.0:
        from scipy import integrate  # here only: importing it costs ~0.6 s and ~50 MB

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
