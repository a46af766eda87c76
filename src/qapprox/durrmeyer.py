"""The finite q-Durrmeyer-Stancu operator and its corrected limit operator.

Finite operator (degree n, 0 < q <= 1):

    D_n(f; x) = sum_{k=0}^{n} A_{nk}(f) p_{nk}(q; x)
    A_{nk}(f) = [n+1]_q q^{-k} int_0^1 f(([n]_q t + varpi)/([n]_q + vartheta))
                p_{nk}(q; qt) d_q t

Limit operator (q < 1 fixed, the n -> infinity limit of the finite form,
[n]_q -> 1/(1-q)):

    D_inf(f; x) = sum_{k>=0} A_k(f) p_{inf,k}(q; x)
    A_k(f) = q^{-k}/(1-q) int_0^1 f((t + (1-q) varpi)/(1 + (1-q) vartheta))
             p_{inf,k}(q; qt) d_q t

The shift convention is fixed throughout: varpi enters numerators and
vartheta denominators, so the limit operator really is the large-n limit of
the finite one (an acceptance test at n = 60 arbitrates this).

Limit-side quantities are computed in log space.  Writing
c_k = prod_{i=1}^k (1 - q^i) (so c_k = (1-q)^k [k]_q!), the Jackson sum of
the coefficient integral collapses to

    A_k(f) = sum_{j>=0} q^{j(k+1)} f(inner(q^j)) c_inf / (c_j c_k),

whose terms all lie in [0, 1]; c_k itself underflows for q close to 1.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from . import basis
from .qcore import (
    DEFAULT_POLICY,
    NumericError,
    SeriesLimitError,
    TruncationPolicy,
    as_q,
    jackson_integral,
    q_integer,
)


@dataclass(frozen=True)
class StancuParams:
    """Shift pair (varpi, vartheta) of the operator's inner argument."""

    varpi: float = 0.0
    vartheta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.varpi <= self.vartheta):
            raise ValueError(
                f"Stancu shifts require 0 <= varpi <= vartheta, got "
                f"({self.varpi}, {self.vartheta})"
            )


@dataclass(frozen=True)
class OperatorSpec:
    """Degree (n = basis.INFINITE for the limit operator), q and shifts."""

    n: object
    q: float
    stancu: StancuParams = StancuParams()
    policy: TruncationPolicy = DEFAULT_POLICY

    def __post_init__(self):
        qv = as_q(self.q)
        if self.n is basis.INFINITE:
            if qv == 1.0:
                raise ValueError("the limit operator requires q < 1")
        elif self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def is_limit(self):
        return self.n is basis.INFINITE


def finite_inner(spec, t):
    """([n]_q t + varpi)/([n]_q + vartheta), clamped to [0,1]; t may be an array."""
    nq = q_integer(spec.n, spec.q)
    return np.clip((nq * t + spec.stancu.varpi) / (nq + spec.stancu.vartheta), 0.0, 1.0)


def limit_inner(q, stancu, t):
    """(t + (1-q) varpi)/(1 + (1-q) vartheta), clamped to [0,1]; t may be an array."""
    qv = as_q(q)
    num = t + (1.0 - qv) * stancu.varpi
    den = 1.0 + (1.0 - qv) * stancu.vartheta
    return np.clip(num / den, 0.0, 1.0)


def _at_nodes(f, u):
    """f evaluated in one call on the node array u, broadcast to its shape."""
    vals = np.broadcast_to(np.asarray(f(u), dtype=float), np.shape(u))
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand non-finite at an integration node")
    return vals


def _shaped(vals, x):
    """vals in the form of x: a float for a scalar x, else an array of its shape."""
    return float(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))


# Rows of p_nk built and contracted at a time, on the Jackson-node side and
# on the grid side alike; bounds the working set at about BLOCK * (n + 1) floats.
BLOCK = 256
BLOCK_ENTRIES = BLOCK * 1024  # (k, node) exponents of one limit-coefficient block
BLOCK_WIDEN = 2  # a limit-coefficient block spans at most this many times each k's node window


# ---------------------------------------------------------------------------
# finite operator
# ---------------------------------------------------------------------------


def coefficient_finite(spec, k, f):
    """A_{nk}(f) via the Jackson integral (scalar reference path)."""
    n = spec.n
    if spec.is_limit:
        raise ValueError("coefficient_finite requires a finite degree")
    if not (0 <= k <= n):
        raise ValueError(f"k must lie in 0..{n}")
    qv = as_q(spec.q)

    def integrand(t):
        return f(finite_inner(spec, t)) * basis.bernstein_basis(n, k, qv, qv * t)

    val = jackson_integral(integrand, qv, spec.policy)
    return q_integer(n + 1, qv) * qv ** (-k) * val


@lru_cache(maxsize=512)
def finite_coefficients(spec, f):
    """All A_{nk}(f), k = 0..n, as a read-only array (cached per (spec, f))."""
    n = spec.n
    qv = as_q(spec.q)
    if qv == 1.0:
        # classical integral: one adaptive rule over the vector of all k
        def integrand(t):
            return _at_nodes(f, finite_inner(spec, t)) * basis.basis_row(n, qv, t)

        integral, _ = integrate.quad_vec(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    else:
        policy = spec.policy
        J = int(math.ceil(math.log(policy.rel_eps) / math.log(qv))) + 3
        if J > policy.max_terms:
            raise SeriesLimitError("finite coefficient node count exceeds max_terms")
        t_nodes = qv ** np.arange(J)
        fw = (1.0 - qv) * t_nodes * _at_nodes(f, finite_inner(spec, t_nodes))
        integral = np.zeros(n + 1)
        for i in range(0, J, BLOCK):
            integral += fw[i : i + BLOCK] @ basis.basis_matrix(n, qv, qv * t_nodes[i : i + BLOCK])
    out = q_integer(n + 1, qv) * qv ** (-np.arange(n + 1, dtype=float)) * integral
    out.flags.writeable = False
    return out


def apply_finite(spec, f, x):
    """D_n(f; x) = sum_k A_{nk}(f) p_{nk}(q; x) at a scalar x or an array of x."""
    if spec.is_limit:
        raise ValueError("apply_finite requires a finite degree")
    xs = np.asarray(x, dtype=float).ravel()  # the basis rejects x outside [0, 1]
    coeffs = finite_coefficients(spec, f)
    out = np.empty(len(xs))
    for i in range(0, len(xs), BLOCK):
        out[i : i + BLOCK] = basis.basis_matrix(spec.n, spec.q, xs[i : i + BLOCK]) @ coeffs
    return _shaped(out, x)


# ---------------------------------------------------------------------------
# limit operator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _limit_slot(spec, f):
    """One-element holder of the longest A_k(f) array computed for (spec, f)."""
    return [np.empty(0)]


def limit_coefficients(spec, f, k_max):
    """A_k(f) for k = 0..k_max, read-only; a longer cached array is reused."""
    if not spec.is_limit:
        raise ValueError("limit_coefficients requires the limit operator")
    slot = _limit_slot(spec, f)
    if len(slot[0]) > k_max:
        return slot[0][: k_max + 1]
    qv = as_q(spec.q)
    policy = spec.policy
    lnq = math.log(qv)
    # node count large enough that every A_k tail is below rel_eps
    J = int(math.ceil((-math.log(policy.rel_eps) + 6.0) / (-lnq))) + 3
    if J > policy.max_terms:
        raise SeriesLimitError("limit coefficient node count exceeds max_terms")
    t_nodes = qv ** np.arange(J)
    # columns f and 1: one product gives each A_k and its weight sum
    f_one = np.column_stack((_at_nodes(f, limit_inner(qv, spec.stancu, t_nodes)), np.ones(J)))
    g = basis._euler_table(qv)[1] - basis._log_c_row(qv, J - 1)  # log prod_{i>j}(1-q^i)
    lc = basis._log_c_row(qv, k_max)
    rates = np.arange(1, k_max + 2) * lnq
    lo, hi = _node_windows(t_nodes, g, lc, rates, math.log(policy.rel_eps / J))
    out = np.empty(k_max + 1)
    buf = np.empty(max(BLOCK_ENTRIES, J))  # reused: a fresh block of pages costs as much as its exp
    k = 0
    while k <= k_max:
        # a block of k spans the nodes [lo of its last k, hi of its first k)
        union = hi[k] - lo[k:]
        fits = (np.arange(1, k_max + 2 - k) * union <= BLOCK_ENTRIES) & (
            union <= BLOCK_WIDEN * (hi[k:] - lo[k:])
        )
        ks = slice(k, k + max(1, int(np.argmin(np.append(fits, False)))))  # leading fits
        out[ks] = _jackson_block(buf, g, f_one, lc[ks], rates[ks], lo[ks.stop - 1], hi[k])
        k = ks.stop
    out.flags.writeable = False
    slot[0] = out
    return out


def _node_windows(t_nodes, g, lc, rates, log_cut):
    """Per k, the node interval [lo_k, hi_k) where e_k(j) >= log_cut.

    e_k(j) = j rate_k + g_j - lc_k is concave in j (the steps of g shrink),
    so the interval is one run around its peak, the first j whose next step
    is not positive; the peak itself is always kept.  Both ends fall as k
    grows, since e_{k+1} - e_k decreases in j.
    """
    # e_k(j+1) - e_k(j) = rate_k - log(1 - q^(j+1))
    peak = np.searchsorted(np.log1p(-t_nodes[1:]), rates)
    cut = lc + log_cut

    def below(j):
        return j * rates + g[j] < cut

    lo = _first_true(lambda j: ~below(j), np.zeros_like(peak), peak)
    hi = _first_true(below, peak + 1, np.full_like(peak, len(t_nodes)))
    return lo, hi


def _first_true(test, lo, hi):
    """Per entry, the least j in [lo, hi) with test(j) true, else hi; test(j)
    must be false, then true, along each entry's range (bisection)."""
    while np.any(lo < hi):
        open_ = lo < hi
        mid = np.minimum((lo + hi) // 2, hi - 1)  # (lo + hi) // 2 on open entries
        t = test(mid)
        hi = np.where(open_ & t, mid, hi)
        lo = np.where(open_ & ~t, mid + 1, lo)
    return lo


def _jackson_block(buf, g, f_one, lc, rates, a, b):
    """A_k for a block of k (its lc, rates) over nodes [a, b), each divided by
    its weight sum, which is 1 in exact arithmetic since A_k(1) = 1.  The
    exponents are built in place in buf."""
    w = buf[: len(lc) * (b - a)].reshape(len(lc), b - a)
    np.multiply(rates[:, None], np.arange(a, b), out=w)
    w += g[a:b]
    w -= lc[:, None]
    np.exp(w, out=w)
    sums = w @ f_one[a:b]
    return sums[:, 0] / sums[:, 1]


def coefficient_limit(spec, k, f):
    """A_k(f) of the limit operator."""
    return float(limit_coefficients(spec, f, k)[k])


def apply_limit(spec, f, x):
    """D_inf(f; x) at a scalar x or an array of x.

    Coefficients are computed once, up to the truncation index of the
    largest x < 1 (the index grows with x); each x then contracts over its
    own index window.  At x = 1 the continuous extension f(inner(1)) is exact.
    """
    if not spec.is_limit:
        raise ValueError("apply_limit requires the limit operator")
    xs = np.asarray(x, dtype=float).ravel()  # the basis rejects x outside [0, 1]
    qv, policy = as_q(spec.q), spec.policy
    edge = xs == 1.0
    top = xs[~edge].max(initial=0.0)
    coeffs = limit_coefficients(spec, f, len(basis.log_limit_row(qv, top, policy=policy)) - 1)
    out = np.empty(len(xs))
    out[edge] = f(limit_inner(qv, spec.stancu, 1.0))  # mass escapes to k = inf, A_k -> f(inner(1))
    for i in np.flatnonzero(~edge):
        p = np.exp(basis.log_limit_row(qv, xs[i], policy=policy))
        out[i] = (p @ coeffs[: len(p)]) / p.sum()  # sum p is 1 - tail; constants come out exact
    return _shaped(out, x)


def apply(spec, f, x):
    """Dispatch to the finite or limit operator according to the spec."""
    if spec.is_limit:
        return apply_limit(spec, f, x)
    return apply_finite(spec, f, x)
