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

At q = 1 the coefficient integral is an ordinary one, computed by an
adaptive Gauss-Lobatto rule over [0, 1] (_classical_integrals): every
round bisects all unconverged intervals and evaluates f and the basis once
on the nodes of all halves.  Its tolerance is rel_eps max|f| and its node
cap max_terms, both from the spec's TruncationPolicy.

For q < 1 both operators' coefficients are Jackson sums over the nodes
t_j = q^j, computed in log space by one windowed kernel.  Writing
c_k = prod_{i=1}^k (1 - q^i) (so c_k = (1-q)^k [k]_q!), they collapse to

    A_{nk}(f) = sum_j w_kj f(inner(q^j)) / sum_j w_kj,
        w_kj = q^{j(k+1)} c_{j+n-k} / c_j,
    A_k(f) = sum_{j>=0} q^{j(k+1)} f(inner(q^j)) c_inf / (c_j c_k),

with A_{nk}(1) = 1 supplying the normaliser of the finite weights; the
terms of A_k all lie in [0, 1].  c_k itself underflows for q close to 1,
and the factor q^{-k} of the finite form overflows a float from
n log10(1/q) > 308, so neither is formed.  Each k sums only the node
window where its log weight, concave in j, is within log(rel_eps / J) of
the top, and blocks of rows with overlapping windows are exponentiated
and contracted together.  On the limit side each block's log weights are
one rank-3 matrix product.

On the limit side the node count, the windows and the row blocks depend on
q and the TruncationPolicy only, not on f or the shifts.  They form the
plan of (q, policy) (_limit_plan, a bounded LRU), which every f shares,
with the nodes and the factors of the log weights.  It is built once up
to K_cap (below), and limit_coefficients memoises the whole array
A_0..A_{K_cap} of each (spec, f).  Both limit kernels size their blocks by
GRID_ENTRIES, so each block's weights stay within a core's cache.  The
finite side finds its windows per call, as each n has its own, and keeps
blocks of BLOCK_ENTRIES.

The limit series is summed by one kernel, _limit_sums, which takes several
column sets and builds each block of weights p_{inf,k}(q;x) once for all of
them.  Its callers are _limit_columns (one set (A_k, 1) per f: apply_limit
is its one-f case) and limit_basis_identity_sums (the one set 1, w_k and
w_k^2).  The finite side likewise builds each block of basis rows once per
call of _finite_columns and contracts it with each f's coefficients.  Each
column set is its own product, so a row has the bits of its one-f call.

A grid row of D_n stops at a truncation index too, by a bound:
C(n,k)_q <= 1/c_k and (x;q)_{n-k} <= 1, so p_nk(q;x) <= x^k / c_inf.  A
block of rows whose largest x is x_top builds the columns k <= K only,

    K = min(n, ceil((log(GRID_TAIL / (n + 1)) + log c_inf) / log x_top)),

so each entry it leaves out is below GRID_TAIL / (n + 1), and the mass
left out below GRID_TAIL max|A|, with GRID_TAIL = 2^-64 far below a
float's rounding.  K is n at q = 1, in a block that holds x = 1, and in a
call of one block.  The kept entries have the bits of the whole row's.

On the limit side the series at x stops at the truncation index K_x,
never past K_cap = max(8, ceil(log(rel_eps (1-q)) / log q)), which depends
on q and rel_eps only: from there on A_k is f(inner(1)) and c_k is c_inf
to rel_eps (the limit q-Bernstein behaviour of Il'inskii and Ostrovska, J.
Approx. Theory 116 (2002)), so the rest of the series is one closed-form
term, and x up to 1 takes a fixed number of terms.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import basis
from .qcore import (
    BLOCK_ENTRIES,
    DEFAULT_POLICY,
    NumericError,
    SeriesLimitError,
    TruncationPolicy,
    as_q,
    log_q_pochhammer_inf,
    q_integer,
)


@dataclass(frozen=True)
class StancuParams:
    """Shift pair (varpi, vartheta) of the operator's inner argument."""

    varpi: float = 0.0
    vartheta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.varpi <= self.vartheta < math.inf):
            raise ValueError(
                f"Stancu shifts require finite 0 <= varpi <= vartheta, got "
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


def _finite_values(f, u):
    """f called once on the array u, broadcast to its shape; NumericError if not finite."""
    vals = np.broadcast_to(np.asarray(f(u), dtype=float), np.shape(u))
    if not np.all(np.isfinite(vals)):
        raise NumericError("function value non-finite at an evaluation point")
    return vals


def _shaped(vals, x):
    """vals in the form of x: a float for a scalar x, else an array of its shape."""
    return float(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))


# Entries built and contracted at a time by the grid side and both limit
# kernels, so each temporary stays at 128 KiB, within a core's cache.  The
# finite grid takes blocks of max(1, GRID_ENTRIES // (n + 1)) rows: at grid
# 1001, q = 0.9, 256-row blocks took twice as long at n = 1000 (2 MB
# temporaries), and budgets from 8 Ki to 32 Ki entries were within noise of
# each other.  The limit plan and series bound rows x column span by it (a
# one-row block may exceed it): at q = 0.999 the plan's blocks hold 1.98 M
# weights instead of 2.87 M with BLOCK_ENTRIES; with the plan's tables kept
# as well, a cold limit_coefficients took 6.6 instead of 10.9 ms there.
GRID_ENTRIES = 16 * 1024
BLOCK_WIDEN = 2  # a block of rows spans at most this many times its narrowest window
# Finite coefficients with (n + 1) x J up to this many weights are one dense
# block: below it, finding the node windows costs more than the exponentials
DENSE_ENTRIES = 32 * 1024
# A grid row stops at the column past which each basis entry is below
# GRID_TAIL / (n + 1) (_column_limits), so the mass it leaves out is below
# GRID_TAIL max|A|: far below a float's rounding.
GRID_TAIL = 2.0**-64


# ---------------------------------------------------------------------------
# finite operator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def finite_coefficients(spec, f):
    """All A_{nk}(f), k = 0..n, as a read-only array (cached per (spec, f)).
    The n + 1 coefficients count against max_terms before anything is built."""
    n = spec.n
    if n + 1 > spec.policy.max_terms:
        raise SeriesLimitError("finite coefficient count n + 1 exceeds max_terms")
    qv = as_q(spec.q)
    if qv == 1.0:
        out = q_integer(n + 1, qv) * _classical_integrals(spec, f)
    else:
        out = _jackson_coefficients(spec, f)
    out.flags.writeable = False
    return out


def _jackson_coefficients(spec, f):
    """A_{nk}(f) for q < 1 as normalised windowed Jackson sums.

    At the nodes t_j = q^j, q^-k p_nk(q; q t_j) q^j is C(n,k)_q times
    w_kj = q^{(k+1) j} c_{j+n-k} / c_j, and A_nk(1) = 1, so
    A_nk(f) = sum_j w_kj f_j / sum_j w_kj over the nodes j < J, with
    J = ceil(log(rel_eps / [n+1]_q) / log q) + 3: past its peak the weight
    of a small k decays only as q^j, so the share it leaves beyond J is about
    q^J [n+1]_q, which this J keeps below rel_eps.  log w_kj is concave in
    j with its peak at the least j >= 0 where
    q^(j+1) (1 - q^(n+1)) <= 1 - q^(k+1); each k sums the node window where
    it is at least rel_eps / J of that peak (all J nodes when (n + 1) J is
    at most DENSE_ENTRIES).  The differences log c_{j+n-k} - log c_j come
    from the extended-precision prefix table.
    """
    n, qv, policy = spec.n, as_q(spec.q), spec.policy
    lnq = math.log(qv)
    J = int(math.ceil(math.log(policy.rel_eps / q_integer(n + 1, qv)) / lnq)) + 3
    if J > policy.max_terms:
        raise SeriesLimitError("finite coefficient node count exceeds max_terms")
    log_c, _, residual = basis._euler_table(qv)
    log_c, residual = basis._padded(log_c, J + n - 1), basis._padded(residual, J + n - 1)
    m = n - np.arange(n + 1)
    rates = np.arange(1, n + 2) * lnq
    ratio = np.expm1(rates) / math.expm1((n + 1) * lnq)
    peak = np.clip(np.ceil(np.log(ratio) / lnq) - 1.0, 0, J - 1).astype(int)

    def log_w(j):
        return j * rates + log_c[j + m] - log_c[j]

    top = log_w(peak)
    if (n + 1) * J <= DENSE_ENTRIES:
        lo, hi = np.zeros_like(peak), np.full_like(peak, J)
    else:
        lo, hi = _node_windows(log_w, peak, top + math.log(policy.rel_eps / J), J)
    t_nodes = qv ** np.arange(hi.max())
    f_one = np.column_stack((_finite_values(f, finite_inner(spec, t_nodes)), np.ones(len(t_nodes))))
    blocks = list(_blocks(lo, hi, BLOCK_ENTRIES))
    sums = np.empty((n + 1, 2))
    buf, g = np.empty((2, max((ks.stop - ks.start) * (b - a) for ks, a, b in blocks)))
    for ks, a, b in blocks:
        # log c_{j+m} - log c_j for j in [a, b), from Hankel views of the
        # float parts and of their residuals; subtracting the float parts
        # first keeps the size of log c out of the rounding
        rows = slice(a + m[ks.stop - 1], b + m[ks.start])
        d = g[: (ks.stop - ks.start) * (b - a)].reshape(-1, b - a)
        np.subtract(_hankel(log_c[rows], b - a)[::-1], log_c[a:b], out=d)
        d += _hankel(residual[rows], b - a)[::-1]
        d -= residual[a:b]
        w = buf[: d.size].reshape(d.shape)
        np.multiply(rates[ks, None], np.arange(a, b), out=w)
        w += d
        w -= top[ks, None]
        np.exp(w, out=w)
        sums[ks] = w @ f_one[a:b]  # the column 1 gives the normaliser, as A_nk(1) = 1
    return sums[:, 0] / sums[:, 1]


def _hankel(table, width):
    """The rows table[i : i + width], every i, as one read-only strided view."""
    return as_strided(table, (len(table) - width + 1, width), table.strides * 2, writeable=False)


# The rule of the classical integrals on each interval: 10-point Gauss-Lobatto
# on [0, 1], that is both ends and the roots of P_9' mapped from [-1, 1],
# with weights 1 / (90 P_9(x)^2), correctly rounded; symmetric about 1/2.
_HALF_T = np.array([0.0, 0.04023304591677059, 0.13061306744724746, 0.26103752509477773,
                    0.4173605211668065])
_HALF_W = np.array([1.0 / 90.0, 0.06665299542553506, 0.11244467103156322, 0.1460213418398419,
                    0.16376988059194872])
_RULE_T = np.concatenate((_HALF_T, 1.0 - _HALF_T[::-1]))
_RULE_W = np.concatenate((_HALF_W, _HALF_W[::-1]))
_RULE_NODES = len(_RULE_T)
_MIN_WIDTH = 2.0**-45  # the narrowest halves


def _classical_integrals(spec, f):
    """int_0^1 f(finite_inner(spec, t)) p_nk(1; t) dt for k = 0..n, by an
    adaptive Gauss-Lobatto rule batched over intervals.

    Each round bisects every live interval and calls f once on the nodes of
    all halves.  A parent's error estimate is ||I_left + I_right - I_parent||
    (max over k); tol = rel_eps max|f|.  A parent is done when its estimate
    is at most tol times its width, or when its halves are _MIN_WIDTH wide.
    The rule ends once the estimates of the parents not done sum to at most
    tol / (16 (n + 1)), each counted as no less than a quarter of its own
    parent's: near a kink the estimates fall as width^2 on average but
    scatter widely about that, and where rounding in f sets them, they stop
    falling.  Done parts are added in round order, ascending t.  Nodes count
    against max_terms, and so do the entries of the live estimates, which
    bounds the working set.

    The nodes include both ends of an interval.  A Gauss-Legendre rule has
    none there, and a kink between an end and the nearest node is then
    missed by the parent and both halves alike.
    """
    n, policy = spec.n, spec.policy
    width = 1.0
    lo = np.zeros(1)
    parents, f_max = _rule_sums(spec, f, lo, width)
    prior = np.zeros(1)  # a quarter of the parent's estimate, per live interval
    used = _RULE_NODES
    total = np.zeros(n + 1)
    while len(lo):
        width /= 2.0
        lo = np.column_stack((lo, lo + width)).ravel()  # the halves, ascending
        used += len(lo) * _RULE_NODES
        if used > policy.max_terms or len(lo) * (n + 1) > policy.max_terms:
            raise SeriesLimitError("classical coefficient rule exceeds max_terms")
        halves, top = _rule_sums(spec, f, lo, width)
        f_max = max(f_max, top)
        tol = policy.rel_eps * f_max
        pairs = halves[0::2] + halves[1::2]
        err = np.max(np.abs(pairs - parents), axis=1)
        done = (err <= tol * 2.0 * width) | (width <= _MIN_WIDTH)
        if np.sum(np.maximum(err, prior)[~done]) <= tol / (16.0 * (n + 1)):
            done[:] = True
        total += pairs[done].sum(axis=0)
        live = np.repeat(~done, 2)
        lo, parents, prior = lo[live], halves[live], np.repeat(err[~done] / 4.0, 2)
    return total


def _rule_sums(spec, f, lo, width):
    """Rule sums of f(finite_inner(spec, t)) p_nk(1; t) over each interval
    [lo_i, lo_i + width], one row per interval, and max|f| at the nodes.
    Blocks of intervals keep rows x (n + 1) within BLOCK_ENTRIES."""
    n = spec.n
    t = (lo[:, None] + width * _RULE_T).ravel()
    fv = _finite_values(f, finite_inner(spec, t))
    fw = (width * _RULE_W) * fv.reshape(len(lo), _RULE_NODES)
    out = np.empty((len(lo), n + 1))
    step = max(1, BLOCK_ENTRIES // ((n + 1) * _RULE_NODES))
    for i in range(0, len(lo), step):
        rows = basis.basis_matrix(n, 1.0, t[i * _RULE_NODES : (i + step) * _RULE_NODES])
        rows = rows.reshape(-1, _RULE_NODES, n + 1)
        out[i : i + step] = np.einsum("ij,ijk->ik", fw[i : i + step], rows)
    return out, float(np.max(np.abs(fv)))


def apply_finite(spec, f, x):
    """D_n(f; x) = sum_k A_{nk}(f) p_{nk}(q; x) at a scalar x or an array of x."""
    if spec.is_limit:
        raise ValueError("apply_finite requires a finite degree")
    return _shaped(_finite_columns(spec, [f], x)[0], x)


def _finite_columns(spec, fs, x):
    """D_n(f; x) for each f of fs at the x of x (raveled), one row per f.

    Each block of basis rows is built once, up to its truncation index K
    (_column_limits), and contracted with each f's coefficients A_n0..A_nK
    on its own, so every row has the bits of its one-f call.
    """
    xs = np.asarray(x, dtype=float).ravel()  # the basis rejects x outside [0, 1]
    coeffs = [finite_coefficients(spec, f) for f in fs]
    out = np.empty((len(fs), len(xs)))
    rows = max(1, GRID_ENTRIES // (spec.n + 1))
    if len(xs) <= rows:  # one block, as a point query: the rule costs more than it saves
        block = basis.basis_matrix(spec.n, spec.q, xs)
        for row, c in zip(out, coeffs):
            row[:] = block @ c
        return out
    for i, K in zip(range(0, len(xs), rows), _column_limits(spec, xs, rows)):
        block = basis.basis_matrix(spec.n, spec.q, xs[i : i + rows], K)
        for row, c in zip(out, coeffs):
            row[i : i + rows] = block @ c[: K + 1]
        del block  # freed before the next block is built
    return out


def _column_limits(spec, xs, rows):
    """The truncation index K of each block of rows of xs: the least K with
    x_top^K / c_inf <= GRID_TAIL / (n + 1), x_top the block's largest x,
    at most n.  As p_nk(q;x) <= x^k / c_k <= x^k / c_inf, every entry past
    K is below GRID_TAIL / (n + 1).  At q = 1, and in a block whose x_top
    is not in (0, 1), the rows keep all n + 1 columns: x = 1 needs them, and
    an x outside [0, 1] (or NaN) is left for the basis to reject."""
    n, qv = spec.n, as_q(spec.q)
    if qv == 1.0:
        return itertools.repeat(n)
    log_tail = math.log(GRID_TAIL / (n + 1)) + basis._euler_table(qv)[1]
    tops = np.maximum.reduceat(xs, np.arange(0, len(xs), rows)).tolist()
    return [min(n, math.ceil(log_tail / math.log(x))) if 0.0 < x < 1.0 else n for x in tops]


# ---------------------------------------------------------------------------
# limit operator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _limit_plan(qv, policy):
    """(blocks, left, right, nodes) of (q, policy), each read-only: _blocks
    over the node windows of every k = 0..K_cap, the factors of the log
    weights (_limit_factors) and the J nodes q^j.  None depends on f or the
    shifts."""
    # node count large enough that every A_k tail is below rel_eps
    J = int(math.ceil((-math.log(policy.rel_eps) + 6.0) / (-math.log(qv)))) + 3
    if J > policy.max_terms:
        raise SeriesLimitError("limit coefficient node count exceeds max_terms")
    left, right = _limit_factors(qv, _series_cap(qv, policy), J)
    nodes = qv ** np.arange(J)
    rates, neg_log_c, g = left[:, 0], left[:, 2], right[1]
    # e_k(j+1) - e_k(j) = rate_k - log(1 - q^(j+1)): the peak is the first
    # j where that step is not positive
    peak = np.searchsorted(np.log1p(-nodes[1:]), rates)
    cut = math.log(policy.rel_eps / J) - neg_log_c
    lo, hi = _node_windows(lambda j: j * rates + g[j], peak, cut, J)
    for table in (left, right, nodes):
        table.flags.writeable = False
    return tuple(_blocks(lo, hi, GRID_ENTRIES)), left, right, nodes


def _limit_factors(qv, K, J):
    """The factors of log w_kj = j rate_k + g_j - log c_k, k = 0..K and
    j < J, as the rows [rate_k, 1, -log c_k] and the columns [j, g_j, 1],
    with rate_k = (k + 1) log q and g_j = log prod_{i>j} (1 - q^i)."""
    left, right = np.ones((K + 1, 3)), np.ones((3, J))
    np.multiply(np.arange(1, K + 2), math.log(qv), out=left[:, 0])
    np.negative(basis._log_c_row(qv, K), out=left[:, 2])
    right[0] = np.arange(J)
    np.subtract(basis._euler_table(qv)[1], basis._log_c_row(qv, J - 1), out=right[1])
    return left, right


@lru_cache(maxsize=32)
def limit_coefficients(spec, f):
    """A_k(f) for k = 0..K_cap (_series_cap), past which the series needs no
    A_k, as a read-only array (cached per (spec, f)).

    A_k = sum_j w_kj f_j / sum_j w_kj over the node window of each k (see
    the module docstring), with log w_kj = j rate_k + g_j - log c_k built
    per block as [rate_k, 1, -log c_k] . [j, g_j, 1].  The nodes, those
    factors and the row blocks come from the plan of (q, policy)
    (_limit_plan).
    """
    if not spec.is_limit:
        raise ValueError("limit_coefficients requires the limit operator")
    qv = as_q(spec.q)
    blocks, left, right, nodes = _limit_plan(qv, spec.policy)
    # columns f and 1: one product gives each A_k and its weight sum
    f_one = np.ones((len(nodes), 2))
    f_one[:, 0] = _finite_values(f, limit_inner(qv, spec.stancu, nodes))
    (sums,) = _block_sums(left, right, [f_one], blocks)
    out = sums[:, 0] / sums[:, 1]
    out.flags.writeable = False
    return out


def _node_windows(log_w, peak, cut, J):
    """Per row r, the node interval [lo_r, hi_r) around peak_r where
    log_w(j)_r >= cut_r, with j < J.

    log_w (an array of j per row in, one value per row out; also a pair of
    such arrays) must be concave in j with its maximum at peak, so the
    interval is one run around it; the peak itself is always kept.  One
    bisection finds both ends: the first j in [0, peak) with log_w(j) >= cut
    and the first j in [peak + 1, J) with log_w(j) < cut.
    """
    rising = np.array([[True], [False]])
    start = np.stack((np.zeros_like(peak), peak + 1))
    stop = np.stack((peak, np.full_like(peak, J)))
    lo, hi = _first_true(lambda j: (log_w(j) < cut) != rising, start, stop)
    return lo, hi


def _first_true(test, lo, hi):
    """Per entry, the least j in [lo, hi) with test(j) true, else hi; test(j)
    must be false, then true, along each entry's range (bisection)."""
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = np.minimum((lo + hi) // 2, hi - 1)  # (lo + hi) // 2 on open entries
        t = test(mid)
        hi = np.where(open_ & t, mid, hi)
        lo = np.where(open_ & ~t, mid + 1, lo)


def _blocks(lo, hi, budget):
    """Consecutive row slices, each with the columns [a, b) that the union of
    its rows' windows [lo, hi) spans.  A block grows while rows x union stays
    within budget entries and the union within BLOCK_WIDEN times the
    narrowest window of the block."""
    width = hi - lo
    start = 0
    while start < len(lo):
        # the union is at least the first window, which caps the rows
        stop = min(len(lo), start + max(1, budget // int(width[start])))
        a = np.minimum.accumulate(lo[start:stop])
        b = np.maximum.accumulate(hi[start:stop])
        union = b - a
        fits = (np.arange(1, stop - start + 1) * union <= budget) & (
            union <= BLOCK_WIDEN * np.minimum.accumulate(width[start:stop])
        )
        n = len(fits) if fits.all() else max(1, int(fits.argmin()))  # leading fits
        yield slice(start, start + n), int(a[n - 1]), int(b[n - 1])
        start += n


def _block_sums(left, right, col_sets, blocks):
    """For each column set cols of col_sets, the rows ks of
    exp(left @ right[:, a:b]) @ cols[a:b] for each block (ks, a, b), the
    blocks covering every row.  Each block is one rank-3 product, exponentiated
    once and contracted with each column set on its own, in one buffer sized
    for the largest block (fresh pages cost as much as the exp).

    log w_rj = [rate_r, 1, -lc_r] . [j, g_j, 1]: the rows are k and the columns
    Jackson nodes for A_k, the rows x and the columns k for the series.  That
    takes well under half the time of three broadcast passes.
    """
    outs = [np.empty((len(left), cols.shape[1])) for cols in col_sets]
    buf = np.empty(max(((ks.stop - ks.start) * (b - a) for ks, a, b in blocks), default=0))
    for ks, a, b in blocks:
        w = buf[: (ks.stop - ks.start) * (b - a)].reshape(-1, b - a)
        np.exp(np.matmul(left[ks], right[:, a:b], out=w), out=w)
        for out, cols in zip(outs, col_sets):
            out[ks] = w @ cols[a:b]
    return outs


def _series_cap(qv, policy):
    """The index K_cap = max(8, ceil(log(rel_eps (1 - q)) / log q)) past which
    the limit series is closed in one term: for k > K_cap,
    |A_k - f(inner(1))| <= max_j |f_j - f_0| q^(k+1) / (1 - q) and
    c_k / c_inf - 1 are both below rel_eps."""
    return max(8, math.ceil(math.log(policy.rel_eps * (1.0 - qv)) / math.log(qv)))


def _truncation_index(qv, log_x, log_pi, policy, cap):
    """Index K_x of the limit series at each x in (0, 1), from log x and
    log (x;q)_inf: the least K past which every basis value is below rel_eps,
    at most cap (near x = 1 every basis value is below rel_eps)."""
    top = math.log(policy.rel_eps) - 2.0 - log_pi + basis._euler_table(qv)[1]
    k = np.minimum(np.where(top < 0.0, top / log_x, math.inf), cap)
    K = np.maximum(8.0, np.ceil(k))
    if np.any(K > policy.max_terms):
        raise SeriesLimitError("limit operator k-series exceeds max_terms")
    return K.astype(int)


def _limit_sums(qv, policy, x_in, columns, ends):
    """Per x of x_in (in (0, 1), ascending), the rows
    sum_{k<=K_x} cols[k] p_{inf,k}(q;x) + T_x end, for each column set cols
    and its end: the callback columns(K) gives the column sets, rows
    k = 0..K for the largest K_x, ends their values past K_cap, and
    T_x = sum_{k>K_cap} x^k (x;q)_inf / c_inf
        = x^(K_cap+1) (x;q)_inf / ((1 - x) c_inf).
    Returns the sums and the column sets, one of each per end.  Blocks of x
    (of GRID_ENTRIES) run over k = 0..K_x through the coefficients' kernel,
    each block's weights built once for all column sets."""
    left = np.ones((len(x_in), 3))  # [log x, 1, log (x;q)_inf] per row
    log_x = np.log(x_in, out=left[:, 0])
    log_pi = log_q_pochhammer_inf(x_in, qv, policy)
    left[:, 2] = log_pi
    cap = _series_cap(qv, policy)
    K = _truncation_index(qv, log_x, log_pi, policy, cap)
    k_top = int(K.max(initial=0))
    col_sets = columns(k_top)
    # The tail past the cap, in the scale of its row: log (x;q)_inf is in
    # both, so the row's rounding of it still cancels.  A row below the cap
    # leaves out its k in (K, cap], whose weights are below rel_eps, and its
    # tail is smaller still.
    tail = np.exp((cap + 1) * log_x + log_pi - basis._euler_table(qv)[1] - np.log1p(-x_in))
    # log p_{inf,k}(q;x) = k log x - log c_k + log (x;q)_inf
    right = np.ones((3, k_top + 1))  # [k, -log c_k, 1] per column
    right[0] = np.arange(k_top + 1)
    np.negative(basis._log_c_row(qv, k_top), out=right[1])
    blocks = list(_blocks(np.zeros_like(K), K + 1, GRID_ENTRIES))
    sums = _block_sums(left, right, col_sets, blocks)
    for s, end in zip(sums, ends):
        s += np.multiply.outer(tail, end)
    return sums, col_sets


def apply_limit(spec, f, x):
    """D_inf(f; x) at a scalar x or an array of x."""
    if not spec.is_limit:
        raise ValueError("apply_limit requires the limit operator")
    return _shaped(_limit_columns(spec, [f], x)[0], x)


def _limit_columns(spec, fs, x):
    """D_inf(f; x) for each f of fs at the x of x (raveled), one row per f.

    The x in (0, 1) are the rows of _limit_sums with one column set (A_k, 1)
    per f, built once up to the largest K_x, and the end (f(inner(1)), 1):
    the second column is the normaliser, 1 up to the weights below rel_eps
    that a row below the cap leaves out, so constants come out exact for
    every x.  At x = 1 the continuous extension f(inner(1)) is exact.
    """
    xs = np.asarray(x, dtype=float).ravel()
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    qv = as_q(spec.q)
    inside = np.flatnonzero((xs > 0.0) & (xs < 1.0))
    order = inside[np.argsort(xs[inside], kind="stable")]
    # x = 1: the mass escapes to k = inf, and A_k -> f(inner(1))
    f_ends = [f(limit_inner(qv, spec.stancu, 1.0)) for f in fs]

    # Column-major (A_k, 1): OpenBLAS sums that product to 5e-15 of per-x
    # dot products on grid 1001, the row-major one to 3e-14.
    def columns(k):
        return [np.array((limit_coefficients(spec, f)[: k + 1], np.ones(k + 1))).T for f in fs]

    sums, a_ones = _limit_sums(
        qv, spec.policy, xs[order], columns, [(f_end, 1.0) for f_end in f_ends]
    )
    out = np.empty((len(fs), len(xs)))
    for row, s, a_one, f_end in zip(out, sums, a_ones, f_ends):
        row[xs == 0.0] = a_one[0, 0]  # p_{inf,k}(q;0) = [k = 0]
        row[xs == 1.0] = f_end
        row[order] = s[:, 0] / s[:, 1]
    return out


def limit_basis_identity_sums(q, x, policy=DEFAULT_POLICY):
    """Sums s_m = sum_k (1-q^k)^m p_{inf,k}(q;x) for m = 0, 1, 2, through
    _limit_sums with the columns (1, w_k, w_k^2), w_k = 1 - q^k, and end 1.

    Contract: s0 = 1, s1 = x, s2 = x^2 + (1-q)x(1-x) on [0, 1).
    """
    qv = as_q(q)
    if qv == 1.0 or not (0.0 <= x < 1.0):
        raise ValueError("identity sums require q < 1 and x in [0, 1)")
    if x == 0.0:  # p_{inf,k}(q;0) = [k = 0] and w_0 = 0
        return 1.0, 0.0, 0.0

    def columns(K):
        return [np.power.outer(-np.expm1(np.arange(K + 1) * math.log(qv)), (0.0, 1.0, 2.0))]

    (sums,), _ = _limit_sums(qv, policy, np.array([float(x)]), columns, [np.ones(3)])
    return tuple(map(float, sums[0]))


def apply(spec, f, x):
    """Dispatch to the finite or limit operator according to the spec."""
    if spec.is_limit:
        return apply_limit(spec, f, x)
    return apply_finite(spec, f, x)
