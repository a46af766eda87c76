"""Scalar reference paths that the tests compare the batched package against."""

import itertools
import json
import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import integrate

from qapprox import __version__
from qapprox.basis import _euler_table, _log_c_row, basis_row
from qapprox.durrmeyer import (
    GRID_ENTRIES,
    apply,
    finite_coefficients,
    finite_inner,
    limit_inner,
)
from qapprox.funcreg import builtin
from qapprox.moments import MONOMIALS, MomentReport, finite_moment
from qapprox.qcore import (
    DEFAULT_POLICY,
    NumericError,
    SeriesLimitError,
    as_q,
    jackson_integral,
    log_q_pochhammer_inf,
    q_binomial_row,
    q_integer,
)
from qapprox.reporting import format_value, meta_lines
from qapprox.statconv import window


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
    """Gaussian binomial coefficient C(n,k)_q, entry k of q_binomial_row.

    Returns 0 for k < 0 or k > n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0.0
    qv = as_q(q)
    if qv == 1.0:
        return float(math.comb(n, k))
    return q_binomial_row(n, qv)[k]


def direct_basis(n, k, q, x):
    """p_nk(q;x) as one direct product, independent of basis_row's shared cumulants."""
    poch = 1.0
    for s in range(n - k):
        poch *= 1.0 - q**s * x
    return q_binomial(n, k, q) * x**k * poch


def log_limit_row(q, x, K=None, policy=DEFAULT_POLICY):
    """log p_{inf,k}(q;x) for k = 0..K at one x in [0, 1]; -inf where the basis vanishes.

    log p_{inf,k} = k log x + log (x;q)_inf - log c_k, one x at a time.  For
    x < 1, K defaults to the smallest K past which every basis value is below
    rel_eps, with no cap and no tail term: the full scalar row.
    """
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("the limit basis requires q < 1")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    log_pi = log_q_pochhammer_inf(float(x), qv, policy)
    if x == 0.0:  # p_{inf,k}(q;0) = [k = 0]
        row = np.full(1 if K is None else K + 1, -math.inf)
        row[0] = 0.0
        return row
    log_x = math.log(x)
    if K is None:
        top = math.log(policy.rel_eps) - 2.0 - log_pi + _euler_table(qv)[1]
        K = int(max(8.0, math.ceil(top / log_x)))
        if K > policy.max_terms:
            raise SeriesLimitError("limit operator k-series exceeds max_terms")
    return np.arange(K + 1) * log_x + log_pi - _log_c_row(qv, K)


def scan_basis_matrix(n, q, xs):
    """Rows p_nk(q;x), k = 0..n, one per x of xs: cumulative products along
    k of x^k and of every factor 1 - q^i x, i < n, none left out."""
    col = np.asarray(xs, dtype=float)[:, None]
    powers = np.ones((len(col), n + 1))
    poch = np.ones((len(col), n + 1))
    np.cumprod(np.broadcast_to(col, (len(col), n)), axis=1, out=powers[:, 1:])
    np.cumprod(1.0 - (q ** np.arange(n)) * col, axis=1, out=poch[:, 1:])
    return q_binomial_row(n, q) * powers * poch[:, ::-1]


def full_row_columns(spec, fs, x):
    """D_n(f; x) for each f of fs at the x of x (raveled), one row per f:
    the grid side's blocks of rows, each built whole (k = 0..n) by the scan
    and contracted with all of each f's coefficients."""
    xs = np.asarray(x, dtype=float).ravel()
    coeffs = [finite_coefficients(spec, f) for f in fs]
    out = np.empty((len(fs), len(xs)))
    rows = max(1, GRID_ENTRIES // (spec.n + 1))
    for i in range(0, len(xs), rows):
        block = scan_basis_matrix(spec.n, spec.q, xs[i : i + rows])
        for row, c in zip(out, coeffs):
            row[i : i + rows] = block @ c
    return out


def coefficient_finite(spec, k, f):
    """A_nk(f) for one k, by the scalar Jackson integral (adaptive quadrature at q = 1)."""
    n, q = spec.n, spec.q

    def integrand(t):
        return f(finite_inner(spec, t)) * basis_row(n, q, q * t)[k]

    return q_integer(n + 1, q) * q ** (-k) * jackson_integral(integrand, q, spec.policy)


def jackson_coefficients(specs, fs, ks, extra=4000):
    """A_nk(f) at q < 1 for the k in ks and every (spec, f) pair, the specs
    sharing n, q and policy: the Jackson sum over every node j < J + extra,
    J the package's node count, normalised by its own weight sum, with the
    weights q^{(k+1) j} c_{j+n-k} / c_j formed and summed in extended
    precision.  One row per k, one column per pair."""
    n, q = specs[0].n, specs[0].q
    nodes = math.ceil(math.log(specs[0].policy.rel_eps / q_integer(n + 1, q)) / math.log(q)) + 3 + extra
    q_ext = np.longdouble(q)
    log_c = np.concatenate(([0], np.cumsum(np.log1p(-(q_ext ** np.arange(1, nodes + n))))))
    js = np.arange(nodes)
    t = q**js
    cols = np.array(
        [np.broadcast_to(f(finite_inner(spec, t)), t.shape) for spec in specs for f in fs],
        dtype=np.longdouble,
    ).T
    out = []
    for k in ks:
        e = (k + 1) * js * np.log(q_ext) + log_c[js + n - k] - log_c[js]
        w = np.exp(e - e.max())
        out.append(w @ cols / w.sum())
    return np.array(out, dtype=float)


def limit_jackson_coefficients(specs, fs, ks):
    """A_k(f) of the limit operator for the k in ks and every (spec, f)
    pair, the specs sharing q: the Jackson sum over every node q^j down to
    1e-22, normalised by its own weight sum, with the weights
    q^{(k+1) j} / c_j formed and summed in extended precision.  One row per
    k, one column per pair."""
    q = specs[0].q
    js = np.arange(int(math.log(1e-22) / math.log(q)))
    q_ext = np.longdouble(q)
    log_c = np.concatenate(([0], np.cumsum(np.log1p(-(q_ext ** js[1:])))))
    t = q**js
    cols = np.array(
        [np.broadcast_to(f(limit_inner(q, spec.stancu, t)), t.shape) for spec in specs for f in fs],
        dtype=np.longdouble,
    ).T
    out = []
    for k in ks:
        e = (k + 1) * js * np.log(q_ext) - log_c
        w = np.exp(e - e.max())
        out.append(w @ cols / w.sum())
    return np.array(out, dtype=float).reshape(len(out), cols.shape[1])


def classical_coefficients(spec, f, kinks=()):
    """A_nk(f) at q = 1, k = 0..n: scipy quad per k on the direct basis
    C(n,k) t^k (1-t)^(n-k), with the points where finite_inner(spec, t) meets
    a kink of f (a value in kinks) as breakpoints."""
    n, stancu = spec.n, spec.stancu
    points = [((n + stancu.vartheta) * c - stancu.varpi) / n for c in kinks]
    points = [t for t in points if 0.0 < t < 1.0] or None
    f_inner = lru_cache(maxsize=None)(lambda t: float(f(finite_inner(spec, t))))

    def integrand(t, k):
        return f_inner(t) * math.comb(n, k) * t**k * (1.0 - t) ** (n - k)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return np.array([
            (n + 1) * integrate.quad(integrand, 0.0, 1.0, args=(k,), points=points,
                                     epsabs=1e-16, epsrel=1e-14, limit=200)[0]
            for k in range(n + 1)
        ])


def verify_moments(specs, xs):
    """The moment report one monomial at a time: a closed-form call and an
    apply call per (spec, j)."""
    report = MomentReport()
    xa = np.asarray(xs, dtype=float)
    for spec in specs:
        for j, mono in MONOMIALS.items():
            report.blocks.append((spec, j, xs, finite_moment(spec, j, xa), apply(spec, mono, xa)))
    return report


def modulus_of_continuity(f, ts, grid):
    """omega(f, t) on the grid for each t of ts: the largest
    |f(x_{i+d}) - f(x_i)| over the steps d up to t / spacing + 1/2, one pass
    over the values per d."""
    vals = np.broadcast_to(np.asarray(f(grid.xs), dtype=float), grid.xs.shape)
    steps = [0.0] + [float(np.max(np.abs(vals[d:] - vals[:-d]))) for d in range(1, len(vals))]
    best = list(itertools.accumulate(steps, max))
    return [best[int(math.floor(t / grid.spacing + 0.5 + 1e-12))] for t in ts]


def registry_samples():
    """A small cross-section of registry functions for property tests."""
    names = ("const:2", "id", "square", "absdev:0.5", "absdev:0.3", "expdec", "sin:3")
    return [builtin(name) for name in names]


def builtin_lambda(name):
    """The registry alias name as the hand-written numpy function that the
    registry held before its aliases became expressions."""
    table = {"id": lambda t: t, "square": lambda t: t * t, "expdec": lambda t: np.exp(-t)}
    if name in table:
        return table[name]
    head, _, arg = name.partition(":")
    c = float(arg)
    return {"const": lambda t: c, "absdev": lambda t: abs(t - c),
            "sin": lambda t: np.sin(c * t)}[head]


def _at(seq, k):
    """An index sequence at the single index k, through its array contract."""
    return np.broadcast_to(seq(np.array([k], dtype=np.int64)), (1,))[0]


def empirical_density(query, n):
    """|K intersect P_n| / |P_n|^gamma, one membership call per index."""
    win = window(query.pair, n)
    count = sum(1 for k in win if _at(query.members, k))
    return count / float(len(win)) ** query.gamma


def weighted_trajectory(x, ell, eps, query, weights, n_list):
    """|{k in P_n : s_k |x_k - ell| >= eps}| / S_n^gamma, each window summed in index order."""
    out = []
    for n in n_list:
        sn = 0.0
        count = 0
        for k in window(query.pair, n):
            sk = float(_at(weights.s, k))
            sn += sk
            if sk * abs(float(_at(x, k)) - ell) >= eps:
                count += 1
        out.append(count / sn**query.gamma)
    return out


def weighted_mean(x, weights, query, n):
    """S_n^(-gamma) sum_{k in P_n} s_k x_k, summed in index order."""
    sn = 0.0
    acc = 0.0
    for k in window(query.pair, n):
        sk = float(_at(weights.s, k))
        sn += sk
        acc += sk * float(_at(x, k))
    return acc / sn**query.gamma


def write_csv(stream, columns, rows, meta=None):
    """The CSV report with one format_value call per cell."""
    for line in meta_lines(meta):
        stream.write(line + "\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(format_value(v) for v in row) + "\n")


def write_json(stream, columns, rows, meta=None):
    """The JSON report with one format_value call per float cell."""
    data = {col: [] for col in columns}
    for row in rows:
        for col, v in zip(columns, row):
            data[col].append(format_value(v) if isinstance(v, float) else v)
    doc = {
        "tool": f"qapprox {__version__}",
        "config": dict(sorted((meta or {}).items())),
        "columns": list(columns),
        "data": data,
    }
    json.dump(doc, stream, indent=2, sort_keys=False)
    stream.write("\n")
