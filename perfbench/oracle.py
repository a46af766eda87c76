"""Independent checks of every benchmark request's output.

The closed-form moments below are the benchmark's own copy of the formulas
in the paper (and in ``qapprox.moments``), so a change to the program cannot
also change the oracle it is checked against.  Nothing here is timed.
"""

import csv
import math

import numpy as np

TOL = 1e-9  # the moments-verify default tolerance


class WrongResult(Exception):
    """An output that disagrees with its oracle."""


def _qint(n, q):
    return float(n) if q == 1.0 else (1.0 - q**n) / (1.0 - q)


def finite_moment(n, q, vp, vt, j, x):
    """D_n(t^j; x) for j = 0, 1, 2; n None selects the limit operator."""
    if n is None:
        return limit_moment(q, vp, vt, j, x)
    if j == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    nn, n2, n3 = _qint(n, q), _qint(n + 2, q), _qint(n + 3, q)
    if j == 1:
        return (nn + vp * n2 + q * x * nn**2) / (n2 * (nn + vt))
    den = (nn + vt) ** 2 * n2 * n3
    c2 = q**3 * nn**3 * (nn - 1.0)
    c1 = (q * (1.0 + q) ** 2 + 2.0 * vp * q**4) * nn**3 + 2.0 * vp * q * _qint(3, q) * nn**2
    c0 = (1.0 + q + 2.0 * vp * q**3) * nn**2 + 2.0 * vp * _qint(3, q) * nn
    return (c2 * x**2 + c1 * x + c0) / den + vp**2 / (nn + vt) ** 2


def limit_moment(q, vp, vt, j, x):
    e = 1.0 - q
    den = 1.0 + vt * e
    if j == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if j == 1:
        return (1.0 + q * (x - 1.0) + vp * e) / den
    num = (q**4 * x**2 + (q * (1.0 + q) * (1.0 - q**2) + 2.0 * e * q * vp) * x
           + ((1.0 + q) + 2.0 * vp + vp**2) * e**2)
    return num / den**2


def f_values(f, t):
    """f on an array t, evaluated with numpy (not with the program's parser)."""
    p = f["params"]
    if f["family"] == "quad":
        return p[0] + p[1] * t + p[2] * t * t
    if f["family"] == "sin":
        return np.sin(p[0] * t)
    if f["family"] == "abs":
        return np.abs(t - p[0])
    return np.exp(-p[0] * t) * t * t


def f_range(f):
    """Exact (min, max) of f over [0, 1]."""
    p = f["params"]
    if f["family"] == "quad":
        ts = [0.0, 1.0] + ([-p[1] / (2 * p[2])] if p[2] and 0 < -p[1] / (2 * p[2]) < 1 else [])
        vals = f_values(f, np.array(ts))
        return float(vals.min()), float(vals.max())
    if f["family"] == "sin":
        a = p[0]
        end = math.sin(a)
        lo = -1.0 if a >= 1.5 * math.pi else min(0.0, end)
        hi = 1.0 if a >= 0.5 * math.pi else max(0.0, end)
        return lo, hi
    if f["family"] == "abs":
        return 0.0, max(p[0], 1.0 - p[0])
    b = p[0]
    return 0.0, (math.exp(-b) if b <= 2.0 else 4.0 * math.exp(-2.0) / b**2)


def read_report(path):
    """(columns, rows of floats) of a CSV report, skipping '#' metadata lines."""
    with open(path, encoding="utf-8") as fh:
        return parse_csv(fh.read())


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.reader(lines)
    columns = next(reader)
    rows = [[_num(v) for v in row] for row in reader]
    return columns, rows


def _num(v):
    return None if v == "inf" else float(v)


def _require(cond, message):
    if not cond:
        raise WrongResult(message)


def _close(got, want, what):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
    _require(err <= TOL, f"{what}: deviation {err:.3g} exceeds {TOL:g}")


def operator_values(req, xs):
    """Closed-form D(f; xs) for a quadratic f, else None."""
    f = req["f"]
    if f["family"] != "quad":
        return None
    a, b, c = f["params"]
    vp, vt = req["shift"]
    m1 = finite_moment(req["n"], req["q"], vp, vt, 1, xs)
    m2 = finite_moment(req["n"], req["q"], vp, vt, 2, xs)
    return a + b * m1 + c * m2


def check_eval(req, columns, rows):
    _require(columns == ["x", "value"], f"eval columns {columns}")
    data = np.array(rows, dtype=float)
    xs = np.linspace(0.0, 1.0, req["grid"])
    _require(data.shape == (req["grid"], 2), f"eval shape {data.shape}")
    _require(np.array_equal(data[:, 0], xs), "eval grid differs")
    vals = data[:, 1]
    _require(bool(np.all(np.isfinite(vals))), "eval value not finite")
    want = operator_values(req, xs)
    if want is not None:
        _close(vals, want, "eval vs closed-form moments")
    else:
        lo, hi = f_range(req["f"])
        slack = TOL * max(1.0, abs(lo), abs(hi))
        _require(vals.min() >= lo - slack and vals.max() <= hi + slack,
                 f"eval value outside [{lo}, {hi}] (positivity, constants)")


def check_fixed(req, columns, rows):
    _require(columns == ["q", "varpi", "vartheta", "sup_diff"] and len(rows) == 1, "fixed shape")
    value = rows[0][3]
    xs = np.linspace(0.0, 1.0, req["grid"])
    want = operator_values(req, xs)
    if want is not None:
        _close(value, float(np.max(np.abs(want - f_values(req["f"], xs)))), "fixed vs closed-form sup")
    else:
        lo, hi = f_range(req["f"])
        _require(0.0 <= value <= hi - lo + TOL, f"fixed value {value} outside [0, {hi - lo}]")


def check_ineq(req, columns, rows):
    _require(columns == ["n", "q", "max_violation"] and len(rows) == 1, "ineq shape")
    _require(rows[0][0] == req["n"] and rows[0][1] == req["q"], "ineq echoes wrong (n, q)")
    _require(rows[0][2] <= 1e-12, f"ineq violation {rows[0][2]}")


def _prime_count(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return int(sieve.sum())


def set_count(name, n):
    """|K intersect [1, n]| counted without the program."""
    if name == "squares":
        return math.isqrt(n)
    if name == "primes":
        return _prime_count(n)
    return n // int(name.partition(":")[2])


def check_density(req, columns, rows):
    _require(columns == ["n", "window_lo", "window_hi", "gamma", "value"] and len(rows) == 1,
             "density shape")
    n = req["n"]
    _require(rows[0][:4] == [n, 1, n, req["gamma"]], f"density row {rows[0][:4]}")
    want = set_count(req["set"], n) / float(n) ** req["gamma"]
    _require(abs(rows[0][4] - want) <= 1e-12 * max(1.0, want), f"density {rows[0][4]} != {want}")


def korovkin_errors(a, vp, vt, n, xs):
    """(e0, e1, e2) at q_n = a^(1/n) from the closed forms."""
    q = a ** (1.0 / n)
    return [float(np.max(np.abs(finite_moment(n, q, vp, vt, i, xs) - xs**i))) for i in range(3)]


def check_korovkin(req, columns, rows):
    n_list = req["n_list"]
    _require(columns[:5] == ["n", "qn", "e0", "e1", "e2"], f"korovkin columns {columns}")
    _require(len(columns) == 5 + 3 * len(req["eps"]) and len(rows) == len(n_list), "korovkin shape")
    xs = np.linspace(0.0, 1.0, req["grid"])
    vp, vt = req["shift"]
    for row, n in zip(rows, n_list):
        _require(row[0] == n, "korovkin n")
        _require(abs(row[1] - req["a"] ** (1.0 / n)) <= 1e-15, "korovkin q_n")
        _close(row[2:5], korovkin_errors(req["a"], vp, vt, n, xs), f"korovkin errors at n={n}")
        # a density counts at most n indices over a window of weight n^gamma
        top = n ** (1.0 - req["gamma"]) + TOL
        _require(all(0.0 <= d <= top for d in row[5:]), "korovkin density out of range")


def korovkin_series_check(req, rows, apply, spec_of):
    """Errors at the smallest n against the series path, over the whole grid.

    ``apply(spec, f, x)`` is the program's series evaluation and
    ``spec_of(n, q, varpi, vartheta)`` builds its operator spec.
    """
    n = req["n_list"][0]
    vp, vt = req["shift"]
    spec = spec_of(n, req["a"] ** (1.0 / n), vp, vt)
    xs = np.linspace(0.0, 1.0, req["grid"])
    monomials = (lambda t: 1.0, lambda t: t, lambda t: t * t)
    for i, mono in enumerate(monomials):
        series = np.array([apply(spec, mono, float(x)) for x in xs])
        err = float(np.max(np.abs(series - xs**i)))
        _require(abs(err - rows[0][2 + i]) <= TOL, f"korovkin e{i} vs series path at n={n}")


def check_verify(specs, xs, csv_text):
    """Every row of a moments report against the closed forms."""
    columns, rows = parse_csv(csv_text)
    _require(columns == ["n", "q", "varpi", "vartheta", "x", "j", "closed", "series", "abs_dev"],
             f"moments columns {columns}")
    _require(len(rows) == 3 * len(specs) * len(xs), "moments row count")
    data = np.array([[np.nan if v is None else v for v in row] for row in rows])
    n_col, q, vp, vt, x, j = data[:, :6].T
    want = np.full(len(rows), np.nan)
    for n, *params in set(specs):
        sel = np.isnan(n_col) if n is None else n_col == n
        sel &= (q == params[0]) & (vp == params[1]) & (vt == params[2])
        for order in range(3):
            m = sel & (j == order)
            want[m] = finite_moment(n, *params, order, x[m])
    _require(not np.isnan(want).any(), "moments row for a spec not asked for")
    _require(bool(np.isin(x, xs).all()), "moments row at an x not asked for")
    dev = np.maximum(np.abs(data[:, 7] - want), np.abs(data[:, 6] - want))
    _require(dev.max() <= TOL, f"moment off by {dev.max():.3g}")


CLI_CHECKS = {
    "eval": check_eval,
    "fixed": check_fixed,
    "ineq": check_ineq,
    "density": check_density,
    "korovkin": check_korovkin,
}
