"""Command-line surface: reproducible experiments with CSV/JSON reports.

Exit codes: 0 ok, 1 an assertion threshold failed (report still written),
2 invalid configuration, 3 numeric failure.
"""

import contextlib
import errno
import math
import os
import sys

import click
import numpy as np

from . import analysis, durrmeyer, funcreg, moments, statconv
from .basis import INFINITE
from .qcore import DEFAULT_POLICY, QApproxError, TruncationPolicy
from .reporting import open_output, write_csv, write_json

EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parse_int_list(text):
    """Accept '50,100,200' or a range '5..40'; an empty list is a usage error."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(part) for part in text.split(",") if part], text)


def _parse_float_list(text):
    """Accept '0.9,0.99'; an empty list is a usage error."""
    return _nonempty([float(part) for part in text.split(",") if part], text)


def _nonempty(values, text):
    if not values:
        raise click.UsageError(f"the list {text!r} is empty")
    return values


def _tolerance(ctx, param, tol):
    """A threshold must be a number >= 0: a NaN one would pass every check."""
    if not tol >= 0.0:
        raise click.BadParameter(f"must be a number >= 0, got {tol}")
    return tol


def _cannot_write(out, reason):
    click.echo(f"cannot write {out}: {reason}", err=True)
    sys.exit(EXIT_CONFIG)


def _out_folder_exists(ctx, param, out):
    """A missing --out folder exits with code 2 before the work; the file is
    opened only to write the report, so a failed run leaves it as it was."""
    if out != "-" and not os.path.isdir(os.path.dirname(out) or "."):
        _cannot_write(out, os.strerror(errno.ENOENT))
    return out


@contextlib.contextmanager
def _output(out):
    """open_output(out); a path that cannot be opened exits with code 2."""
    with contextlib.ExitStack() as stack:
        try:
            stream = stack.enter_context(open_output(out))
        except OSError as exc:
            _cannot_write(out, exc.strerror or exc)
        yield stream


def _write(out, fmt, columns, rows, meta):
    with _output(out) as stream:
        if fmt == "json":
            write_json(stream, columns, rows, meta=meta)
        else:
            write_csv(stream, columns, rows, meta=meta)


def _common(fn):
    fn = click.option("--out", default="-", show_default=True, callback=_out_folder_exists,
                      help="output path ('-' = stdout)")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)(fn)
    return fn


_f_option = click.option("--f", "fsrc", required=True, help="expression in t, or a registry "
                         "alias of one: id, square, expdec, const:c, absdev:c, sin:a")


def _series(fn):
    """Truncation options of the commands that evaluate series."""
    fn = click.option("--rel-eps", default=DEFAULT_POLICY.rel_eps, show_default=True)(fn)
    fn = click.option(
        "--max-terms",
        default=DEFAULT_POLICY.max_terms,
        show_default=True,
        envvar="QAPPROX_MAX_TERMS",
        help="series term cap (env: QAPPROX_MAX_TERMS)",
    )(fn)
    return fn


@click.group()
def main():
    """q-Durrmeyer-Stancu operator experiments."""


def _run(compute):
    """Validate/compute, mapping numeric failures to exit code 3."""
    try:
        return compute()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except QApproxError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)


@main.command("eval")
@click.option("--n", type=int, default=None, help="operator degree (finite operator)")
@click.option("--limit", "use_limit", is_flag=True, help="use the limit operator")
@click.option("--q", type=float, required=True)
@click.option("--varpi", default=0.0, show_default=True)
@click.option("--vartheta", default=0.0, show_default=True)
@_f_option
@click.option("--grid", "grid_points", type=int, default=1001, show_default=True)
@_common
@_series
def cmd_eval(n, use_limit, q, varpi, vartheta, fsrc, grid_points, out, fmt, rel_eps, max_terms):
    """Evaluate the operator on a uniform grid: rows (x, value)."""
    if (n is None) == (not use_limit):
        raise click.UsageError("exactly one of --n or --limit is required")
    meta = {
        "command": "eval", "n": "inf" if use_limit else n, "q": q, "varpi": varpi,
        "vartheta": vartheta, "f": fsrc, "grid": grid_points,
        "rel_eps": rel_eps, "max_terms": max_terms,
    }

    def compute():
        f = funcreg.resolve(fsrc)
        policy = TruncationPolicy(rel_eps, max_terms)
        stancu = durrmeyer.StancuParams(varpi, vartheta)
        spec = durrmeyer.OperatorSpec(INFINITE if use_limit else n, q, stancu, policy)
        xs = analysis.GridSpec(grid_points).xs
        vals = durrmeyer.apply(spec, f, xs)
        return list(zip(xs.tolist(), vals.tolist()))

    rows = _run(compute)
    _write(out, fmt, ("x", "value"), rows, meta)


@main.command("moments-verify")
@click.option("--tol", default=1e-9, show_default=True, callback=_tolerance,
              help="max allowed abs deviation")
@_common
def cmd_moments_verify(tol, out, fmt):
    """Compare closed-form moments against the operator series path."""
    meta = {"command": "moments-verify", "tol": tol}
    report = _run(moments.verify_moments)
    with _output(out) as stream:
        if fmt == "json":
            report.to_json(stream, meta=meta)
        else:
            report.to_csv(stream, meta=meta)
    if not report.max_abs_dev <= tol:  # a NaN deviation fails too
        click.echo(f"max_abs_dev {report.max_abs_dev:g} exceeds tol {tol:g}", err=True)
        sys.exit(EXIT_THRESHOLD)


@main.command("rate")
@_f_option
@click.option("--q", type=float, required=True)
@click.option("--varpi", default=0.0, show_default=True)
@click.option("--vartheta", default=0.0, show_default=True)
@click.option("--n-list", default="5..40", show_default=True)
@click.option("--grid", "grid_points", type=int, default=1001, show_default=True)
@_common
@_series
def cmd_rate(fsrc, q, varpi, vartheta, n_list, grid_points, out, fmt, rel_eps, max_terms):
    """Finite-vs-limit convergence rows (n, sup_diff, omega, ratio)."""
    meta = {
        "command": "rate", "f": fsrc, "q": q, "varpi": varpi, "vartheta": vartheta,
        "n_list": n_list, "grid": grid_points, "rel_eps": rel_eps, "max_terms": max_terms,
    }

    def compute():
        f = funcreg.resolve(fsrc)
        report = analysis.rate_experiment(
            f, q, durrmeyer.StancuParams(varpi, vartheta), _parse_int_list(n_list),
            analysis.GridSpec(grid_points), TruncationPolicy(rel_eps, max_terms),
        )
        return [
            (n, q, varpi, vartheta, sup_diff, omega, ratio)
            for (n, sup_diff, omega, ratio) in report.rows
        ]

    rows = _run(compute)
    _write(out, fmt, ("n", "q", "varpi", "vartheta", "sup_diff", "omega", "ratio"), rows, meta)


@main.command("q1")
@_f_option
@click.option("--q-list", default="0.9,0.99,0.999", show_default=True)
@click.option("--varpi", default=0.0, show_default=True)
@click.option("--vartheta", default=0.0, show_default=True)
@click.option("--grid", "grid_points", type=int, default=1001, show_default=True)
@_common
@_series
def cmd_q1(fsrc, q_list, varpi, vartheta, grid_points, out, fmt, rel_eps, max_terms):
    """Limit-operator error ||D_inf,q f - f|| for q increasing toward 1."""
    meta = {
        "command": "q1", "f": fsrc, "q_list": q_list, "varpi": varpi,
        "vartheta": vartheta, "grid": grid_points, "rel_eps": rel_eps, "max_terms": max_terms,
    }

    def compute():
        f = funcreg.resolve(fsrc)
        return analysis.q_to_one_experiment(
            f, durrmeyer.StancuParams(varpi, vartheta), _parse_float_list(q_list),
            analysis.GridSpec(grid_points), TruncationPolicy(rel_eps, max_terms),
        )

    rows = _run(compute)
    _write(out, fmt, ("q", "sup_diff"), rows, meta)


@main.command("fixed")
@_f_option
@click.option("--q", type=float, required=True)
@click.option("--varpi", default=0.0, show_default=True)
@click.option("--vartheta", default=0.0, show_default=True)
@click.option("--grid", "grid_points", type=int, default=1001, show_default=True)
@_common
@_series
def cmd_fixed(fsrc, q, varpi, vartheta, grid_points, out, fmt, rel_eps, max_terms):
    """Fixed-point distance ||D_inf f - f|| (zero iff f is constant)."""
    meta = {
        "command": "fixed", "f": fsrc, "q": q, "varpi": varpi, "vartheta": vartheta,
        "grid": grid_points, "rel_eps": rel_eps, "max_terms": max_terms,
    }

    def compute():
        f = funcreg.resolve(fsrc)
        value = analysis.fixed_point_check(
            f, q, durrmeyer.StancuParams(varpi, vartheta),
            analysis.GridSpec(grid_points), TruncationPolicy(rel_eps, max_terms),
        )
        return [(q, varpi, vartheta, value)]

    rows = _run(compute)
    _write(out, fmt, ("q", "varpi", "vartheta", "sup_diff"), rows, meta)


@main.command("ineq")
@click.option("--n", type=int, required=True)
@click.option("--q", type=float, required=True)
@click.option("--grid", "grid_points", type=int, default=101, show_default=True)
@click.option("--tol", default=1e-12, show_default=True, callback=_tolerance,
              help="max allowed violation")
@_common
@_series
def cmd_ineq(n, q, grid_points, tol, out, fmt, rel_eps, max_terms):
    """Max violation of the finite/limit basis domination inequality."""
    meta = {
        "command": "ineq", "n": n, "q": q, "grid": grid_points, "tol": tol,
        "rel_eps": rel_eps, "max_terms": max_terms,
    }

    def compute():
        value = analysis.basis_inequality_check(
            n, q, analysis.GridSpec(grid_points), TruncationPolicy(rel_eps, max_terms)
        )
        return [(n, q, value)]

    rows = _run(compute)
    _write(out, fmt, ("n", "q", "max_violation"), rows, meta)
    if not rows[0][2] <= tol:  # a NaN violation fails too
        click.echo(f"max violation {rows[0][2]:g} exceeds tol {tol:g}", err=True)
        sys.exit(EXIT_THRESHOLD)


_ROOT_MAX = math.isqrt(2**63 - 1)  # the largest r with r^2 in int64


def _squares(k):
    """Perfect squares among the int64 indices k: floor(sqrt(k)) with a
    one-step correction, so the root is exact wherever r^2 fits in int64."""
    root = np.maximum(k, 0.0)
    np.sqrt(root, out=root)
    r = root.astype(np.int64)  # truncation is floor here
    del root
    sq = r * r  # corrected in place: one int64 block besides r
    r -= sq > k
    np.add(r, 1, out=sq)
    sq *= sq  # wraps where r + 1 > _ROOT_MAX, so those r stay
    r += (sq <= k) & (r < _ROOT_MAX)
    np.multiply(r, r, out=sq)
    return (k >= 0) & (sq == k)


def _primes(k):
    """Primes among the int64 indices k, by a segmented sieve over [min k, max k]."""
    if k.size == 0:
        return np.zeros(k.shape, dtype=bool)
    lo = max(int(k.min()), 2)
    hi = max(int(k.max()) + 1, lo + 1)
    root = math.isqrt(hi - 1)
    span = np.ones(hi - lo, dtype=bool)  # span[i]: lo + i has no prime factor <= root
    if root >= 2:
        for p in np.flatnonzero(_primes(np.arange(root + 1))).tolist():
            first = max(p * p, -(-lo // p) * p)
            span[first - lo :: p] = False
    return (k >= lo) & span[np.maximum(k - lo, 0)]


_INDEX_SETS = {"squares": _squares, "primes": _primes}


def _index_set(text):
    if text in _INDEX_SETS:
        return _INDEX_SETS[text]
    if text.startswith("multiples:"):
        m = int(text.partition(":")[2])
        if m < 1:
            raise click.UsageError("multiples:m requires m >= 1")
        return lambda k: k % m == 0
    raise click.UsageError(
        f"unknown --set {text!r} (choose squares, primes or multiples:m)"
    )


@main.command("density")
@click.option("--set", "set_name", required=True, help="squares | primes | multiples:m")
@click.option("--gamma", default=1.0, show_default=True)
@click.option("--n", "n_text", default="10000", show_default=True, help="n or comma list")
@_common
def cmd_density(set_name, gamma, n_text, out, fmt):
    """Empirical alpha-beta density of a builtin index set (alpha=1, beta=n)."""
    meta = {"command": "density", "set": set_name, "gamma": gamma, "n": n_text}

    def compute():
        query = statconv.DensityQuery(gamma=gamma, members=_index_set(set_name))
        rows = []
        for n in _parse_int_list(n_text):
            win = statconv.window(query.pair, n)
            rows.append((n, win.start, win.stop - 1, gamma, statconv.empirical_density(query, n)))
        return rows

    rows = _run(compute)
    _write(out, fmt, ("n", "window_lo", "window_hi", "gamma", "value"), rows, meta)


@main.command("korovkin")
@click.option("--a", type=float, required=True, help="target of q_n^n, in (0,1)")
@click.option("--n-list", default="50,100,200,400,800", show_default=True)
@click.option("--varpi", default=0.0, show_default=True)
@click.option("--vartheta", default=0.0, show_default=True)
@click.option("--grid", "grid_points", type=int, default=101, show_default=True)
@click.option("--gamma", default=1.0, show_default=True)
@click.option("--eps-list", default="", help="comma list of density thresholds")
@_common
def cmd_korovkin(a, n_list, varpi, vartheta, grid_points, gamma, eps_list, out, fmt):
    """Monomial sup-errors of D_{n,q_n} plus density trajectories."""
    meta = {
        "command": "korovkin", "a": a, "n_list": n_list, "varpi": varpi,
        "vartheta": vartheta, "grid": grid_points, "gamma": gamma, "eps_list": eps_list,
    }

    def compute():
        report = statconv.korovkin_harness(
            a,
            durrmeyer.StancuParams(varpi, vartheta),
            _parse_int_list(n_list),
            analysis.GridSpec(grid_points).xs,
            query=statconv.DensityQuery(gamma=gamma),
            eps_list=_parse_float_list(eps_list) if eps_list else [],
        )
        return report.columns(), report.rows()

    columns, rows = _run(compute)
    _write(out, fmt, columns, rows, meta)


if __name__ == "__main__":
    main()
