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
    """Accept '50,100,200' or a range '5..40'; an empty list, or a range of
    more than DEFAULT_POLICY.max_terms values, is a usage error."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if hi - lo >= DEFAULT_POLICY.max_terms:  # checked before the list is built
            raise click.UsageError(f"the range {text!r} has more than {DEFAULT_POLICY.max_terms} values")
        return _nonempty(list(range(lo, hi + 1)), text)
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


def _threshold(label, value, tol):
    """Exit with code 1 unless value <= tol, so a NaN value fails too."""
    if not value <= tol:
        click.echo(f"{label} {value:g} exceeds tol {tol:g}", err=True)
        sys.exit(EXIT_THRESHOLD)


def _cannot_write(out, reason):
    click.echo(f"cannot write {out}: {reason}", err=True)
    sys.exit(EXIT_CONFIG)


def _out_folder_exists(ctx, param, out):
    """A missing --out folder exits with code 2 before the work; the file is
    opened only to write the report, so a failed run leaves it as it was."""
    if out != "-" and not os.path.isdir(os.path.dirname(out) or "."):
        _cannot_write(out, os.strerror(errno.ENOENT))
    return out


def _report(columns, rows):
    """Write the report to --out in --format; a path that cannot be opened
    exits with code 2.  Its config lines are the command's name and every
    other option as parsed."""
    ctx = click.get_current_context()
    meta = {"command": ctx.info_name, **ctx.params}
    out, fmt = meta.pop("out"), meta.pop("fmt")
    with contextlib.ExitStack() as stack:
        try:
            stream = stack.enter_context(open_output(out))
        except OSError as exc:
            _cannot_write(out, exc.strerror or exc)
        (write_json if fmt == "json" else write_csv)(stream, columns, rows, meta=meta)


def _common(fn):
    fn = click.option("--out", default="-", show_default=True, callback=_out_folder_exists,
                      help="output path ('-' = stdout)")(fn)
    return click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                        show_default=True)(fn)


def _series(fn):
    """Truncation options of the commands that evaluate series."""
    fn = click.option("--rel-eps", default=DEFAULT_POLICY.rel_eps, show_default=True)(fn)
    return click.option("--max-terms", default=DEFAULT_POLICY.max_terms, show_default=True,
                        envvar="QAPPROX_MAX_TERMS", help="series term cap (env: QAPPROX_MAX_TERMS)")(fn)


def _stancu(fn):
    """The Stancu shifts --varpi and --vartheta."""
    fn = click.option("--vartheta", default=0.0, show_default=True)(fn)
    return click.option("--varpi", default=0.0, show_default=True)(fn)


def _grid(default):
    return click.option("--grid", type=int, default=default, show_default=True)


def _tol(default, help):
    return click.option("--tol", default=default, show_default=True, callback=_tolerance, help=help)


_q = click.option("--q", type=float, required=True)
_f = click.option("--f", required=True, help="expression in t, or a registry alias of one: "
                  "id, square, expdec, const:c, absdev:c, sin:a")


@click.group()
def main():
    """q-Durrmeyer-Stancu operator experiments."""


@contextlib.contextmanager
def _run():
    """Validate/compute in the block: a ValueError exits with code 2 as a
    usage error, a QApproxError with code 3 as a numeric one."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except QApproxError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)


@main.command("eval")
@click.option("--n", type=int, default=None, help="operator degree (finite operator)")
@click.option("--limit", "use_limit", is_flag=True, help="use the limit operator")
@_q
@_stancu
@_f
@_grid(1001)
@_common
@_series
def cmd_eval(n, use_limit, q, varpi, vartheta, f, grid, out, fmt, rel_eps, max_terms):
    """Evaluate the operator on a uniform grid: rows (x, value)."""
    if (n is None) == (not use_limit):
        raise click.UsageError("exactly one of --n or --limit is required")
    params = click.get_current_context().params
    params["n"] = "inf" if params.pop("use_limit") else n  # --limit reports as n=inf
    with _run():
        fn, policy = funcreg.resolve(f), TruncationPolicy(rel_eps, max_terms)
        stancu = durrmeyer.StancuParams(varpi, vartheta)
        spec = durrmeyer.OperatorSpec(INFINITE if use_limit else n, q, stancu, policy)
        xs = analysis.GridSpec(grid).xs
        values = durrmeyer.apply(spec, fn, xs)
    _report(("x", "value"), list(zip(xs.tolist(), values.tolist())))


@main.command("moments-verify")
@_tol(1e-9, "max allowed abs deviation")
@_common
def cmd_moments_verify(tol, out, fmt):
    """Compare closed-form moments against the operator series path."""
    with _run():
        report = moments.verify_moments()
    _report(report.columns(), report.table())
    _threshold("max_abs_dev", report.max_abs_dev, tol)


@main.command("rate")
@_f
@_q
@_stancu
@click.option("--n-list", default="5..40", show_default=True)
@_grid(1001)
@_common
@_series
def cmd_rate(f, q, varpi, vartheta, n_list, grid, out, fmt, rel_eps, max_terms):
    """Finite-vs-limit convergence rows (n, sup_diff, omega, ratio)."""
    with _run():
        report = analysis.rate_experiment(
            funcreg.resolve(f), q, durrmeyer.StancuParams(varpi, vartheta), _parse_int_list(n_list),
            analysis.GridSpec(grid), TruncationPolicy(rel_eps, max_terms),
        )
    _report(("n", "q", "varpi", "vartheta", "sup_diff", "omega", "ratio"),
            [(n, q, varpi, vartheta, *rest) for n, *rest in report.rows])


@main.command("q1")
@_f
@click.option("--q-list", default="0.9,0.99,0.999", show_default=True)
@_stancu
@_grid(1001)
@_common
@_series
def cmd_q1(f, q_list, varpi, vartheta, grid, out, fmt, rel_eps, max_terms):
    """Limit-operator error ||D_inf,q f - f|| for q increasing toward 1."""
    with _run():
        rows = analysis.q_to_one_experiment(
            funcreg.resolve(f), durrmeyer.StancuParams(varpi, vartheta), _parse_float_list(q_list),
            analysis.GridSpec(grid), TruncationPolicy(rel_eps, max_terms),
        )
    _report(("q", "sup_diff"), rows)


@main.command("fixed")
@_f
@_q
@_stancu
@_grid(1001)
@_common
@_series
def cmd_fixed(f, q, varpi, vartheta, grid, out, fmt, rel_eps, max_terms):
    """Fixed-point distance ||D_inf f - f|| (zero iff f is constant)."""
    with _run():
        value = analysis.fixed_point_check(
            funcreg.resolve(f), q, durrmeyer.StancuParams(varpi, vartheta),
            analysis.GridSpec(grid), TruncationPolicy(rel_eps, max_terms),
        )
    _report(("q", "varpi", "vartheta", "sup_diff"), [(q, varpi, vartheta, value)])


@main.command("ineq")
@click.option("--n", type=int, required=True)
@_q
@_grid(101)
@_tol(1e-12, "max allowed violation")
@_common
@_series
def cmd_ineq(n, q, grid, tol, out, fmt, rel_eps, max_terms):
    """Max violation of the finite/limit basis domination inequality."""
    with _run():
        value = analysis.basis_inequality_check(
            n, q, analysis.GridSpec(grid), TruncationPolicy(rel_eps, max_terms))
    _report(("n", "q", "max_violation"), [(n, q, value)])
    _threshold("max violation", value, tol)


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
@click.option("--set", required=True, help="squares | primes | multiples:m")
@click.option("--gamma", default=1.0, show_default=True)
@click.option("--n", default="10000", show_default=True, help="n or comma list")
@_common
def cmd_density(set, gamma, n, out, fmt):
    """Empirical alpha-beta density of a builtin index set (alpha=1, beta=n)."""
    with _run():
        query = statconv.DensityQuery(gamma=gamma, members=_index_set(set))
        rows = []
        for m in _parse_int_list(n):
            win = statconv.window(query.pair, m)
            rows.append((m, win.start, win.stop - 1, gamma, statconv.empirical_density(query, m)))
    _report(("n", "window_lo", "window_hi", "gamma", "value"), rows)


@main.command("korovkin")
@click.option("--a", type=float, required=True, help="target of q_n^n, in (0,1)")
@click.option("--n-list", default="50,100,200,400,800", show_default=True)
@_stancu
@_grid(101)
@click.option("--gamma", default=1.0, show_default=True)
@click.option("--eps-list", default="", help="comma list of density thresholds")
@_common
def cmd_korovkin(a, n_list, varpi, vartheta, grid, gamma, eps_list, out, fmt):
    """Monomial sup-errors of D_{n,q_n} plus density trajectories."""
    with _run():
        report = statconv.korovkin_harness(
            a, durrmeyer.StancuParams(varpi, vartheta), _parse_int_list(n_list),
            analysis.GridSpec(grid).xs, query=statconv.DensityQuery(gamma=gamma),
            eps_list=_parse_float_list(eps_list) if eps_list else [],
        )
    _report(report.columns(), report.rows())


if __name__ == "__main__":
    main()
