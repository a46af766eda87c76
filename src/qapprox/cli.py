"""Command-line surface: reproducible experiments with CSV/JSON reports.

Exit codes: 0 ok, 1 an assertion threshold failed (report still written),
2 invalid configuration, 3 numeric failure.
"""

import sys

import click

from . import analysis, durrmeyer, funcreg, moments, statconv
from .basis import INFINITE
from .qcore import DEFAULT_POLICY, QApproxError, TruncationPolicy
from .reporting import open_output, write_csv, write_json

EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _parse_int_list(text):
    """Accept '50,100,200' or a range '5..40'."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def _parse_float_list(text):
    return [float(part) for part in text.split(",") if part]


def _write(out, fmt, columns, rows, meta):
    with open_output(out) as stream:
        if fmt == "json":
            write_json(stream, columns, rows, meta=meta)
        else:
            write_csv(stream, columns, rows, meta=meta)


def _common(fn):
    fn = click.option("--out", default="-", show_default=True, help="output path ('-' = stdout)")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)(fn)
    return fn


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
@click.option("--f", "fsrc", required=True, help="builtin name or expression in t")
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
        return [(float(x), float(v)) for x, v in zip(xs, vals)]

    rows = _run(compute)
    _write(out, fmt, ("x", "value"), rows, meta)


@main.command("moments-verify")
@click.option("--tol", default=1e-9, show_default=True, help="max allowed abs deviation")
@_common
def cmd_moments_verify(tol, out, fmt):
    """Compare closed-form moments against the operator series path."""
    meta = {"command": "moments-verify", "tol": tol}
    report = _run(moments.verify_moments)
    with open_output(out) as stream:
        if fmt == "json":
            report.to_json(stream, meta=meta)
        else:
            report.to_csv(stream, meta=meta)
    if report.max_abs_dev > tol:
        click.echo(f"max_abs_dev {report.max_abs_dev:g} exceeds tol {tol:g}", err=True)
        sys.exit(EXIT_THRESHOLD)


@main.command("rate")
@click.option("--f", "fsrc", required=True)
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
@click.option("--f", "fsrc", required=True)
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
@click.option("--f", "fsrc", required=True)
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
@click.option("--tol", default=1e-12, show_default=True)
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
    if rows[0][2] > tol:
        click.echo(f"max violation {rows[0][2]:g} exceeds tol {tol:g}", err=True)
        sys.exit(EXIT_THRESHOLD)


_INDEX_SETS = {
    "squares": lambda k: k >= 0 and int(k**0.5 + 0.5) ** 2 == k,
    "primes": lambda k: _is_prime(k),
}


def _is_prime(k):
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


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
    members = _index_set(set_name)

    def compute():
        query = statconv.DensityQuery(gamma=gamma, members=members)
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
            eps_list=_parse_float_list(eps_list),
        )
        return report.columns(), report.rows()

    columns, rows = _run(compute)
    _write(out, fmt, columns, rows, meta)


if __name__ == "__main__":
    main()
