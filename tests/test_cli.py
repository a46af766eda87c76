import json
import math
import time

import click
import numpy as np
import pytest
from click.testing import CliRunner

from qapprox import __version__, durrmeyer, moments
from qapprox.cli import _index_set, _parse_int_list, main
from qapprox.durrmeyer import OperatorSpec, StancuParams
from qapprox.moments import finite_moment, limit_moment


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_eval_classical_rows(runner):
    result = runner.invoke(
        main, ["eval", "--n", "3", "--q", "1", "--f", "t", "--grid", "3"]
    )
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header == ["x", "value"]
    got = [(float(x), float(v)) for x, v in rows]
    # classical first moment (nx+1)/(n+2)
    assert got[0] == pytest.approx((0.0, 0.2))
    assert got[1] == pytest.approx((0.5, 0.5))
    assert got[2] == pytest.approx((1.0, 0.8))


def test_eval_limit_constant(runner):
    result = runner.invoke(
        main, ["eval", "--limit", "--q", "0.9", "--f", "const:1", "--grid", "5"]
    )
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert all(float(v) == pytest.approx(1.0, abs=1e-10) for _, v in rows)


# one invocation per command and the config lines of its report, in order
HEADERS = [
    (["eval", "--n", "2", "--q", "0.5", "--f", "t", "--grid", "2"],
     "command=eval f=t grid=2 max_terms=1000000 n=2 q=0.5 rel_eps=1e-14 varpi=0.0 vartheta=0.0"),
    (["eval", "--limit", "--q", "0.5", "--f", "t", "--grid", "2"],
     "command=eval f=t grid=2 max_terms=1000000 n=inf q=0.5 rel_eps=1e-14 varpi=0.0 vartheta=0.0"),
    (["moments-verify"], "command=moments-verify tol=1e-09"),
    (["rate", "--f", "t", "--q", "0.5", "--n-list", "1,2", "--grid", "3"],
     "command=rate f=t grid=3 max_terms=1000000 n_list=1,2 q=0.5 rel_eps=1e-14 varpi=0.0 vartheta=0.0"),
    (["q1", "--f", "id", "--q-list", "0.5", "--grid", "3"],
     "command=q1 f=id grid=3 max_terms=1000000 q_list=0.5 rel_eps=1e-14 varpi=0.0 vartheta=0.0"),
    (["fixed", "--f", "const:1", "--q", "0.5", "--grid", "3"],
     "command=fixed f=const:1 grid=3 max_terms=1000000 q=0.5 rel_eps=1e-14 varpi=0.0 vartheta=0.0"),
    (["ineq", "--n", "2", "--q", "0.5", "--grid", "3"],
     "command=ineq grid=3 max_terms=1000000 n=2 q=0.5 rel_eps=1e-14 tol=1e-12"),
    (["density", "--set", "squares", "--n", "1..3"], "command=density gamma=1.0 n=1..3 set=squares"),
    (["korovkin", "--a", "0.5", "--n-list", "2,3", "--grid", "3"],
     "a=0.5 command=korovkin eps_list= gamma=1.0 grid=3 n_list=2,3 varpi=0.0 vartheta=0.0"),
]


def test_the_header_cases_cover_every_command():
    assert {args[0] for args, _ in HEADERS} == set(main.commands)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args, config", HEADERS,
                         ids=[args[0] + " --limit" * ("--limit" in args) for args, _ in HEADERS])
def test_metadata_header_lists_every_option(runner, args, config, fmt):
    # the config keys are the command and each option but --out/--format, as
    # parsed; eval --limit is written as n=inf
    result = runner.invoke(main, args + ["--format", fmt])
    assert result.exit_code == 0
    lines = config.split(" ")
    keys = {"command"} | {p.name for p in main.commands[args[0]].params} - {"out", "fmt", "use_limit"}
    assert [line.partition("=")[0] for line in lines] == sorted(keys)
    if fmt == "csv":
        header = f"# qapprox {__version__}\n" + "".join(f"# config: {line}\n" for line in lines)
        assert result.output.startswith(header)
        assert not result.output[len(header):].startswith("#")
    else:
        payload = json.loads(result.output)
        assert payload["tool"] == f"qapprox {__version__}"
        assert [f"{key}={value}" for key, value in payload["config"].items()] == lines


def test_eval_config_errors(runner):
    both = runner.invoke(
        main, ["eval", "--n", "3", "--limit", "--q", "0.5", "--f", "t"]
    )
    assert both.exit_code == 2
    neither = runner.invoke(main, ["eval", "--q", "0.5", "--f", "t"])
    assert neither.exit_code == 2
    bad_q = runner.invoke(main, ["eval", "--n", "3", "--q", "1.5", "--f", "t"])
    assert bad_q.exit_code == 2
    bad_f = runner.invoke(main, ["eval", "--n", "3", "--q", "0.5", "--f", "t +"])
    assert bad_f.exit_code == 2
    for rel_eps in ("inf", "nan", "1.0", "2"):
        bad_eps = runner.invoke(
            main, ["eval", "--limit", "--q", "0.5", "--f", "t", "--rel-eps", rel_eps]
        )
        assert bad_eps.exit_code == 2


def test_eval_numeric_exit_via_env(runner):
    result = runner.invoke(
        main,
        ["eval", "--n", "3", "--q", "0.5", "--f", "t", "--grid", "5"],
        env={"QAPPROX_MAX_TERMS": "5"},
    )
    assert result.exit_code == 3


def test_moments_verify_threshold(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main, ["moments-verify", "--tol", "1e-30", "--out", str(out)]
    )
    assert result.exit_code == 1  # unreachable tolerance
    assert out.exists()  # report still written
    assert "abs_dev" in out.read_text()


@pytest.mark.parametrize(
    "args",
    [["eval", "--limit", "--q", "0.5", "--f", "t", "--grid", "5"], ["moments-verify"]],
    ids=["eval", "moments-verify"],
)
def test_unwritable_output_is_a_config_error(runner, tmp_path, args):
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.splitlines() == [f"cannot write {out}: No such file or directory"]


@pytest.mark.parametrize(
    "args, patched",
    [(["eval", "--limit", "--q", "0.5", "--f", "t", "--grid", "5"], "apply"),
     (["moments-verify"], "verify_moments")],
    ids=["eval", "moments-verify"],
)
def test_missing_output_folder_is_reported_before_the_work(runner, tmp_path, monkeypatch, args, patched):
    def compute(*args, **kwargs):
        pytest.fail("the command computed before checking --out")

    monkeypatch.setattr(durrmeyer if patched == "apply" else moments, patched, compute)
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"cannot write {out}: No such file or directory"]


def test_failed_computation_leaves_the_output_file_unchanged(runner, tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("kept\n")
    result = runner.invoke(
        main, ["eval", "--n", "3", "--q", "0.5", "--f", "t", "--out", str(out)],
        env={"QAPPROX_MAX_TERMS": "5"},
    )
    assert result.exit_code == 3
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("shifts", [["--vartheta", "inf"], ["--varpi", "inf", "--vartheta", "inf"]])
def test_non_finite_shifts_are_config_errors(runner, shifts):
    result = runner.invoke(main, ["eval", "--n", "5", "--q", "0.9", "--f", "t", "--grid", "3"] + shifts)
    assert result.exit_code == 2
    assert "Stancu shifts require finite" in result.stderr


def test_density_examples(runner):
    result = runner.invoke(
        main, ["density", "--set", "squares", "--gamma", "1", "--n", "10000"]
    )
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header == ["n", "window_lo", "window_hi", "gamma", "value"]
    assert rows[0] == ["10000", "1", "10000", "1", "0.01"]

    result = runner.invoke(main, ["density", "--set", "multiples:3", "--n", "9"])
    _, rows = parse_csv(result.output)
    assert float(rows[0][-1]) == pytest.approx(3 / 9)

    result = runner.invoke(main, ["density", "--set", "primes", "--n", "10"])
    _, rows = parse_csv(result.output)
    assert float(rows[0][-1]) == pytest.approx(0.4)  # {2,3,5,7}

    for bad in ("nope", "multiples:abc", "multiples:0"):
        result = runner.invoke(main, ["density", "--set", bad, "--n", "10"])
        assert result.exit_code == 2


DENSITY_NS = [1, 2, 3, 4, 10, 262143, 262144, 262145, 10**6]


def _prime_flags(n):
    """Primality of 0..n by the plain sieve of Eratosthenes."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


@pytest.mark.parametrize("name", ["squares", "primes", "multiples:1", "multiples:7"])
def test_density_sets_give_exact_counts(runner, name):
    result = runner.invoke(
        main, ["density", "--set", name, "--n", ",".join(map(str, DENSITY_NS))]
    )
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    prime_counts = np.cumsum(_prime_flags(max(DENSITY_NS)))
    for n, row in zip(DENSITY_NS, rows):
        if name == "squares":
            count = math.isqrt(n)
        elif name == "primes":
            count = int(prime_counts[n])
        else:
            count = n // int(name.partition(":")[2])
        assert row[:3] == [str(n), "1", str(n)]
        assert float(row[-1]) == count / n


def test_square_set_at_large_roots():
    squares = _index_set("squares")
    for r in (2**26 - 1, 2**26, 2**26 + 1, 2**31 - 2, 2**31 - 1):
        k = np.array([r * r - 1, r * r, r * r + 1], dtype=np.int64)
        assert squares(k).tolist() == [False, True, False]
    k = np.arange(-3, 10**4, dtype=np.int64)
    assert squares(k).tolist() == [v >= 0 and math.isqrt(v) ** 2 == v for v in k.tolist()]
    top = math.isqrt(2**63 - 1)  # (top + 1)^2 overflows int64
    edge = [top**2 - 1, top**2, top**2 + 1, (top - 1) ** 2, (top - 1) ** 2 + 1, 2**63 - 2, 2**63 - 1]
    assert squares(np.array(edge, dtype=np.int64)).tolist() == [math.isqrt(v) ** 2 == v for v in edge]


def test_fixed_value(runner):
    result = runner.invoke(main, ["fixed", "--q", "0.5", "--f", "id", "--grid", "101"])
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert float(rows[0][-1]) == pytest.approx(0.5, abs=1e-10)


def test_ineq_ok(runner):
    result = runner.invoke(
        main, ["ineq", "--n", "8", "--q", "0.5", "--grid", "51"]
    )
    assert result.exit_code == 0



@pytest.mark.parametrize("n", ["0", "-1"])
def test_ineq_rejects_a_degree_below_one(runner, n):
    result = runner.invoke(main, ["ineq", "--n", n, "--q", "0.5", "--grid", "11"])
    assert result.exit_code == 2
    assert "n must be a positive integer" in result.output


THRESHOLD_COMMANDS = {
    "moments-verify": ["moments-verify"],
    "ineq": ["ineq", "--n", "8", "--q", "0.5", "--grid", "11"],
}


@pytest.mark.parametrize("command", THRESHOLD_COMMANDS)
@pytest.mark.parametrize("tol", ["nan", "-1e-12", "-inf"])
def test_a_nan_or_negative_tolerance_is_a_usage_error(runner, command, tol):
    result = runner.invoke(main, THRESHOLD_COMMANDS[command] + ["--tol", tol])
    assert result.exit_code == 2
    assert "Invalid value for '--tol'" in result.output


@pytest.mark.parametrize("command", THRESHOLD_COMMANDS)
def test_a_nan_deviation_fails_the_threshold_check(runner, monkeypatch, tmp_path, command):
    # a check of value > tol passes a NaN; the commands check not (value <= tol)
    if command == "ineq":
        from qapprox import analysis

        monkeypatch.setattr(analysis, "basis_inequality_check", lambda *args: math.nan)
    else:
        report = moments.verify_moments([OperatorSpec(2, 0.5)], [0.5])
        report.blocks[0][4][0] = math.nan  # the series value of t^0 at x = 0.5
        monkeypatch.setattr(moments, "verify_moments", lambda: report)
    out = tmp_path / "report.csv"
    result = runner.invoke(main, THRESHOLD_COMMANDS[command] + ["--tol", "inf", "--out", str(out)])
    assert result.exit_code == 1
    assert "nan exceeds tol inf" in result.stderr
    assert "nan" in out.read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["rate", "--f", "t", "--q", "0.9", "--n-list", "40..5"],
        ["rate", "--f", "t", "--q", "0.9", "--n-list", ""],
        ["korovkin", "--a", "0.5", "--n-list", "40..20"],
        ["q1", "--f", "t", "--q-list", ""],
    ],
)
def test_empty_lists_are_usage_errors(runner, args):
    result = runner.invoke(main, args + ["--grid", "11"])
    assert result.exit_code == 2
    assert "is empty" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["rate", "--f", "t", "--q", "0.9", "--n-list", "1..300000000"],
        ["korovkin", "--a", "0.5", "--n-list", "1..300000000"],
        ["density", "--set", "squares", "--n", "1..3000000000"],
        ["density", "--set", "multiples:1", "--n", str(2**63 - 1)],
        ["density", "--set", "multiples:1", "--n", str(2**63)],
    ],
)
def test_oversized_ranges_and_windows_exit_2_at_once(runner, args):
    # a range is checked against the cap before its list is built, and a
    # window must fit the int64 indices of the scan
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "has more than 1000000 values" in result.output or "int64 index range" in result.output


def test_a_range_holds_at_most_max_terms_values():
    assert _parse_int_list("1..1000000") == list(range(1, 1000001))
    with pytest.raises(click.UsageError, match="has more than 1000000 values"):
        _parse_int_list("1..1000001")


@pytest.mark.parametrize(
    "args",
    [
        ["rate", "--f", "t", "--q", "0.9", "--n-list", "5,5"],
        ["rate", "--f", "t", "--q", "0.9", "--n-list", "5,10,10"],
        ["q1", "--f", "t", "--q-list", "0.5,0.5"],
        ["korovkin", "--a", "0.5", "--n-list", "10,10,20"],
    ],
)
def test_repeated_list_values_are_usage_errors(runner, args, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(main, args + ["--grid", "11", "--out", str(out)])
    assert result.exit_code == 2
    assert "strictly increas" in result.output
    assert not out.exists()


def test_q1_rows(runner):
    result = runner.invoke(
        main,
        ["q1", "--f", "square", "--q-list", "0.9,0.99", "--grid", "101"],
    )
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert float(rows[0][1]) > float(rows[1][1])


def test_rate_json_format(runner):
    result = runner.invoke(
        main,
        [
            "rate", "--f", "id", "--q", "0.8", "--n-list", "5,10",
            "--grid", "51", "--format", "json",
        ],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload["columns"]) >= {"n", "sup_diff", "omega", "ratio"}
    assert len(payload["data"]["n"]) == 2


def test_korovkin_columns(runner):
    result = runner.invoke(
        main,
        [
            "korovkin", "--a", "0.5", "--n-list", "20,40", "--grid", "21",
            "--eps-list", "0.05",
        ],
    )
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
    assert header[:5] == ["n", "qn", "e0", "e1", "e2"]
    assert any(c.startswith("dens1_eps") for c in header)
    assert len(rows) == 2


@pytest.mark.parametrize("eps_list", ["nan", "inf", "0.05,nan"])
def test_korovkin_rejects_non_finite_eps(runner, eps_list):
    result = runner.invoke(
        main, ["korovkin", "--a", "0.5", "--n-list", "20,40", "--grid", "21", "--eps-list", eps_list]
    )
    assert result.exit_code == 2
    assert "eps must be finite and positive" in result.output


def test_expression_f_argument(runner):
    result = runner.invoke(
        main,
        ["eval", "--n", "3", "--q", "1", "--f", "2*t+1", "--grid", "3"],
    )
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    # linearity: 2 * (nx+1)/(n+2) + 1
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("f", ["t" + "+t" * 1500, "(" * 1200 + "t" + ")" * 1200,
                               "abs(" * 1200 + "t" + ")" * 1200, "-" * 1200 + "t"])
def test_deeply_nested_f_is_a_config_error(runner, f):
    result = runner.invoke(main, ["eval", "--limit", "--q", "0.9", "--f", f, "--grid", "3"])
    assert result.exit_code == 2
    assert "nested more than" in result.output


@pytest.mark.parametrize("command", ["eval", "rate", "q1", "fixed"])
def test_every_f_option_names_the_aliases(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert "absdev:c" in result.output and "expression in t" in result.output


def test_an_infinite_constant_is_a_numeric_error(runner):
    result = runner.invoke(main, ["eval", "--limit", "--q", "0.9", "--f", "const:inf", "--grid", "3"])
    assert result.exit_code == 3


@pytest.mark.parametrize("q, f", [("0.8", "sin(3*t)"), ("1", "abs(t-0.37)")])
def test_output_file_and_repeatability(runner, tmp_path, q, f):
    args = [
        "eval", "--n", "5", "--q", q, "--varpi", "1", "--vartheta", "2",
        "--f", f, "--grid", "33",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_classical_takes_the_series_options(runner, tmp_path):
    args = ["eval", "--n", "5", "--q", "1", "--f", "abs(t-0.37)", "--grid", "11"]
    capped = runner.invoke(main, args + ["--max-terms", "50"])
    assert capped.exit_code == 3
    assert "numeric error" in capped.stderr
    values = []
    for name, extra in (("default", []), ("loose", ["--rel-eps", "1e-4"])):
        path = tmp_path / f"{name}.csv"
        assert runner.invoke(main, args + extra + ["--out", str(path)]).exit_code == 0
        values.append([float(v) for _, v in parse_csv(path.read_text())[1]])
    default, loose = values
    assert default != loose
    assert np.allclose(default, loose, rtol=0.0, atol=1e-4)


@pytest.mark.parametrize("operator", [["--n", "3"], ["--limit"]])
def test_eval_overflowing_f_is_a_numeric_error(runner, operator):
    result = runner.invoke(
        main, ["eval", *operator, "--q", "0.5", "--f", "exp(1000*t)", "--grid", "5"]
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("n", ["2147483648", "10000000"])
def test_eval_degree_beyond_max_terms_exits_3_at_once(runner, n):
    # the n + 1 coefficients count against --max-terms before anything is
    # allocated: no MemoryError, no gigabytes
    start = time.perf_counter()
    result = runner.invoke(main, ["eval", "--n", n, "--q", "0.5", "--f", "t", "--grid", "3"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 3
    assert result.stderr.splitlines() == ["numeric error: finite coefficient count n + 1 exceeds max_terms"]


def test_rate_ratio_is_nan_where_omega_is_zero(runner):
    # grid 2 has spacing 1, so omega(t, q^2) compares pairs within 0.25 + 0.5
    # of each other: none, and omega is 0
    result = runner.invoke(main, ["rate", "--f", "t", "--q", "0.5", "--n-list", "1,2", "--grid", "2"])
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    assert [(row[0], row[5], row[6]) for row in rows] == [
        ("1", "1", "0.1428571428571429"), ("2", "0", "nan")
    ]


def test_eval_classical_beyond_float_binomials_is_a_numeric_error(runner):
    result = runner.invoke(main, ["eval", "--n", "1200", "--q", "1", "--f", "t^2", "--grid", "5"])
    assert result.exit_code == 3


MONOMIALS = ((0, "const:1"), (1, "t"), (2, "t^2"))


@pytest.mark.parametrize("n, q", [(200, 0.01), (2000, 0.5)])
def test_eval_finite_operator_beyond_float_q_powers(runner, n, q):
    # q^-k of the integral form overflows a float here; the operator does not
    spec = OperatorSpec(n, q)
    for j, src in MONOMIALS:
        args = ["eval", "--n", str(n), "--q", str(q), "--f", src, "--grid", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        xs, got = np.array(rows, dtype=float).T
        assert np.allclose(got, finite_moment(spec, j, xs), rtol=0.0, atol=1e-10)


def test_rate_finite_operator_beyond_float_q_powers(runner):
    xs = np.linspace(0.0, 1.0, 11)
    for j, src in MONOMIALS:
        args = ["rate", "--q", "0.05", "--n-list", "5..300", "--f", src, "--grid", "11"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [int(row[0]) for row in rows] == list(range(5, 301))
        limit = limit_moment(0.05, StancuParams(), j, xs)
        for row in rows:
            finite = finite_moment(OperatorSpec(int(row[0]), 0.05), j, xs)
            assert float(row[4]) == pytest.approx(np.max(np.abs(finite - limit)), abs=1e-10)


@pytest.mark.parametrize(
    "args",
    [
        ["moments-verify"],
        ["density", "--set", "squares", "--n", "100"],
        ["korovkin", "--a", "0.5", "--n-list", "20,40", "--grid", "21"],
    ],
)
def test_commands_without_series_reject_truncation_options(runner, args):
    assert runner.invoke(main, args + ["--rel-eps", "1e-10"]).exit_code == 2
    assert runner.invoke(main, args + ["--max-terms", "5"]).exit_code == 2
