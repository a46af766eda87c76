import json

import pytest
from click.testing import CliRunner

from qapprox.cli import main


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


def test_eval_metadata_header(runner):
    result = runner.invoke(
        main, ["eval", "--n", "2", "--q", "0.5", "--f", "t", "--grid", "2"]
    )
    lines = result.output.splitlines()
    assert lines[0].startswith("# qapprox ")
    assert any(l.startswith("# config: command=eval") for l in lines)
    assert any(l.startswith("# config: q=0.5") for l in lines)


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

    result = runner.invoke(main, ["density", "--set", "nope", "--n", "10"])
    assert result.exit_code == 2


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


def test_expression_f_argument(runner):
    result = runner.invoke(
        main,
        ["eval", "--n", "3", "--q", "1", "--f", "2*t+1", "--grid", "3"],
    )
    assert result.exit_code == 0
    _, rows = parse_csv(result.output)
    # linearity: 2 * (nx+1)/(n+2) + 1
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-10)


def test_output_file_and_repeatability(runner, tmp_path):
    args = [
        "eval", "--n", "5", "--q", "0.8", "--varpi", "1", "--vartheta", "2",
        "--f", "sin(3*t)", "--grid", "33",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("operator", [["--n", "3"], ["--limit"]])
def test_eval_overflowing_f_is_a_numeric_error(runner, operator):
    result = runner.invoke(
        main, ["eval", *operator, "--q", "0.5", "--f", "exp(1000*t)", "--grid", "5"]
    )
    assert result.exit_code == 3


def test_eval_classical_beyond_float_binomials_is_a_numeric_error(runner):
    result = runner.invoke(main, ["eval", "--n", "1200", "--q", "1", "--f", "t^2", "--grid", "5"])
    assert result.exit_code == 3


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
