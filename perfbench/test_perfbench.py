"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    first = list(itertools.islice(workloads.requests(workload, 7), 300))
    again = list(itertools.islice(workloads.requests(workload, 7), 300))
    other = list(itertools.islice(workloads.requests(workload, 8), 300))
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_limit_eval_mix_is_fixed_per_block():
    reqs = list(itertools.islice(workloads.requests("limit-eval", 3), 20))
    kinds = [r["kind"] for r in reqs]
    assert (kinds.count("eval"), kinds.count("fixed"), kinds.count("ineq")) == (14, 3, 3)


def _eval_report(tmp_path, req):
    from qapprox import cli

    out = tmp_path / "report.csv"
    cli.main(req["args"] + ["--out", str(out)], standalone_mode=False)
    return out


@pytest.mark.parametrize("n", [7, None])
def test_perturbed_report_value_is_wrong(tmp_path, n):
    f = {"family": "quad", "params": (0.25, -1.5, 2.0),
         "text": workloads.expression("quad", (0.25, -1.5, 2.0))}
    req = {"kind": "eval", "n": n, "q": 0.9, "shift": (0.5, 1.0), "f": f, "grid": 21,
           "args": workloads._eval_args(f, n, 0.9, (0.5, 1.0), 21)}
    out = _eval_report(tmp_path, req)
    columns, rows = oracle.read_report(out)
    oracle.check_eval(req, columns, rows)
    rows[13][1] += 1e-6
    with pytest.raises(oracle.WrongResult):
        oracle.check_eval(req, columns, rows)


def test_perturbed_moment_row_is_wrong():
    import io

    from qapprox import durrmeyer, moments

    specs = [(5, 0.8, 0.5, 1.0), (None, 0.9, 1.0, 2.0)]
    objs = [durrmeyer.OperatorSpec(n, q, durrmeyer.StancuParams(vp, vt)) for n, q, vp, vt in specs]
    xs = [0.0, 0.3, 0.99]
    text = io.StringIO()
    moments.verify_moments(objs, xs).to_csv(text)
    oracle.check_verify(specs, xs, text.getvalue())
    lines = text.getvalue().splitlines()
    row = lines[-1].split(",")
    row[7] = repr(float(row[7]) + 1e-6)
    lines[-1] = ",".join(row)
    with pytest.raises(oracle.WrongResult):
        oracle.check_verify(specs, xs, "\n".join(lines))


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail(values[:11]) == (1.0, 100.0 * 1 / 11)
    assert run.tail(values[:10]) == (10.0, 100.0)
    # failed requests count as +inf and sort past every time
    assert run.tail(values[:40] + [math.inf] * 10) == (40.0, 80.0)
    assert run.tail(values[:40] + [math.inf] * 11) == (math.inf, 100.0 * 41 / 51)


def test_self_seconds_on_synthetic_tree():
    def node(nid, parent, layer, seconds):
        return {"id": nid, "parent": parent, "layer": layer, "seconds": seconds}

    # request 10 s: cli 9 s -> durrmeyer 6 s -> {funcreg 2 s, qcore 1 s -> basis 0.5 s}
    records = [
        node(0, None, "bench", 10.0),
        node(1, 0, "cli", 9.0),
        node(2, 1, "durrmeyer", 6.0),
        node(3, 2, "funcreg", 2.0),
        node(4, 2, "qcore", 1.0),
        node(5, 4, "basis", 0.5),
        node(6, 1, "reporting", 1.5),
    ]
    selfs = tracing.self_seconds(records)
    assert selfs == pytest.approx({"bench": 1.0, "cli": 1.5, "durrmeyer": 3.0, "funcreg": 2.0,
                                   "qcore": 0.5, "basis": 0.5, "reporting": 1.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_tracer_aggregates_calls_and_wraps_cross_layer_bindings():
    from qapprox import analysis, basis

    original = analysis.basis_row
    tracer = tracing.Tracer()
    bindings = tracing.install(tracer)
    try:
        wrapped = tracing.wrapped_names(bindings)
        assert "basis.basis_row" in wrapped and "qcore.jackson_integral" in wrapped
        assert "qcore.as_q" not in wrapped
        assert analysis.basis_row is basis.basis_row is not original
        tracer.request(0, analysis.basis_inequality_check, 4, 0.8, analysis.GridSpec(5))
    finally:
        for module, attr, obj in bindings:
            setattr(module, attr, obj)
    records = tracer.records()
    assert tracing.totals(records, "basis.basis_row")[0] == 5
    assert tracing.totals(records, "basis.limit_basis")[0] == 25
    # one node per (parent, function), however many calls
    assert len([r for r in records if r["name"] == "basis.limit_basis"]) == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for _, names in run.PER_LAYER.values():
        assert set(names) <= tracing.COUNTED
