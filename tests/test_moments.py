import io

import numpy as np
import oracles
import pytest

from qapprox import basis, durrmeyer
from qapprox.basis import INFINITE
from qapprox.durrmeyer import OperatorSpec, StancuParams, apply
from qapprox.moments import (
    MONOMIALS,
    _finite_moments,
    _limit_moments,
    central_moments,
    default_grid,
    finite_moment,
    finite_moment_at,
    limit_moment,
    verify_moments,
)

XS = [round(0.1 * i, 1) for i in range(11)]
FINITE_SPECS = [
    OperatorSpec(n, q, st)
    for q in (0.5, 0.8, 0.95, 1.0)
    for n in (1, 2, 5, 10)
    for st in (StancuParams(), StancuParams(1.0, 2.0), StancuParams(0.5, 3.0))
]


def classical_durrmeyer_moment(n, j, x):
    # independent classical closed forms at varpi = vartheta = 0
    if j == 0:
        return 1.0
    if j == 1:
        return (n * x + 1.0) / (n + 2.0)
    return ((n * n - n) * x * x + 4.0 * n * x + 2.0) / ((n + 2.0) * (n + 3.0))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_classical_limit_oracle(n, j):
    spec = OperatorSpec(n, 1.0)
    for x in XS:
        assert finite_moment(spec, j, x) == pytest.approx(
            classical_durrmeyer_moment(n, j, x), abs=1e-12
        )


def test_classical_spot_values():
    spec = OperatorSpec(3, 1.0)
    assert finite_moment(spec, 0, 0.7) == 1.0
    assert finite_moment(spec, 1, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert finite_moment(spec, 2, 0.5) == pytest.approx((6 * 0.25 + 6 + 2) / 30.0, abs=1e-14)


@pytest.mark.parametrize("spec", FINITE_SPECS, ids=str)
def test_moment_consistency_with_series(spec):
    for j, mono in MONOMIALS.items():
        for x in (0.0, 0.3, 0.7, 1.0):
            assert finite_moment(spec, j, x) == pytest.approx(
                apply(spec, mono, x), abs=1e-9
            )


def test_finite_moment_at_evaluates_a_sequence_of_specs():
    # one call over the column of (n, q) pairs of the q < 1 specs against
    # one finite_moment call per spec
    specs = [s for s in FINITE_SPECS if s.q < 1.0 and s.stancu == StancuParams(1.0, 2.0)]
    ns = np.array([[s.n] for s in specs])
    qs = np.array([[s.q] for s in specs])
    xs = np.array(XS)
    for j in range(3):
        got = np.broadcast_to(finite_moment_at(ns, qs, StancuParams(1.0, 2.0), j, xs), (len(specs), len(xs)))
        want = np.array([finite_moment(s, j, xs) for s in specs])
        assert np.allclose(got, want, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("spec", FINITE_SPECS, ids=str)
def test_central_moment_identity(spec):
    for x in XS:
        m1 = finite_moment(spec, 1, x)
        m2 = finite_moment(spec, 2, x)
        delta, gamma = central_moments(spec, x)
        assert delta == pytest.approx(m1 - x, abs=1e-12)
        assert gamma == pytest.approx(m2 - 2 * x * m1 + x * x, abs=1e-10)
        assert gamma >= -1e-12  # second central moment of a positive operator


def test_central_moment_classical_spot():
    spec = OperatorSpec(3, 1.0)
    delta, _ = central_moments(spec, 0.5)
    assert delta == pytest.approx(0.0, abs=1e-14)


def test_limit_moment_examples():
    st = StancuParams()
    assert limit_moment(0.9, st, 1, 0.5) == pytest.approx(0.55, abs=1e-14)
    assert limit_moment(0.5, st, 1, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert limit_moment(0.9, st, 0, 0.3) == 1.0
    # every non-x^2 term of the second moment carries a factor (1 - q)
    for x in XS:
        assert limit_moment(0.999999, st, 2, x) == pytest.approx(x * x, abs=1e-5)
    with pytest.raises(ValueError):
        limit_moment(1.0, st, 1, 0.5)
    with pytest.raises(ValueError):
        limit_moment(0.5, st, 3, 0.5)


def test_limit_moment_matches_series():
    for q in (0.5, 0.9):
        for st in (StancuParams(), StancuParams(1.0, 2.0)):
            spec = OperatorSpec(INFINITE, q, st)
            for j, mono in MONOMIALS.items():
                for x in (0.0, 0.25, 0.5, 0.75):
                    assert limit_moment(q, st, j, x) == pytest.approx(
                        apply(spec, mono, x), abs=1e-9
                    )


def test_limit_first_moment_dominates_x():
    # at varpi = vartheta = 0: m1 - x = (1-q)(1-x) > 0 on [0, 1)
    st = StancuParams()
    for q in (0.1, 0.5, 0.9, 0.99):
        for x in np.linspace(0.0, 0.99, 34):
            assert limit_moment(q, st, 1, x) > x


def test_limit_central_moments():
    spec = OperatorSpec(INFINITE, 0.8, StancuParams(1.0, 2.0))
    for x in XS:
        m1 = limit_moment(0.8, spec.stancu, 1, x)
        m2 = limit_moment(0.8, spec.stancu, 2, x)
        delta, gamma = central_moments(spec, x)
        assert delta == pytest.approx(m1 - x, abs=1e-14)
        assert gamma == pytest.approx(m2 - 2 * x * m1 + x * x, abs=1e-14)


def test_verify_moments_custom_grid():
    specs = [OperatorSpec(3, 1.0), OperatorSpec(5, 0.8, StancuParams(1.0, 2.0))]
    report = verify_moments(specs, [0.0, 0.5, 1.0])
    assert len(report.rows) == 2 * 3 * 3
    assert report.max_abs_dev <= 1e-9
    assert report.max_rel_dev <= 1e-9
    classical = [r for r in report.rows if r.q == 1.0]
    assert max(r.abs_dev for r in classical) <= 1e-12


def test_report_table_and_deviations_match_its_rows():
    specs = [OperatorSpec(3, 1.0), OperatorSpec(5, 0.8, StancuParams(1.0, 2.0)), OperatorSpec(INFINITE, 0.5)]
    report = verify_moments(specs, [0.0, 0.25, 0.5, 1.0])
    rows = report.rows
    assert report._table() == [
        ("inf" if r.n is None else r.n, r.q, r.varpi, r.vartheta, r.x, r.j, r.closed, r.series, r.abs_dev)
        for r in rows
    ]
    assert report.max_abs_dev == max(r.abs_dev for r in rows)
    assert report.max_rel_dev == max(r.abs_dev / max(abs(r.closed), 1.0) for r in rows)


def test_report_serialization():
    report = verify_moments([OperatorSpec(2, 0.5)], [0.5])
    csv_out = io.StringIO()
    report.to_csv(csv_out, meta={"tol": 1e-9})
    text = csv_out.getvalue()
    assert text.startswith("# qapprox")
    assert "n,q,varpi,vartheta,x,j,closed,series,abs_dev" in text
    json_out = io.StringIO()
    report.to_json(json_out)
    assert '"closed"' in json_out.getvalue()


def test_verify_handles_limit_specs_and_x1():
    report = verify_moments([OperatorSpec(INFINITE, 0.5)], [0.0, 0.5, 1.0])
    assert report.max_abs_dev <= 1e-9


def test_finite_moments_are_the_per_j_values_bitwise():
    st = StancuParams(1.0, 2.0)
    xs = np.array(XS)
    ns = np.array([[1], [5], [40], [300]])
    qs = np.array([[0.5], [0.9], [0.99], [0.999]])
    cases = [(3, 1.0, 0.3), (7, 0.8, 0.0), (7, 0.8, xs), (ns, qs, xs), (ns, 0.9, 0.25)]
    for n, q, x in cases:
        got = _finite_moments(n, q, st, x)
        for j in range(3):
            assert np.asarray(got[j]).tobytes() == np.asarray(finite_moment_at(n, q, st, j, x)).tobytes()
    for q in (0.5, 0.9, 0.999):
        for x in (0.3, xs):
            got = _limit_moments(q, st, x)
            for j in range(3):
                assert np.asarray(got[j]).tobytes() == np.asarray(limit_moment(q, st, j, x)).tobytes()
    for j in (-1, 3, 0.5):
        with pytest.raises(ValueError):
            finite_moment_at(3, 0.5, st, j, 0.3)


def verify_stats_pool():
    """The specs of the benchmark's verify-stats workload."""
    specs = [OperatorSpec(n, q, StancuParams(vp, vt)) for q in (0.5, 0.8, 0.95, 1.0)
             for n in (1, 2, 5, 10, 25, 50) for vp, vt in ((0.0, 0.0), (0.5, 1.0), (1.0, 2.0))]
    return specs + [OperatorSpec(INFINITE, q, StancuParams(vp, vt)) for q in (0.5, 0.9, 0.99)
                    for vp, vt in ((0.5, 1.0), (1.0, 2.0))]


def csv_text(report):
    text = io.StringIO()
    report.to_csv(text, meta={"command": "moments-verify"})
    return text.getvalue()


@pytest.mark.parametrize(
    "specs, xs",
    [default_grid(),
     (verify_stats_pool(), [0.0, 0.0123, 0.5, 0.5, 0.97, 0.99, 1.0 - 1e-5, 1.0 - 1e-9, 1.0])],
    ids=["default", "verify-stats-near-1"],
)
def test_verify_moments_report_is_the_per_monomial_report(specs, xs):
    assert csv_text(verify_moments(specs, xs)) == csv_text(oracles.verify_moments(specs, xs))


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call is counted; returns the count list."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_verify_moments_takes_one_pass_per_spec(monkeypatch):
    finite = [OperatorSpec(5, 0.8), OperatorSpec(300, 0.99, StancuParams(1.0, 2.0)), OperatorSpec(4, 1.0)]
    limit = [OperatorSpec(INFINITE, 0.5), OperatorSpec(INFINITE, 0.9, StancuParams(1.0, 2.0))]
    xs = list(np.linspace(0.0, 1.0, 120))
    verify_moments(finite + limit, xs)  # coefficients warm, so only the series passes count
    bases = counting(monkeypatch, basis, "basis_matrix")
    pochhammers = counting(monkeypatch, durrmeyer, "log_q_pochhammer_inf")
    verify_moments(finite + limit, xs)
    blocks = sum(-(-len(xs) // max(1, durrmeyer.GRID_ENTRIES // (s.n + 1))) for s in finite)
    assert blocks == 5  # n = 300 takes three blocks of rows
    assert len(bases) == blocks
    assert len(pochhammers) == len(limit)
