"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
the lines for passing criteria too).
"""

import math
import statistics
import time

import numpy as np
from click.testing import CliRunner

from qapprox import limit_basis_identity_sums
from qapprox.analysis import (
    GridSpec,
    basis_inequality_check,
    fixed_point_check,
    q_to_one_experiment,
    rate_experiment,
)
from qapprox.basis import INFINITE
from qapprox.cli import main
from qapprox.durrmeyer import (
    OperatorSpec,
    StancuParams,
    apply_finite,
    apply_limit,
)
from qapprox.funcreg import builtin, from_expression
from qapprox.moments import MONOMIALS, central_moments, finite_moment
from qapprox.statconv import DensityQuery, empirical_density, korovkin_harness


def report(number, label, ok):
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


GRID_SPECS = [
    OperatorSpec(n, q, st)
    for q in (0.5, 0.8, 0.95, 1.0)
    for n in (1, 2, 5, 10, 25)
    for st in (StancuParams(0.0, 0.0), StancuParams(1.0, 2.0), StancuParams(0.5, 3.0))
]
GRID_XS = [round(0.1 * i, 1) for i in range(11)]


def test_criterion_01_moment_identity_suite():
    start = time.perf_counter()
    worst = 0.0
    for spec in GRID_SPECS:
        for j, mono in MONOMIALS.items():
            for x in GRID_XS:
                dev = abs(apply_finite(spec, mono, x) - finite_moment(spec, j, x))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    assert report(1, "moment-identity suite", ok), (worst, elapsed)


def test_criterion_02_central_moment_consistency():
    worst_delta = worst_gamma = 0.0
    for spec in GRID_SPECS:
        for x in GRID_XS:
            m1 = finite_moment(spec, 1, x)
            m2 = finite_moment(spec, 2, x)
            delta, gamma = central_moments(spec, x)
            worst_delta = max(worst_delta, abs(delta - (m1 - x)))
            worst_gamma = max(worst_gamma, abs(gamma - (m2 - 2 * x * m1 + x * x)))
    ok = worst_delta <= 1e-10 and worst_gamma <= 1e-10
    assert report(2, "central-moment consistency", ok), (worst_delta, worst_gamma)


def test_criterion_03_limit_basis_identities():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.3, 0.6, 0.9):
        for x in [round(0.1 * i, 1) for i in range(10)]:
            s0, s1, s2 = limit_basis_identity_sums(q, x)
            worst = max(
                worst,
                abs(s0 - 1.0),
                abs(s1 - x),
                abs(s2 - (x * x + (1 - q) * x * (1 - x))),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 2.0
    assert report(3, "limit-basis identities", ok), (worst, elapsed)


def test_criterion_04_finite_to_limit_convention_arbiter():
    st = StancuParams(1.0, 2.0)
    xs = GridSpec(1001).xs
    finite_spec = OperatorSpec(60, 0.8, st)
    limit_spec = OperatorSpec(INFINITE, 0.8, st)
    worst = 0.0
    for f in (builtin("id"), builtin("square")):
        fv = apply_finite(finite_spec, f, xs)
        lv = apply_limit(limit_spec, f, xs)
        worst = max(worst, float(np.max(np.abs(fv - lv))))
    ok = worst <= 1e-6
    assert report(4, "finite-to-limit consistency (shift convention)", ok), worst


def test_criterion_05_rate_bound():
    fs = [builtin("absdev:0.5"), builtin("square"), from_expression("sin(3*t)")]
    final_diffs = []
    ratios_ok = True
    for f in fs:
        rep = rate_experiment(f, 0.9, StancuParams(), list(range(5, 41)))
        ratios = [row[3] for row in rep.rows if not math.isnan(row[3])]
        if max(ratios) > 10.0 * statistics.median(ratios):
            ratios_ok = False
        final_diffs.append(rep.rows[-1][1])
    below_threshold = all(d < 1e-3 for d in final_diffs)
    ok = below_threshold and ratios_ok
    report(5, "rate vs modulus of continuity", ok)
    assert ratios_ok, "ratio boundedness failed"
    # Known-red half: sup_diff(40) sits at ~1.3e-3..3.9e-3 for these f at
    # q = 0.9 (consistent with the closed-form moment prediction), so the
    # 1e-3-by-n=40 requirement is not attainable by a faithful operator.
    assert below_threshold, f"sup_diff(40) values: {final_diffs}"


def test_criterion_06_limit_operator_q_to_one():
    rows = q_to_one_experiment(builtin("square"), StancuParams(), [0.9, 0.99, 0.999])
    vals = [v for _, v in rows]
    ok = vals[0] > vals[1] > vals[2] and vals[2] < 0.01
    assert report(6, "limit operator error as q -> 1", ok), vals


def test_criterion_07_fixed_point_dichotomy():
    st = StancuParams()
    const_val = fixed_point_check(builtin("const:7.3"), 0.5, st)
    others = [
        fixed_point_check(builtin(name), 0.5, st)
        for name in ("id", "square", "absdev:0.5")
    ]
    id_val = others[0]
    ok = (
        const_val <= 1e-10
        and all(v >= 0.05 for v in others)
        and abs(id_val - 0.5) <= 1e-10
    )
    assert report(7, "fixed-point dichotomy", ok), (const_val, others)


def test_criterion_08_basis_inequality():
    worst = -math.inf
    for q in (0.5, 0.8):
        for n in range(1, 16):
            worst = max(worst, basis_inequality_check(n, q, GridSpec(101)))
    ok = worst <= 1e-12
    assert report(8, "finite/limit basis inequality", ok), worst


def test_criterion_09_density_engine():
    squares = lambda k: np.isin(k, np.arange(math.isqrt(int(k.max())) + 1) ** 2)
    mult3 = empirical_density(DensityQuery(members=lambda k: k % 3 == 0), 10**5)
    sq1 = empirical_density(DensityQuery(gamma=1.0, members=squares), 10**4)
    sq_half = empirical_density(DensityQuery(gamma=0.5, members=squares), 10**4)
    ok = abs(mult3 - 1.0 / 3.0) <= 1e-4 and sq1 == 0.01 and sq_half == 1.0
    assert report(9, "density engine", ok), (mult3, sq1, sq_half)


def test_criterion_10_korovkin_empirical():
    start = time.perf_counter()
    rep = korovkin_harness(
        0.5, StancuParams(), [50, 100, 200, 400, 800], GridSpec(101).xs
    )
    elapsed = time.perf_counter() - start
    e0, e1, e2 = rep.errors[0], rep.errors[1], rep.errors[2]
    ok = (
        all(v <= 1e-10 for v in e0)
        and all(a > b for a, b in zip(e1, e1[1:]))
        and all(a > b for a, b in zip(e2, e2[1:]))
        and e1[-1] < 0.01
        and elapsed <= 60.0
    )
    assert report(10, "Korovkin empirical harness", ok), (e0, e1, e2, elapsed)


CLI_CONFIGS = [
    ["eval", "--n", "5", "--q", "0.8", "--varpi", "1", "--vartheta", "2",
     "--f", "sin(3*t)", "--grid", "21"],
    ["eval", "--limit", "--q", "0.9", "--f", "square", "--grid", "21"],
    ["moments-verify"],
    ["rate", "--f", "id", "--q", "0.8", "--n-list", "5,10", "--grid", "51"],
    ["q1", "--f", "square", "--q-list", "0.9,0.99", "--grid", "51"],
    ["fixed", "--q", "0.5", "--f", "id", "--grid", "51"],
    ["ineq", "--n", "6", "--q", "0.5", "--grid", "21"],
    ["density", "--set", "squares", "--gamma", "0.5", "--n", "10000"],
    ["korovkin", "--a", "0.5", "--n-list", "20,40", "--grid", "21",
     "--eps-list", "0.05"],
]


def test_criterion_11_cli_determinism(tmp_path):
    runner = CliRunner()
    ok = True
    for i, args in enumerate(CLI_CONFIGS):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        ra = runner.invoke(main, args + ["--out", str(a)])
        rb = runner.invoke(main, args + ["--out", str(b)])
        if ra.exit_code != 0 or rb.exit_code != 0 or a.read_bytes() != b.read_bytes():
            ok = False
            break
    assert report(11, "CLI determinism", ok)
