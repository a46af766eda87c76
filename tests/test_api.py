import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import qapprox

EXPORTS = {
    "AlphaBetaPair", "DEFAULT_POLICY", "DensityQuery", "GridSpec", "INFINITE", "NumericError",
    "OperatorSpec", "QApproxError", "RealFunction", "SeriesLimitError", "StancuParams",
    "TruncationPolicy", "WeightSequence", "ab_stat_trajectory", "apply_finite", "apply_limit",
    "basis_inequality_check", "builtin", "central_moments", "empirical_density", "finite_moment",
    "fixed_point_check", "from_expression", "jackson_integral", "korovkin_harness", "limit_basis",
    "limit_basis_identity_sums", "limit_moment", "modulus_of_continuity", "parse", "q_binomial",
    "q_factorial", "q_integer", "q_to_one_experiment", "qn_sequence", "rate_experiment",
    "sup_norm_diff", "verify_moments", "weighted_mean", "weighted_trajectory", "window",
}

# scalar second copies of batched quantities; the reference forms the tests
# need live in tests/oracles.py
REMOVED = {
    "q_pochhammer", "BasisPoint", "bernstein_basis", "coefficient_finite",
    "coefficient_limit", "registry_samples", "_values", "log_limit_row", "_limit_point",
    "_LimitPlan", "_product", "_limit_slot", "_builtin_table", "_jackson_block",
}


def test_package_exports():
    public = {
        name for name, value in vars(qapprox).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


def test_removed_names_are_defined_nowhere():
    for info in pkgutil.iter_modules(qapprox.__path__):
        module = importlib.import_module(f"qapprox.{info.name}")
        assert not REMOVED & set(vars(module)), info.name


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    src = str(Path(qapprox.__file__).resolve().parents[1])
    code = "import sys, qapprox.cli; sys.exit('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
