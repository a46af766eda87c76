"""qapprox benchmark: three seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload finite-eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # the three in turn

Each measurement runs in its own worker process (worker.py) with one client,
a single-threaded request loop and BLAS/OpenMP threads capped at nproc.  With
--trace 0 it prints the end-to-end metrics, timed with tracing off; with
--trace 1 it replays a fixed number of the same requests untraced and then
traced, and prints the per-layer metrics.  Every output is checked against an
independent oracle (oracle.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md for the
workload design and the layer -> (metric, workload) table.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # one workload's measurement, setups and replays included
SETUP_REPEATS = 3  # set-ups per --trace 0 run; setup_s is their median
# Requests per second on a 2-core x86 host at the seed commit.  They size the
# traced replay (rate * seconds / 2 requests), so its request list, and with
# it every per-layer count, depends only on the seed and --seconds.
NOMINAL_RATE = {"finite-eval": 19.0, "limit-eval": 7.5, "verify-stats": 70.0}
BLOCK = {"finite-eval": 5, "limit-eval": 20, "verify-stats": 10}  # one stratum of the mix

END_TO_END = (
    ("ok_per_s", "req/s"),
    ("req_p50_s", "s"),
    ("req_tail_s", "s"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metric -> (unit, traced function names it is taken from)
PER_LAYER = {
    "funcreg.f_calls": ("count", ["funcreg.resolve"]),
    "funcreg.f_points": ("count", ["funcreg.resolve"]),
    "funcreg.self_s": ("s", []),
    "funcreg.resolve_s": ("s", ["funcreg.resolve"]),
    "qcore.jackson.calls": ("count", ["qcore.jackson_integral"]),
    "qcore.log_pochhammer.calls": ("count", ["qcore.log_q_pochhammer_inf"]),
    "qcore.q_binomial_row.calls": ("count", ["qcore.q_binomial_row"]),
    "qcore.self_s": ("s", []),
    "basis.basis_row.calls": ("count", ["basis.basis_row"]),
    "basis.limit_basis.calls": ("count", ["basis.limit_basis"]),
    "basis.self_s": ("s", []),
    "durrmeyer.limit_coeff.calls": ("count", ["durrmeyer.limit_coefficients"]),
    "durrmeyer.limit_coeff.k_max": ("count", ["durrmeyer.limit_coefficients"]),
    "durrmeyer.finite_coeff.calls": ("count", ["durrmeyer.finite_coefficients"]),
    "durrmeyer.finite_coeff.hit_ratio": ("1", ["durrmeyer.finite_coefficients"]),
    "durrmeyer.self_s": ("s", []),
    "moments.closed_form.calls": ("count", ["moments.finite_moment", "moments.limit_moment",
                                            "moments.central_moments"]),
    "moments.self_s": ("s", []),
    "statconv.indices_scanned": ("count", ["statconv.window"]),
    "statconv.self_s": ("s", []),
    "analysis.self_s": ("s", []),
    "reporting.bytes": ("B", []),
    "reporting.self_s": ("s", []),
    "cli.self_s": ("s", []),
    "check.wrong_results": ("count", []),
    "check.typed_errors": ("count", []),
    "trace.overhead_ratio": ("1", []),
    "setup.qcore.jackson.calls": ("count", ["qcore.jackson_integral"]),
}


def tail(times):
    """(value, percentile): the highest percentile with at least 10 samples beyond it.

    With n samples that is the (n - 10)-th smallest, the (100 (n - 10) / n)-th
    percentile; with 10 or fewer samples it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _finite(v):
    # a failed request counts as +inf; JSON has no infinity
    return v if math.isfinite(v) else sys.float_info.max


def end_to_end(run, setups):
    """The six end-to-end metrics of one untraced run."""
    statuses = run["statuses"]
    ok = statuses.count("ok")
    times = [w if s == "ok" else math.inf for w, s in zip(run["walls"], statuses)]
    tail_s, pct = tail(times)
    metrics = {
        "ok_per_s": ok / sum(run["walls"]),
        "req_p50_s": _finite(statistics.median(times)),
        "req_tail_s": _finite(tail_s),
        "ok_ratio": ok / len(statuses),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return metrics, {"tail_percentile": pct, "tail_samples": len(times)}


def per_layer(traced, untraced):
    """The per-layer metrics of one traced replay, and the functions found absent."""
    nodes = [r for r in traced["nodes"] if r["request"] >= 0]
    setup_nodes = [r for r in traced["nodes"] if r["request"] < 0]
    selfs = tracing.self_seconds(nodes)
    wrapped = set(traced["wrapped"])
    absent = sorted({fn for _, fns in PER_LAYER.values() for fn in fns if fn not in wrapped})

    def calls(*names):
        return sum(tracing.totals(nodes, name)[0] for name in names)

    hits, misses = traced["finite_cache"] or (0, 0)
    statuses = traced["statuses"]
    m = {
        "funcreg.f_calls": calls("funcreg.f"),
        "funcreg.f_points": tracing.totals(nodes, "funcreg.f")[2],
        "funcreg.resolve_s": tracing.totals(nodes, "funcreg.resolve")[1],
        "qcore.jackson.calls": calls("qcore.jackson_integral"),
        "qcore.log_pochhammer.calls": calls("qcore.log_q_pochhammer_inf"),
        "qcore.q_binomial_row.calls": calls("qcore.q_binomial_row"),
        "basis.basis_row.calls": calls("basis.basis_row"),
        "basis.limit_basis.calls": calls("basis.limit_basis"),
        "durrmeyer.limit_coeff.calls": calls("durrmeyer.limit_coefficients"),
        "durrmeyer.limit_coeff.k_max": tracing.totals(nodes, "durrmeyer.limit_coefficients")[3],
        "durrmeyer.finite_coeff.calls": calls("durrmeyer.finite_coefficients"),
        "durrmeyer.finite_coeff.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "moments.closed_form.calls": calls("moments.finite_moment", "moments.limit_moment",
                                           "moments.central_moments"),
        "statconv.indices_scanned": tracing.totals(nodes, "statconv.window")[2],
        "reporting.bytes": traced["report_bytes"],
        "check.wrong_results": statuses.count("wrong"),
        "check.typed_errors": statuses.count("typed"),
        "trace.overhead_ratio": sum(traced["walls"]) / sum(untraced["walls"]),
        "setup.qcore.jackson.calls": tracing.totals(setup_nodes, "qcore.jackson_integral")[0],
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    ranking = sorted(((v, k) for k, v in selfs.items() if k != "bench"), reverse=True)
    return m, {"absent": absent, "self_time_ranking": [k for _, k in ranking]}


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Harness:
    def __init__(self, seconds):
        self.seconds = seconds
        self.deadline = None
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        OUT.mkdir(exist_ok=True)

    def worker(self, workload, seed, mode, trace=0, budget=None, count=None):
        result = OUT / f"worker-{os.getpid()}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--trace", str(trace), "--result", str(result)]
        if budget is not None:
            cmd += ["--budget", repr(budget)]
        if count is not None:
            cmd += ["--count", str(count)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("benchmark deadline passed")
        cmd += ["--t0", repr(time.monotonic())]
        # subprocess.run kills and reaps the worker if it times out
        proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
        try:
            return json.loads(result.read_text())
        finally:
            result.unlink()

    def measure(self, workload, seed, trace):
        """(metrics, info, run record) of one workload."""
        self.deadline = time.monotonic() + DEADLINE_S
        if trace:
            count = trace_requests(workload, self.seconds)
            untraced = self.worker(workload, seed, "run", count=count)
            traced = self.worker(workload, seed, "run", trace=1, count=count)
            metrics, info = per_layer(traced, untraced)
            run = traced
        else:
            run = self.worker(workload, seed, "run", budget=float(self.seconds))
            setups = [run["setup_s"]]
            setups += [self.worker(workload, seed, "setup")["setup_s"]
                       for _ in range(SETUP_REPEATS - 1)]
            metrics, info = end_to_end(run, setups)
            info["setup_runs"] = setups
        info["requests"] = len(run["statuses"])
        return metrics, info, run


def trace_requests(workload, seconds):
    block = BLOCK[workload]
    return block * max(1, math.ceil(NOMINAL_RATE[workload] * seconds / 2 / block))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qapprox" / "__init__.py").is_file():
        print(f"no qapprox sources under {ROOT / 'src'}; run from a qapprox checkout",
              file=sys.stderr)
        return 2
    harness = Harness(args.seconds)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END) if not args.trace else {k: v[0] for k, v in PER_LAYER.items()}
    context = {"git_sha": _git_sha(), "src_sha256": _src_digest(), "nproc": harness.nproc,
               "blas_threads": harness.nproc, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, info, run = harness.measure(name, args.seed, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        statuses = run["statuses"]
        failed = len(statuses) - statuses.count("ok")
        record = {"workload": name, **context, **run["versions"], **info, "metrics": metrics}
        if args.trace:
            record["spans"] = run["nodes"]
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        metrics = {key: metrics[key] for key in units}
        for key, value in metrics.items():
            print(f"{name:13s} {key:34s} {value:14.6g} {units[key]}")
        print("# " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "spans")}))
        summary["correct"] &= failed == 0
        summary["attempted"] += len(statuses)
        summary["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, value in metrics.items():
            summary["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
