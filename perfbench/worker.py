"""One workload process: import qapprox, warm up, run the closed loop, report.

Started by run.py, one process per measurement, with BLAS/OpenMP threads
capped in its environment.  It writes one JSON result file and exits.
"""

import argparse
import importlib.metadata
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Runner:
    """Executes requests through the kept surfaces: cli.main and verify_moments."""

    def __init__(self, tmpdir, tracer):
        from qapprox import cli, durrmeyer, moments
        from qapprox.qcore import QApproxError

        self.cli, self.durrmeyer, self.moments = cli, durrmeyer, moments
        self.typed_error = QApproxError
        self.out = os.path.join(tmpdir, "report.csv")
        self.tracer = tracer
        self.pool_params = workloads.spec_pool()
        self.pool = [self._spec(*s) for s in self.pool_params]
        self.deferred = []
        self.report_bytes = 0

    def _spec(self, n, q, vp, vt):
        d = self.durrmeyer
        return d.OperatorSpec(n, q, d.StancuParams(vp, vt))

    def _timed(self, index, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.request(index, fn, *args, **kwargs)
        return time.perf_counter() - t0, result

    def _cli_main(self, args):
        # standalone_mode=False: click returns instead of exiting, so the
        # request stays in-process; the command's own sys.exit still raises.
        if self.tracer is None:
            return self.cli.main(args, standalone_mode=False)
        return self.tracer.call("cli.main", "cli", self.cli.main, (args,),
                                {"standalone_mode": False})

    def execute(self, index, req):
        """(wall seconds, status) with status ok | typed | wrong."""
        t0 = time.perf_counter()
        try:
            if req["kind"] == "verify":
                specs = [self.pool[i] for i in req["specs"]]
                wall, report = self._timed(index, self.moments.verify_moments, specs, req["xs"])
            else:
                if os.path.exists(self.out):
                    os.remove(self.out)
                wall, _ = self._timed(index, self._cli_main, req["args"] + ["--out", self.out])
        except self.typed_error:
            return time.perf_counter() - t0, "typed"
        except SystemExit as exc:
            return time.perf_counter() - t0, "typed" if exc.code == 3 else "wrong"
        except Exception as exc:  # any other failure of the program is a wrong result
            print(f"request {index} ({req['kind']}) raised {exc!r}", file=sys.stderr)
            return time.perf_counter() - t0, "wrong"
        try:
            self._check(index, req, report if req["kind"] == "verify" else None)
        except oracle.WrongResult as exc:
            print(f"request {index} ({req['kind']}) wrong: {exc}", file=sys.stderr)
            return wall, "wrong"
        return wall, "ok"

    def _check(self, index, req, report):
        if report is not None:
            text = io.StringIO()
            report.to_csv(text)
            specs = [self.pool_params[i] for i in req["specs"]]
            oracle.check_verify(specs, req["xs"], text.getvalue())
            return
        self.report_bytes += os.path.getsize(self.out)
        columns, rows = oracle.read_report(self.out)
        oracle.CLI_CHECKS[req["kind"]](req, columns, rows)
        if req["kind"] == "korovkin":
            self.deferred.append((index, req, rows))

    def deferred_checks(self):
        """Checks that touch the program's caches, run after the timed loop.

        Returns the indices of the requests found wrong.
        """
        wrong = []
        for index, req, rows in self.deferred:
            try:
                oracle.korovkin_series_check(req, rows, self.durrmeyer.apply, self._spec)
            except oracle.WrongResult as exc:
                print(f"request {index} (korovkin) wrong: {exc}", file=sys.stderr)
                wrong.append(index)
        return wrong


def _cache_counts(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--budget", type=float, default=None, help="seconds of request time")
    ap.add_argument("--count", type=int, default=None, help="number of requests")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    import qapprox
    from qapprox import durrmeyer

    if not Path(qapprox.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"qapprox imported from {qapprox.__file__}, not from this checkout")

    # the coefficient cache's own counters, read before tracing wraps it
    cache_fn = getattr(durrmeyer, "finite_coefficients", None)
    tracer = None
    wrapped = []
    if args.trace:
        tracer = tracing.Tracer()
        wrapped = tracing.wrapped_names(tracing.install(tracer))

    tmpdir = tempfile.mkdtemp(prefix="work-", dir=Path(args.result).parent)
    try:
        runner = Runner(tmpdir, tracer)
        for i, req in enumerate(workloads.warmup(args.workload)):
            _, status = runner.execute(-1 - i, req)
            if status != "ok":
                sys.exit(f"warm-up request {i} failed: {status}")
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "versions": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "click": importlib.metadata.version("click")}}
        if args.mode == "run":
            result.update(_loop(args, runner, cache_fn))
            if tracer is not None:
                result["nodes"] = tracer.records()
                result["wrapped"] = wrapped
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _loop(args, runner, cache_fn):
    stream = workloads.requests(args.workload, args.seed)
    cache0 = _cache_counts(cache_fn)
    walls, statuses = [], []
    spent = 0.0
    for index, req in enumerate(stream):
        if args.budget is not None and spent >= args.budget:
            break
        if args.count is not None and index >= args.count:
            break
        wall, status = runner.execute(index, req)
        spent += wall
        walls.append(wall)
        statuses.append(status)
    cache1 = _cache_counts(cache_fn)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index in runner.deferred_checks():
        statuses[index] = "wrong"
    return {
        "walls": walls,
        "statuses": statuses,
        "peak_rss_mb": rss_mb,
        "finite_cache": None if cache0 is None else [b - a for a, b in zip(cache0, cache1)],
        "report_bytes": runner.report_bytes,
    }


if __name__ == "__main__":
    main()
