"""Run one wsld benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

The load is a closed loop with one caller: the workload's cases run one
after another, each call starting when the previous one returned, in cycles
until ``--seconds`` have passed; every output is checked outside the timed
calls. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``tracing.py``). Before numpy is
imported, BLAS is pinned to one thread: the plain single-thread baseline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the environment and each metric in words; the full record, with the
environment, goes to ``perfbench/out/``. The exit code is 0 when every
check passed, 1 when one failed and 2 when the wsld sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# setup_s is the median of this many fresh processes that import wsld and
# build the workload's inputs.
SETUP_PROBES = 5

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ref_dev", "1", "lower"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="table2, large-grid, operator-apply or certify")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole cycles until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """Checked operations: how many were attempted, failed, and how far off."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ref_dev: float | None = None
        self._reported: set[str] = set()

    def check(self, results) -> None:
        for case, _, output, error in results:
            self.attempted += 1
            ok, dev = False, None
            if error is None:
                try:
                    ok, dev = case.check(output)
                except Exception as exc:  # a malformed output fails its check
                    error = exc
            if dev is not None and not math.isfinite(dev):
                ok, dev = False, None
            if dev is not None:
                self.ref_dev = dev if self.ref_dev is None else max(self.ref_dev, dev)
            if not ok:
                self.failed += 1
                self._report(case.name, error, dev)

    def _report(self, name, error, dev) -> None:
        if name in self._reported:
            return
        self._reported.add(name)
        if error is not None:
            print(f"case {name} failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        else:
            print(f"case {name}: output check failed (deviation {dev})", file=sys.stderr)


def _cycle(workload, tracer=None, run=0):
    """Call every case once; return (case, seconds, output, exception) tuples."""
    results = []
    with tracer.installed(run, workload.problems) if tracer else nullcontext():
        for case in workload.cases:
            start = time.perf_counter()
            try:
                output = case.call()
            except Exception as exc:  # count the failure and keep measuring
                results.append((case, time.perf_counter() - start, None, exc))
                continue
            results.append((case, time.perf_counter() - start, output, None))
    return results


def _wall(times: dict[str, list[float]]) -> float:
    """Time of one pass through the cases: the sum of each case's median."""
    return sum(statistics.median(v) for v in times.values())


def _measure(workload, seconds, tally) -> dict[str, list[float]]:
    times = defaultdict(list)
    start = time.perf_counter()
    while True:
        results = _cycle(workload)
        tally.check(results)
        for case, dt, _, _ in results:
            times[case.name].append(dt)
        if time.perf_counter() - start >= seconds:
            return times


def _measure_traced(workload, seconds, tally):
    """Alternate traced and untraced cycles; per-layer metrics of the traced ones."""
    from tracing import EXACT_METRICS, LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    per_run, first_spans = [], None
    times = {True: defaultdict(list), False: defaultdict(list)}
    start = time.perf_counter()
    run = 0
    while True:
        # alternate which side of the pair runs first
        for traced in ((True, False) if run % 2 == 0 else (False, True)):
            results = _cycle(workload, tracer if traced else None, run)
            tally.check(results)
            for case, dt, _, _ in results:
                times[traced][case.name].append(dt)
        spans = tracer.take()
        per_run.append(layer_metrics(spans))
        first_spans = first_spans or spans
        run += 1
        if time.perf_counter() - start >= seconds:
            break
    consistent = True
    for name in EXACT_METRICS:
        values = {m[name] for m in per_run}
        if len(values) > 1:
            consistent = False
            print(f"count {name} differs between traced runs: {sorted(values)}",
                  file=sys.stderr)
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = _wall(times[True]) - _wall(times[False])
        elif name in EXACT_METRICS:
            value = per_run[0][name]
        else:
            value = statistics.median(m[name] for m in per_run)
        metrics[name] = (value, unit)
    return metrics, consistent, first_spans


def _setup_times(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def _openblas() -> list[dict]:
    """Version and thread count in effect of each OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return []
    names = [(f"{stem}_get_num_threads{suffix}", f"{stem}_get_config{suffix}")
             for stem in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in names:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads, config = getattr(lib, threads_name), getattr(lib, config_name)
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                found.append({"library": Path(path).name,
                              "config": config().decode(errors="replace"),
                              "threads": threads()})
                break
    return found


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "alphas": workload.alphas,
        "load": "closed loop, one caller",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:  # before numpy is imported
        os.environ[var] = BLAS_THREADS
    package = ROOT / "src" / "wsld"
    if not (package / "__init__.py").is_file():
        print(f"error: wsld sources not found at {package}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import wsld

    if Path(wsld.__file__).resolve().parent != package.resolve():
        print(f"error: imported wsld from {wsld.__file__}, not {package}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0

    setup = [] if args.trace else _setup_times(args)
    workload = workloads.build(args.workload, args.seed)
    tally = Tally()
    consistent, spans = True, None
    if args.trace:
        metrics, consistent, spans = _measure_traced(workload, args.seconds, tally)
    else:
        times = _measure(workload, args.seconds, tally)
        values = {
            "wall_s": _wall(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # no output matched a reference: report a full deviation
            "ref_dev": 1.0 if tally.ref_dev is None else tally.ref_dev,
        }
        metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}

    correct = tally.failed == 0 and consistent
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment(args, workload)
    record = dict(result, env=env, failed_frac=tally.failed / tally.attempted)
    if not args.trace:
        record["setup_probes_s"] = setup
        record["case_median_s"] = {name: statistics.median(v) for name, v in times.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        from tracing import write_spans

        write_spans(OUT_DIR / f"{stem}-spans.jsonl.gz", spans)

    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted} checked calls)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
