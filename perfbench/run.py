"""coarsek benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mv-split --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the ops are timed with
no wrappers installed and the last line of standard output is a JSON
object carrying the end-to-end metrics; with ``--trace 1`` a fixed set of
ops runs once untraced and once traced, and the JSON carries the
per-layer metrics.  Everything the run writes goes under ``.bench_out/``.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "failed_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# failed_ops_ratio is 0 on a correct run, so the JSON line carries it as
# "attempted"/"failed" rather than as a metric; the text summary prints it
REPORTED = [k for k in END_TO_END if k != "failed_ops_ratio"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many ops (smoke test)")
    return ap.parse_args(argv)


# -- machine description -----------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# -- statistics ----------------------------------------------------------------


def median(times):
    return statistics.median(times) if times else 0.0


def tail(times):
    """Tail latency as (seconds, percentile): the highest nearest-rank
    percentile with at least TAIL_BEYOND ops beyond it, but never below
    p90, so that a run of few slow ops still reports a tail and not a
    value under its median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n


class Loop:
    """Closed loop, one client: op i+1 starts when op i and its check end."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []       # wall seconds of each op that returned
        self.wall_s = 0.0     # the whole loop, checks included
        self.attempted = 0
        self.failures = []

    def run_op(self, i):
        from workloads import CheckFailed
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.workload.op(i)
        except Exception as exc:  # an op that raises is a failed op
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        self.times.append(time.perf_counter() - start)
        try:
            self.workload.check(i, result)
        except CheckFailed as exc:
            self.failures.append(f"op {i}: {exc}")


def timed_loop(workload, seconds, max_ops):
    """Units of ops while the next unit is expected to end within
    ``seconds``, and at least ``workload.min_units`` of them."""
    loop = Loop(workload)
    per_unit = workload.ops_per_unit
    start = time.perf_counter()
    units = 0
    limit = max_ops if max_ops is not None else math.inf
    while loop.attempted < limit:
        for _ in range(min(per_unit, limit - loop.attempted)):
            loop.run_op(loop.attempted)
        units += 1
        elapsed = time.perf_counter() - start
        if units >= workload.min_units and elapsed * (units + 1) / units > seconds:
            break
    loop.wall_s = time.perf_counter() - start
    return loop


def end_to_end(loop, setup_s):
    p_tail, pct = tail(loop.times) if loop.times else (0.0, 0.0)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": median(loop.times),
        "op_tail_s": p_tail,
        "ops_per_s": len(loop.times) / loop.wall_s,
        "failed_ops_ratio": len(loop.failures) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"op_tail_percentile": pct, "ops": len(loop.times),
                     "op_times_s": loop.times, "loop_wall_s": loop.wall_s}


def traced(workload, ops, seed):
    """The same ops untraced, then traced; per-layer metrics and spans."""
    import spans
    plain = Loop(workload)
    for i in range(ops):
        plain.run_op(i)
    tracer = spans.Tracer()
    tracer.install()
    try:
        loop = Loop(workload)
        for i in range(ops):
            loop.run_op(i)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(sum(loop.times), median(loop.times),
                             median(plain.times))
    spans_file = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write_jsonl(spans_file)
    extra = {"traced_ops": ops, "spans": len(tracer.spans),
             "spans_file": os.path.relpath(spans_file, ROOT),
             "exact_counts": spans.exact_counts(metrics)}
    return metrics, extra, plain, loop


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coarsek", "__init__.py")):
        print(f"error: no coarsek sources under {SRC}; run from the root of "
              "a coarsek checkout", file=sys.stderr)
        return 2

    # one BLAS thread unless the caller says otherwise: steadier on a
    # shared machine, and never more than nproc
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    start = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import coarsek
    import workloads
    from spans import per_layer_units
    import_s = time.perf_counter() - start
    if not os.path.abspath(coarsek.__file__).startswith(SRC + os.sep):
        print(f"error: imported coarsek from {coarsek.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        # set-up is repeated and its median kept; imports happen once
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        info = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "machine": machine(),
                "import_s": import_s, "setup_runs_s": setups}
        if args.trace:
            ops = workload.trace_ops
            if args.max_ops is not None:
                ops = min(ops, args.max_ops)
            metrics, extra, plain, loop = traced(workload, ops, args.seed)
            info.update(extra)
            units = {k: unit for k, (unit, _) in per_layer_units().items()}
            attempted = plain.attempted + loop.attempted
            failures = plain.failures + loop.failures
        else:
            loop = timed_loop(workload, args.seconds, args.max_ops)
            metrics, extra = end_to_end(loop, setup_s)
            info.update(extra)
            units = END_TO_END
            attempted, failures = loop.attempted, loop.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["failures"] = failures
    info["metrics"] = metrics
    result_file = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(info['machine'])}")
    for msg in failures:
        print(f"# FAILED {msg}")
    for name, value in metrics.items():
        print(f"{name:<58} {value!r:>24} {units[name]}")
    if not args.trace:
        print(f"# op_tail_s at p{info['op_tail_percentile']:.4g} of "
              f"{info['ops']} ops; failed {len(failures)}/{attempted}")
    shown = REPORTED if not args.trace else list(units)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
