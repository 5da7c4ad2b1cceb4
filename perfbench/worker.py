"""Child process of the benchmark: set up one workload, run its passes.

Run from the root of a checkout by ``run.py``; it prints one JSON object on
its last stdout line.  ``--spawned`` is the parent's CLOCK_MONOTONIC reading
taken just before it started this interpreter, so set-up time includes
interpreter start.  With ``--setup-only`` the child stops once its inputs are
ready.  Otherwise it runs ``--passes`` passes.  With ``--trace 1`` every
layer boundary is wrapped by ``tracer.instrument`` after set-up, the first
pass runs twice, and each repetition reports per-name counts and times
derived from its spans.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_record():
    """Loaded OpenBLAS libraries with their thread counts and configuration."""
    libs = []
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in libs:
                libs.append(path)
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)

    import geodexp
    import geodexp.suites
    from geodexp.config import load_config

    t_import = _monotonic()
    config = load_config()
    t_config = _monotonic()
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    workload = workloads.CLASSES[args.workload](geodexp, config, args.seed, args.passes,
                                                tracer.paused)
    t_ready = _monotonic()
    result = {"setup": {"import_s": t_import - args.spawned,
                        "config_s": t_config - t_import,
                        "inputs_s": t_ready - t_config,
                        "setup_s": t_ready - args.spawned}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        tracing.instrument(tracer)
    # a traced run repeats the first pass, so the work counters of the two
    # repetitions must agree
    passes = []
    for k in ([0, 0] if args.trace else range(args.passes)):
        tracer.reset()
        record = workload.run_pass(k)
        if args.trace:
            record["by_name"], record["by_scope"], record["nested"] = tracing.summarize(
                tracer.spans, tracer.leaf)
            record["spans"] = len(tracer.spans)
            if args.trace_out:
                tracer.dump(args.trace_out)
        passes.append(record)
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
