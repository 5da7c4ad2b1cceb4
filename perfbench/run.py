"""geodexp benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 30 --trace 0

Workloads: verify_all, geodesic_queries, lattice_ladder (see README.md).
Every run starts fresh child interpreters, one at a time, with ``src/`` on
``PYTHONPATH`` and no thread-count override: a few set-up-only children for
``setup_s``, then one child that runs the passes ``--seconds`` calls for
(``Workload.passes_for``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one untraced pass and two traced
passes give the per-layer metrics, the tracing overhead, and the checks that
the work counters repeat and that tracing leaves outputs unchanged.  A run
that overruns its time budget (``run_budget``) is stopped and reported as
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CLASSES, WORKLOADS  # noqa: E402
from metrics import end_to_end, per_layer, counters, timed_out  # noqa: E402

SETUP_CHILDREN = 2
RUN_TIMEOUT_S = 170     # at least this long for any run
TIMEOUT_FACTOR = 4      # times the nominal time of the passes asked for
OUT_DIR = ".perfbench_out"


def run_budget(workload, seconds, trace):
    """Seconds a run may take before its child is stopped.

    An untraced run's work grows with ``--seconds``, so its budget does too;
    a traced run always does three passes.
    """
    if trace:
        return RUN_TIMEOUT_S
    cls = CLASSES[workload]
    return max(RUN_TIMEOUT_S, TIMEOUT_FACTOR * cls.passes_for(seconds) * cls.nominal_pass_s)


def _child(root, args, deadline):
    """Run worker.py with ``args`` in a fresh interpreter; returns its JSON.

    Past ``deadline`` (CLOCK_MONOTONIC) the child is killed and reaped, and
    subprocess.TimeoutExpired is raised.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=root, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geodexp", "__init__.py")):
        sys.exit("run from the root of a geodexp checkout: src/geodexp is missing")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    budget = run_budget(args.workload, args.seconds, args.trace)
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + budget
    env = {}
    try:
        if not args.trace:
            base += ["--passes", str(CLASSES[args.workload].passes_for(args.seconds))]
            setups = [_child(root, base + ["--setup-only"], deadline)["setup"]
                      for _ in range(SETUP_CHILDREN)]
            work = _child(root, base, deadline)
            setups.append(work["setup"])
            result = end_to_end(setups, work)
            env = work["env"]
        else:
            os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
            trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            base += ["--passes", "1"]
            plain = _child(root, base, deadline)
            traced = _child(root, base + ["--trace", "1", "--trace-out", trace_out], deadline)
            result = per_layer(plain, traced)
            env = traced["env"]
            print(json.dumps({"trace_file": trace_out, "spans_per_pass":
                              [p["spans"] for p in traced["passes"]],
                              "counters": counters(traced["passes"][0]["by_name"])}))
    except subprocess.TimeoutExpired:
        result = timed_out(budget, args.trace)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "errors": result.pop("errors")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
