"""The benchmark's own test.  Run from the repo root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_benchmark.py

The last test starts three verify_all children and takes about two minutes.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import metrics
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)


def test_self_time_from_spans_and_leaves():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    def inner():
        time.sleep(0.01)
        w_leaf()

    def outer():
        time.sleep(0.01)
        w_inner()
        w_leaf()

    w_leaf = t.wrap("manifolds.metric", leaf)
    w_inner = t.wrap("geodesics.shoot", inner)
    w_outer = t.wrap("suites.A1", outer, scope=True)
    w_outer()
    with t.paused():
        w_leaf()                       # unrecorded
    by_name, by_scope, nested = tracer.summarize(t.spans, t.leaf)
    assert by_name["manifolds.metric"]["calls"] == 2
    assert by_scope["suites.A1"]["manifolds.metric"]["calls"] == 2
    assert nested == {"suites.A1>geodesics.shoot": 1}
    total = by_name["suites.A1"]["s"]
    self_sum = sum(row["self_s"] for row in by_name.values())
    assert self_sum == pytest.approx(total, rel=1e-9)
    for name in ("suites.A1", "geodesics.shoot"):
        assert 0.009 < by_name[name]["self_s"] < 0.02
    assert by_name["geodesics.shoot"]["s"] > by_name["geodesics.shoot"]["self_s"]


def test_seed_plumbing():
    from geodexp.config import RunConfig, load_config

    default = load_config()
    assert workloads.verify_config(RunConfig, default, 0).data == default.data
    shifted = workloads.verify_config(RunConfig, default, 2)
    for name in ("deviation", "generator", "xi_normal"):
        assert (shifted["fields"][name]["seed"]
                == default["fields"][name]["seed"] + 2000)
    a, b, c = (workloads.query_stream(s, passes=1)[0] for s in (5, 5, 6))
    assert workloads.GeodesicQueries.passes_for(30) == 3
    assert workloads.VerifyAll.passes_for(30) == 1
    assert workloads.LatticeLadder.passes_for(30) == 2
    assert len(a) == workloads.QUERIES_PER_PASS == 360
    classes = [(k, op) for k, op, _ in a]
    assert all(classes.count((k, op)) == 30 for k in workloads.KINDS for op in workloads.OPS)
    assert all(np.array_equal(x, y) for q, r in zip(a, b) for x, y in zip(q[2], r[2]))
    assert not all(np.array_equal(q[2][0], r[2][0]) for q, r in zip(a, c))
    for seed in range(8):
        s1, s2 = workloads.ladder_inputs(seed)["sphere"]
        assert np.allclose(np.sort(np.abs(s1)), np.sort(np.abs(workloads.SPHERE_BASE1)))
        assert np.allclose(np.sort(np.abs(s2)), np.sort(np.abs(workloads.SPHERE_BASE2)))


def test_exact_geodesics_are_consistent():
    rng = np.random.default_rng(0)
    for kind in workloads.KINDS:
        for _ in range(20):
            x0 = np.array([rng.uniform(0.6, 2.5), rng.uniform(-3.0, 3.0)])
            if kind == "poincare":
                x0[1] = rng.uniform(0.5, 2.0)
            v = rng.uniform(-0.3, 0.3, 2)
            x1 = workloads.exact_exp(kind, x0, v)
            assert workloads.exact_dist(kind, x0, x1) == pytest.approx(
                workloads.exact_norm(kind, x0, v), rel=1e-12)
            # half-way there, then the rest of the way
            xm = workloads.exact_exp(kind, x0, 0.5 * v)
            assert workloads.exact_dist(kind, xm, x1) == pytest.approx(
                0.5 * workloads.exact_norm(kind, x0, v), rel=1e-9)


def test_wrong_christoffel_field_fails_the_query_checks():
    import contextlib

    import geodexp

    q = workloads.GeodesicQueries(geodexp, None, 0, 1, contextlib.nullcontext)
    S = q.manifolds["sphere"]
    q.manifolds["sphere"] = geodexp.manifolds.ManifoldSpec(
        2, S.metric_fn, d_metric_fn=lambda x: 1.1 * S.d_metric_fn(x),
        dd_metric_fn=S.dd_metric_fn, domain=S.domain, name="broken")
    ops = {}
    for kind, op, args in q.stream[0]:
        if kind == "sphere" and op in ("shoot", "log_map"):
            label, fn, check = q._query(kind, op, args)
            ops.setdefault(op, []).append(workloads._timed(label, fn, check, q.untraced)[1][1])
    for op, errors in ops.items():
        assert sum(bool(e) for e in errors) >= 0.8 * len(errors), op


def test_a_run_over_its_budget_reports_a_failure():
    import run

    assert run.run_budget("verify_all", 30, 0) == run.RUN_TIMEOUT_S
    assert run.run_budget("verify_all", 600, 0) > 600
    result = metrics.timed_out(170, trace=0)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert {name for name, _, _ in metrics.END_TO_END} == set(result["metrics"])
    assert result["metrics"]["wall_s"]["value"] == 170


def test_failure_accounting():
    good = {"ops": [["A1", ""], ["A2", ""]], "digest": "x"}
    bad = {"ops": [["A1", ""], ["A2", "[FAIL] A2"]], "digest": "x"}
    assert metrics._failures([good, good])[:2] == (4, 0)
    assert metrics._failures([good, bad])[:2] == (4, 1)
    assert metrics._failures([good, dict(good, digest="y")])[:2] == (4, 4)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "verify_all", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _worker(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           "--workload", "verify_all", "--seed", "0", "--passes", "1",
                           "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["passes"][0]


def test_traced_verify_all_counters_repeat_and_match_recorded_facts():
    plain = _worker()
    first, second = _worker("--trace", "1"), _worker("--trace", "1")
    assert first["digest"] == second["digest"] == plain["digest"]
    assert all(not error for _, error in plain["ops"])
    assert metrics.counters(first["by_name"]) == metrics.counters(second["by_name"])
    scope = first["by_scope"]
    assert scope["suites.A6"]["manifolds.curvature_at"]["calls"] == 66048
    assert scope["suites.A7"]["geodesics.solve_ivp"]["calls"] == 1536
    logdet = scope["suites.A4"]["haar.dense_logdet"]
    assert (logdet["calls"], logdet["note_max"], logdet["note_sum"]) == (10, 288, 2880)
    assert scope["suites.A4"]["haar.compose_field"]["calls"] == 5765
