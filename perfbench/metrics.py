"""Metric definitions and their computation from the children's JSON records.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of ``BENCHMARK.json``
(the benchmark's test checks that the two agree).  A pass record holds
``wall_s``, ``latencies`` (seconds, one per query) and ``ops`` (``[label,
error]``, error "" when the operation succeeded); traced passes add the
``by_name`` / ``by_scope`` / ``nested`` tables of ``tracer.summarize``.
"""

from __future__ import annotations

import resource
import statistics

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
)

_CHECK_IDS = tuple(f"A{i}" for i in range(1, 13))

PER_LAYER = (
    ("manifolds.self_s", "s", "lower"),
    ("manifolds.metric.calls", "count", "lower"),
    ("manifolds.christoffel.calls", "count", "lower"),
    ("manifolds.curvature_at.calls", "count", "lower"),
    ("manifolds.curvature_at.s", "s", "lower"),
    ("manifolds.d_metric.calls", "count", "lower"),
    ("manifolds.dd_metric.calls", "count", "lower"),
    ("geodesics.self_s", "s", "lower"),
    ("geodesics.shoot.calls", "count", "lower"),
    ("geodesics.shoot.s", "s", "lower"),
    ("geodesics.solve_ivp.calls", "count", "lower"),
    ("geodesics.rhs_evals", "count", "lower"),
    ("geodesics.rhs_evals_per_shoot", "count/call", "lower"),
    ("geodesics.log_map.calls", "count", "lower"),
    ("geodesics.log_map.s", "s", "lower"),
    ("geodesics.log_map.shoots_per_call", "count/call", "lower"),
    ("geodesics.expand3.s", "s", "lower"),
    ("geodesics.compose3.s", "s", "lower"),
    ("haar.self_s", "s", "lower"),
    ("haar.product_jacobian_check.calls", "count", "lower"),
    ("haar.product_jacobian_check.s", "s", "lower"),
    ("haar.compose_field.calls", "count", "lower"),
    ("haar.compose_field.s", "s", "lower"),
    ("haar.logdet_dim.max", "count", "lower"),
    ("haar.diffeo_measure_check.s", "s", "lower"),
    ("haar.normal_metric_expansion_check.s", "s", "lower"),
    ("immersions.self_s", "s", "lower"),
    ("immersions.build_frame.calls", "count", "lower"),
    ("immersions.build_frame.s", "s", "lower"),
    ("immersions.extrinsic_data.s", "s", "lower"),
    ("immersions.ambient_curvature.s", "s", "lower"),
    ("immersions.structure_residuals.s", "s", "lower"),
    ("immersions.grid_points", "count", "lower"),
    ("deviations.self_s", "s", "lower"),
    ("deviations.reparametrization_oracle_error.s", "s", "lower"),
    ("deviations.xi_transform.s", "s", "lower"),
    ("deviations.immersion_from_deviation.s", "s", "lower"),
    ("measures.self_s", "s", "lower"),
    ("measures.fp_log_determinant.s", "s", "lower"),
    ("measures.pipeline_identity_report.s", "s", "lower"),
    ("measures.nambu_goto_action.s", "s", "lower"),
    ("measures.frame_jacobian_check.s", "s", "lower"),
    ("suites.self_s", "s", "lower"),
    *((f"suites.{cid}.s", "s", "lower") for cid in _CHECK_IDS),
    ("setup.import_s", "s", "lower"),
    ("setup.config_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _row(by_name, name):
    return by_name.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "note_sum": 0, "note_max": 0})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(metric, record):
    """Value of one per-layer metric from one traced pass record."""
    by_name = record["by_name"]
    if metric.endswith(".self_s"):
        layer = metric[:-len(".self_s")] + "."
        return sum(row["self_s"] for name, row in by_name.items() if name.startswith(layer))
    shoots = _row(by_name, "geodesics.shoot")["calls"]
    rhs = _row(by_name, "geodesics.solve_ivp")["note_sum"]
    special = {
        "geodesics.rhs_evals": lambda: rhs,
        "geodesics.rhs_evals_per_shoot": lambda: _ratio(rhs, shoots),
        "geodesics.log_map.shoots_per_call": lambda: _ratio(
            record["nested"].get("geodesics.log_map>geodesics.shoot", 0),
            _row(by_name, "geodesics.log_map")["calls"]),
        "haar.logdet_dim.max": lambda: _row(by_name, "haar.dense_logdet")["note_max"],
        "immersions.grid_points": lambda: _row(by_name, "immersions.build_frame")["note_sum"],
    }
    if metric in special:
        return special[metric]()
    name, field = metric.rsplit(".", 1)
    return _row(by_name, name)["calls" if field == "calls" else "s"]


def counters(by_name):
    """The deterministic work counters of one traced pass."""
    out = {}
    for name, row in sorted(by_name.items()):
        out[f"{name}.calls"] = row["calls"]
        if row["note_sum"]:
            out[f"{name}.note_sum"] = row["note_sum"]
            out[f"{name}.note_max"] = row["note_max"]
    return out


def _failures(passes):
    """(attempted, failed, first errors) over the operations of ``passes``."""
    attempted, failed, errors = 0, 0, []
    digests = {p["digest"] for p in passes if "digest" in p}
    diverged = len(digests) > 1
    for p in passes:
        for label, error in p["ops"]:
            attempted += 1
            if error or diverged:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{label}: {error or 'report differs between passes'}")
    return attempted, failed, errors


def _result(attempted, failed, errors, values):
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            "errors": errors}


def end_to_end(setups, work):
    """Result object of an untraced run."""
    passes = work["passes"]
    attempted, failed, errors = _failures(passes)
    latencies_ms = [1e3 * lat for p in passes for lat in p["latencies"]]
    p99 = (statistics.quantiles(latencies_ms, n=100, method="inclusive")[98]
           if len(latencies_ms) > 1 else latencies_ms[0])
    return _result(attempted, failed, errors, {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": work["peak_rss_mb"],
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p99_ms": p99,
    })


def per_layer(plain, traced):
    """Result object of a traced run: one untraced pass, two traced passes.

    Each metric is the median of the two traced passes; the work counters
    must repeat exactly between them.  For ``verify_all`` the traced
    reports must be byte-identical to the untraced one.
    """
    passes = plain["passes"] + traced["passes"]
    attempted, failed, errors = _failures(passes)
    first, second = traced["passes"]
    if counters(first["by_name"]) != counters(second["by_name"]):
        attempted, failed = attempted + 1, failed + 1
        errors.append("work counters differ between the two traced passes")
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("setup."):
            key = name.split(".", 1)[1]
            metrics[name] = statistics.median([plain["setup"][key], traced["setup"][key]])
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(p["wall_s"] for p in traced["passes"])
                             - plain["passes"][0]["wall_s"])
        else:
            metrics[name] = statistics.median([layer_value(name, first),
                                               layer_value(name, second)])
    return _result(attempted, failed, errors, metrics)


def timed_out(budget_s, trace):
    """Result object of a run whose child was stopped after ``budget_s``.

    The run counts as one failed operation.  Every time metric reads the
    budget, a lower bound of the time the work would have taken, and
    ``peak_rss_mb`` the largest child so far.
    """
    names = PER_LAYER if trace else END_TO_END
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    values = {}
    for name, unit, _ in names:
        if unit == "s":
            values[name] = float(budget_s)
        elif unit == "ms":
            values[name] = 1e3 * budget_s
        elif name == "peak_rss_mb":
            values[name] = rss_mb
        else:
            values[name] = 0
    return _result(1, 1, [f"stopped after its time budget of {budget_s:g} s"], values)
