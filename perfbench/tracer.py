"""In-memory span tracer that instruments geodexp from outside the package.

``instrument`` wraps the public functions of each layer module (plus the
``ManifoldSpec`` chart-kernel methods, ``Immersion.ambient_*``, the dense
Haar log-determinant and ``geodesics.solve_ivp``) and rebinds every name a
module imported from another layer, so each call into a layer passes through
a wrapper.  Nothing under ``src/`` changes.

Most calls become spans ``(name, start, end, parent, leaf_s, note)``.  The
hottest leaves (the chart kernel, ``compose_field`` and ``solve_ivp``) are
aggregated instead: their count and time are summed per scope, and the time
they spend directly under a span is added to that span's ``leaf_s``, so the
span's self time stays exact.  Any call made while a leaf is running is
aggregated as well.  A scope is the acceptance check (``suites.A*``) the call
ran under; it lets tests pin per-check work counts.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("manifolds", "geodesics", "haar", "immersions", "deviations",
          "measures", "suites")

_MANIFOLD_METHODS = ("metric", "metric_at", "inverse_metric", "norm", "d_metric",
                     "dd_metric", "christoffel", "d_christoffel", "curvature_at")
_IMMERSION_METHODS = ("ambient_metric", "ambient_curvature")

LEAVES = frozenset([f"manifolds.{m}" for m in _MANIFOLD_METHODS]
                   + ["haar.compose_field", "geodesics.solve_ivp"])

# Per-call numbers recorded next to the count: evaluations of the geodesic
# right-hand side, size of the dense Jacobian, and grid points framed.
_NOTES = {
    "geodesics.solve_ivp": lambda args, result: int(result.nfev),
    "haar.dense_logdet": lambda args, result: int(args[1].size),
    "immersions.build_frame": lambda args, result: int(args[0].grid.npoints),
}


class Tracer:
    """Records spans and leaf aggregates for one traced pass at a time."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []          # [name, start, end, parent, leaf_s, note]
        self.leaf = {}           # (scope, name) -> [calls, incl_s, self_s, note_sum, note_max]
        self._frames = []        # [child_s, span index or -1]
        self._span_stack = [-1]
        self._active = {}        # name -> nesting depth, for inclusive time
        self._leaf_depth = 0
        self._scope = ""
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block run unrecorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name, fn, scope=False):
        note = _NOTES.get(name)
        leaf = name in LEAVES
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            return tracer._call(name, leaf, scope, note, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _call(self, name, leaf, scope, note, fn, args, kwargs):
        frames = self._frames
        as_leaf = leaf or self._leaf_depth > 0
        frame = [0.0, -1]
        outer_scope = self._scope
        if as_leaf:
            self._leaf_depth += 1
        else:
            frame[1] = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._span_stack[-1], 0.0, None])
            self._span_stack.append(frame[1])
            if scope:
                self._scope = name
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        frames.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            dur = end - start
            frames.pop()
            self._active[name] = depth
            value = note(args, result) if note is not None and result is not None else None
            if frames:
                parent = frames[-1]
                parent[0] += dur
                if as_leaf and parent[1] >= 0:
                    self.spans[parent[1]][4] += dur
            if as_leaf:
                self._leaf_depth -= 1
                key = (self._scope, name)
                agg = self.leaf.get(key)
                if agg is None:
                    agg = self.leaf[key] = [0, 0.0, 0.0, 0, 0]
                agg[0] += 1
                if depth == 0:
                    agg[1] += dur
                agg[2] += dur - frame[0]
                if value is not None:
                    agg[3] += value
                    agg[4] = max(agg[4], value)
            else:
                span = self.spans[frame[1]]
                span[1], span[2], span[5] = start, end, value
                self._span_stack.pop()
                self._scope = outer_scope

    def dump(self, path):
        """Write the recorded spans and leaf aggregates as JSON."""
        leaf = [[scope, name] + agg for (scope, name), agg in sorted(self.leaf.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"span_fields": ["name", "start", "end", "parent", "leaf_s", "note"],
                       "spans": self.spans,
                       "leaf_fields": ["scope", "name", "calls", "s", "self_s",
                                       "note_sum", "note_max"],
                       "leaf": leaf}, fh)


def summarize(spans, leaf):
    """Per-name, per-scope and nesting statistics from spans and leaf aggregates.

    A span's self time is its duration minus the durations of its child spans
    and of the aggregated leaf calls made directly under it.  Inclusive time
    counts only the outermost span of a name, so recursion is not counted
    twice.  Returns ``(by_name, by_scope, nested)``; ``by_name[name]`` holds
    ``calls``, ``s``, ``self_s``, ``note_sum``, ``note_max``,
    ``by_scope[scope][name]`` the same for calls made under that scope, and
    ``nested["outer>inner"]`` counts the spans of ``inner`` that ran inside a
    span of ``outer`` (spans only).
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, leaf_s, note in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name, by_scope, nested = {}, {}, {}

    def add(table, name, calls, incl, self_s, note_sum, note_max):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "note_sum": 0, "note_max": 0})
        row["calls"] += calls
        row["s"] += incl
        row["self_s"] += self_s
        row["note_sum"] += note_sum
        row["note_max"] = max(row["note_max"], note_max)

    for i, (name, start, end, parent, leaf_s, note) in enumerate(spans):
        dur = end - start
        scope = name if name.startswith("suites.A") else ""
        outer, p = set(), parent
        while p >= 0:
            pname = spans[p][0]
            outer.add(pname)
            if not scope and pname.startswith("suites.A"):
                scope = pname
            p = spans[p][3]
        for pname in outer:
            key = f"{pname}>{name}"
            nested[key] = nested.get(key, 0) + 1
        value = note or 0
        row = (1, 0.0 if name in outer else dur, dur - child[i] - leaf_s, value, value)
        add(by_name, name, *row)
        add(by_scope.setdefault(scope, {}), name, *row)
    for (scope, name), (calls, incl, self_s, note_sum, note_max) in leaf.items():
        add(by_name, name, calls, incl, self_s, note_sum, note_max)
        add(by_scope.setdefault(scope, {}), name, calls, incl, self_s, note_sum, note_max)
    return by_name, by_scope, nested


def instrument(tracer):
    """Wrap every layer boundary of the imported geodexp package with ``tracer``."""
    mods = {layer: importlib.import_module(f"geodexp.{layer}") for layer in LAYERS}
    wrapped = {}

    def replace(owner, attr, name, scope=False):
        fn = getattr(owner, attr)
        w = tracer.wrap(name, fn, scope=scope)
        setattr(owner, attr, w)
        wrapped[fn] = w

    for layer, mod in mods.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replace(mod, attr, f"{layer}.{attr}")
    for attr in _MANIFOLD_METHODS:
        replace(mods["manifolds"].ManifoldSpec, attr, f"manifolds.{attr}")
    for attr in _IMMERSION_METHODS:
        replace(mods["immersions"].Immersion, attr, f"immersions.{attr}")
    replace(mods["haar"], "_dense_jacobian_logdet", "haar.dense_logdet")
    replace(mods["geodesics"], "solve_ivp", "geodesics.solve_ivp")
    checks = mods["suites"].CHECKS
    for cid, fn in list(checks.items()):
        checks[cid] = tracer.wrap(f"suites.{cid}", fn, scope=True)
    # names one layer imported from another still point at the originals
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
