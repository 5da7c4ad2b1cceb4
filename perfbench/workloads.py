"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the benchmark seed only and hands the
program nothing else.  ``run_pass`` times the program's operations and checks
every output outside the timed interval; an exception or a wrong output
fails that operation and the pass goes on.

* ``verify_all``: ``run_suite(config, "all")`` plus ``to_text`` and
  ``to_csv_rows``, the acceptance run users and CI pay for.  One operation is
  one acceptance check; the latency sample is the whole pass.
* ``geodesic_queries``: a closed loop, one client, single-point ``shoot``,
  ``log_map``, ``expand3`` and ``compose3`` queries on three manifolds, each
  checked against the exact geodesic.  One operation is one query.
* ``lattice_ladder``: the dense Haar Jacobian checks and the
  diffeomorphism-measure check on lattices from 8^2 to 20^2.  One operation
  is one lattice check; the latency sample is the whole ladder.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from time import perf_counter

import numpy as np

WORKLOADS = ("verify_all", "geodesic_queries", "lattice_ladder")

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _timed(label, fn, check, untraced):
    """Run ``fn`` timed, then ``check(result)`` untimed and untraced.

    Returns ``(latency_s, [label, error])``; the error is "" when the
    operation returned and its output passed the check.
    """
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:        # a failing operation must not abort the run
        return perf_counter() - start, [label, f"{type(exc).__name__}: {exc}"]
    latency = perf_counter() - start
    try:
        with untraced():
            error = check(result)
    except Exception as exc:
        error = f"check raised {type(exc).__name__}: {exc}"
    return latency, [label, error]


def _timed_ops(items, untraced):
    """Pass record for (label, thunk, check) items run one after another."""
    runs = [_timed(*item, untraced) for item in items]
    latencies = [lat for lat, _ in runs]
    return {"wall_s": sum(latencies), "latencies": latencies,
            "ops": [op for _, op in runs]}


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


class Workload:
    """A run's work is fixed by ``--seconds``: ``passes_for`` passes, each of
    ``nominal_pass_s`` on the 2-core machine the benchmark was defined on, and
    never fewer than ``min_passes``.  Every run of one setting therefore does
    the same work on the same number of samples."""

    name = ""
    min_passes = 2
    nominal_pass_s = 1.0

    @classmethod
    def passes_for(cls, seconds):
        return max(cls.min_passes, round(seconds / cls.nominal_pass_s))


# -- verify_all -----------------------------------------------------------------

_FIELDS = ("deviation", "generator", "xi_normal")


def verify_config(config_cls, default, seed):
    """The shipped default config with every field seed shifted by 1000 * seed.

    Seed 0 is the shipped default itself.
    """
    data = copy.deepcopy(default.data)
    for name in _FIELDS:
        data["fields"][name]["seed"] = int(data["fields"][name]["seed"]) + 1000 * int(seed)
    return config_cls(data)


def _csv_text(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


class VerifyAll(Workload):
    name = "verify_all"
    # one pass keeps a run in the time budget; the traced run compares the
    # reports of three passes byte for byte
    min_passes = 1
    nominal_pass_s = 22.0

    def __init__(self, geodexp, config, seed, passes, untraced):
        from geodexp.config import RunConfig

        self.suites = geodexp.suites
        self.config = verify_config(RunConfig, config, seed)

    def run_pass(self, k):
        """One ``verify all``; its operations are the checks, its latency the pass."""
        start = perf_counter()
        try:
            report = self.suites.run_suite(self.config, "all")
            text = report.to_text()
            rows = report.to_csv_rows()
        except Exception as exc:    # no report: every check of the pass fails
            wall = perf_counter() - start
            err = f"{type(exc).__name__}: {exc}"
            return {"wall_s": wall, "latencies": [wall], "digest": "",
                    "ops": [[cid, err] for cid in self.suites.SUITES["all"]]}
        wall = perf_counter() - start
        digest = hashlib.sha256(text.encode() + b"\0" + _csv_text(rows).encode()).hexdigest()
        return {"wall_s": wall, "latencies": [wall], "digest": digest,
                "ops": [[c.id, "" if c.passed else c.line()] for c in report.checks]}


# -- geodesic_queries -----------------------------------------------------------

# Queries in one pass: a uniform mix over (manifold, operation), the same
# number of each of the twelve classes.  Nothing in the repository fixes how
# often users send each query, so every class weighs the same.  Within each
# class the distance, its direction and the latitude of the base point are
# stratified over the run, so the latency quantiles do not drift with the seed.
KINDS = ("sphere", "poincare", "expr_sphere")
OPS = ("shoot", "log_map", "expand3", "compose3")
PER_CLASS = 30
QUERIES_PER_PASS = PER_CLASS * len(KINDS) * len(OPS)
_RADIUS = (0.05, 0.4)

# Oracle tolerances.  Every output is compared with the exact geodesic, in
# closed form from the chart formulas below, so the oracle cannot share an
# error with the program's metric, Christoffel field or finite-difference
# derivatives.  Endpoints of shoot and log_map, and the speed at the end of a
# shoot, must match within _EXACT_TOL (misses of at most 1.1e-10 were seen
# when the benchmark was defined); expand3 and compose3 must match within
# C |v|^4 in metric norms (the largest ratio seen then was 0.88).  log_map is
# also checked with the program's own ODE oracle: shoot(x0, log_map(x0, x1))
# must reach x1.
_EXACT_TOL = 1e-8
_SERIES_C = 4.0


def _query_manifolds(mf):
    collar = 0.1
    return {
        "sphere": mf.sphere(1.0, collar=collar),
        "poincare": mf.poincare_half_plane(),
        "expr_sphere": mf.from_expression(
            2, [["1", "0"], ["0", "sin(x0)**2"]],
            lower=(collar, -math.inf), upper=(math.pi - collar, math.inf),
            periodic=(False, True), name="expr_sphere"),
    }


# Exact geometry of the two model spaces, independent of the program.  The
# spheres use (theta, phi) with metric diag(1, sin^2 theta), embedded in R^3;
# the half-plane uses (x, y) with metric (dx^2 + dy^2) / y^2.

def _on_sphere(x):
    st = math.sin(x[0])
    return np.array([st * math.cos(x[1]), st * math.sin(x[1]), math.cos(x[0])])


def exact_norm(kind, x, v):
    if kind == "poincare":
        return math.hypot(v[0], v[1]) / x[1]
    return math.hypot(v[0], math.sin(x[0]) * v[1])


def exact_dist(kind, a, b):
    if kind == "poincare":
        return 2.0 * math.asinh(math.hypot(a[0] - b[0], a[1] - b[1])
                                / (2.0 * math.sqrt(a[1] * b[1])))
    return 2.0 * math.asin(min(1.0, 0.5 * float(np.linalg.norm(_on_sphere(a) - _on_sphere(b)))))


def exact_exp(kind, x0, v):
    """Endpoint of the geodesic from x0 with initial velocity v at time 1."""
    if kind == "poincare":
        # z -> (z - a) / b moves x0 to i; the rotation about i by th turns the
        # imaginary axis i e^s, whose velocity at i points up, onto direction w
        a, b = x0
        w = complex(v[0], v[1]) / b
        th = 0.5 * (math.atan2(w.imag, w.real) - 0.5 * math.pi)
        z = 1j * math.exp(abs(w))
        z = a + b * (math.cos(th) * z + math.sin(th)) / (math.cos(th) - math.sin(th) * z)
        return np.array([z.real, z.imag])
    t, p = x0
    tangent = (v[0] * np.array([math.cos(t) * math.cos(p), math.cos(t) * math.sin(p), -math.sin(t)])
               + v[1] * math.sin(t) * np.array([-math.sin(p), math.cos(p), 0.0]))
    s = float(np.linalg.norm(tangent))
    q = math.cos(s) * _on_sphere(x0) + math.sin(s) / s * tangent
    return np.array([math.atan2(math.hypot(q[0], q[1]), q[2]), math.atan2(q[1], q[0])])


def _stratified(rng, n, lo, hi):
    """n draws from [lo, hi], one from each of n equal strata, in random order."""
    return lo + (hi - lo) * rng.permutation((np.arange(n) + rng.random(n)) / n)


def _point_and_frame(rng, kind, u):
    """Base point at latitude fraction u, and the chart scaling of an orthonormal frame."""
    if kind == "poincare":
        x0 = np.array([rng.uniform(-1.0, 1.0), 0.5 + 1.5 * u])
        return x0, np.array([x0[1], x0[1]])
    x0 = np.array([0.6 + (math.pi - 1.2) * u, rng.uniform(-math.pi, math.pi)])
    return x0, np.array([1.0, 1.0 / math.sin(x0[0])])


def _vector(scale, norm, angle):
    return norm * scale * np.array([math.cos(angle), math.sin(angle)])


def _query_args(rng, kind, op, u, r, angle):
    x0, scale = _point_and_frame(rng, kind, u)
    if op == "log_map":
        return x0, x0 + _vector(scale, r, angle)
    if op == "compose3":
        return (x0, _vector(scale, 0.5 * r, angle),
                _vector(scale, 0.5 * r, rng.uniform(0.0, 2.0 * math.pi)))
    return x0, _vector(scale, r, angle)


def query_stream(seed, passes):
    """Seeded queries for ``passes`` passes: lists of (manifold, op, args).

    Each class is stratified over the whole run, then dealt to the passes.
    """
    rng = _rng(seed, "geodesic_queries")
    out = [[] for _ in range(passes)]
    for kind in KINDS:
        for op in OPS:
            m = PER_CLASS * passes
            strata = zip(_stratified(rng, m, 0.0, 1.0), _stratified(rng, m, *_RADIUS),
                         _stratified(rng, m, 0.0, 2.0 * math.pi))
            for j, (u, r, angle) in enumerate(strata):
                out[j // PER_CLASS].append((kind, op, _query_args(rng, kind, op, u, r, angle)))
    return [[queries[i] for i in rng.permutation(len(queries))] for queries in out]


class GeodesicQueries(Workload):
    name = "geodesic_queries"
    min_passes = 3      # 1,080 queries, so p99 has at least 10 samples beyond it
    nominal_pass_s = 9.0

    def __init__(self, geodexp, config, seed, passes, untraced):
        self.untraced = untraced
        self.gd = geodexp.geodesics
        self.manifolds = _query_manifolds(geodexp.manifolds)
        self.stream = query_stream(seed, passes)

    def _query(self, kind, op, args):
        """(label, thunk, check) for one query."""
        gd, M = self.gd, self.manifolds[kind]
        label = f"{kind}.{op}"

        def miss(what, x, target, bound):
            err = exact_dist(kind, x, target)
            return "" if err <= bound else f"{what} misses by {err:.3e} > {bound:.3e}"
        if op == "shoot":
            x0, v = args

            def check(res):
                x1, v1 = res
                speed, speed1 = exact_norm(kind, x0, v), exact_norm(kind, x1, v1)
                if not abs(speed1 - speed) <= _EXACT_TOL * speed:
                    return f"speed {speed1!r} at the end, {speed!r} at the start"
                return miss("shoot", x1, exact_exp(kind, x0, v), _EXACT_TOL)
            return label, lambda: gd.shoot(M, x0, v, 1.0, return_velocity=True), check
        if op == "log_map":
            x0, x1 = args

            def check(v):
                return (miss("exact exp(log_map)", exact_exp(kind, x0, v), x1, _EXACT_TOL)
                        or miss("shoot(log_map)", gd.shoot(M, x0, v, 1.0, tol=1e-12), x1,
                                _EXACT_TOL))
            return label, lambda: gd.log_map(M, x0, x1), check
        if op == "expand3":
            x0, v = args

            def check(res):
                bound = _SERIES_C * exact_norm(kind, x0, v) ** 4
                return miss("expand3", res[0], exact_exp(kind, x0, v), bound)
            return label, lambda: gd.expand3(M, x0, v), check
        x0, v1, v2 = args

        def check(comp):
            # v2 is a chart-constant field: its value at x1 is v2 again
            oracle = exact_exp(kind, exact_exp(kind, x0, v1), v2)
            bound = _SERIES_C * (exact_norm(kind, x0, v1) + exact_norm(kind, x0, v2)) ** 4
            return miss("compose3", exact_exp(kind, x0, comp), oracle, bound)
        return label, lambda: gd.compose3(M, x0, v1, v2), check

    def run_pass(self, k):
        return _timed_ops((self._query(*q) for q in self.stream[k]), self.untraced)


# -- lattice_ladder -------------------------------------------------------------

RUNGS = (8, 12, 16, 20)
HALFWIDTH = 0.6
# A4's field bases at its largest scale; the sphere checks use their image
# under a seeded symmetry of the square lattice, which leaves every value
# unchanged, so they can be compared with values recorded at a fixed commit.
SPHERE_BASE1 = 0.5 * np.array([0.02, -0.013])
SPHERE_BASE2 = 0.5 * np.array([-0.011, 0.017])
EUCLID_AMPLITUDE = 3.6e-5
EUCLID_TOL = 1e-9          # A4's Euclidean bound
REF_ABS_TOL = 1e-8
REF_REL_TOL = 1e-6


def square_symmetry(index):
    """Element ``index`` (0..7) of the symmetry group of the square, as a matrix."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]]) if index & 4 else np.eye(2)
    signs = np.diag([-1.0 if index & 1 else 1.0, -1.0 if index & 2 else 1.0])
    return signs @ swap


def ladder_inputs(seed):
    rng = _rng(seed, "lattice_ladder")
    g = square_symmetry(int(rng.integers(8)))
    e1, e2 = (_vector(1.0, EUCLID_AMPLITUDE * rng.uniform(0.5, 1.0),
                      rng.uniform(0.0, 2.0 * math.pi)) for _ in range(2))
    return {"sphere": (g @ SPHERE_BASE1, g @ SPHERE_BASE2), "euclidean": (e1, e2)}


def ladder_values(haar, mf, bases):
    """Yield (label, thunk) for every lattice check of one pass, in order."""
    S, E = mf.sphere_normal(1.0), mf.euclidean(2)
    s1, s2 = bases["sphere"]
    e1, e2 = bases["euclidean"]
    for n in RUNGS:
        gs = haar.FieldGrid(S, np.zeros(2), HALFWIDTH, n)
        ge = haar.FieldGrid(E, np.zeros(2), HALFWIDTH, n)
        for side in ("right", "left"):
            yield (f"sphere.{side}.{n}",
                   lambda gs=gs, side=side: haar.product_jacobian_check(S, gs, s1, s2, side=side))
        yield f"sphere.diffeo.{n}", lambda gs=gs: haar.diffeo_measure_check(S, gs, s1)
        for side in ("right", "left"):
            yield (f"euclidean.{side}.{n}",
                   lambda ge=ge, side=side: haar.product_jacobian_check(E, ge, e1, e2, side=side))


def recorded_fields(label, out):
    """The values of one lattice check that are compared with the record."""
    if ".diffeo." in label:
        return {"passive_numeric_logdet": out["passive_numeric_logdet"],
                "residual": out["residual"]}
    return {"numeric_logdet": out["numeric_logdet"], "formula_logdet": out["formula_logdet"]}


class LatticeLadder(Workload):
    name = "lattice_ladder"
    min_passes = 2
    nominal_pass_s = 13.0

    def __init__(self, geodexp, config, seed, passes, untraced):
        self.untraced = untraced
        self.haar, self.mf = geodexp.haar, geodexp.manifolds
        self.bases = ladder_inputs(seed)
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            self.reference = json.load(fh)["lattice_ladder"]

    def _check(self, label, out):
        if label.startswith("euclidean."):
            res = abs(out["residual"])
            return "" if res <= EUCLID_TOL else f"Euclidean residual {res:.3e} > {EUCLID_TOL:g}"
        for key, value in recorded_fields(label, out).items():
            ref = self.reference[label][key]
            if not abs(value - ref) <= REF_ABS_TOL + REF_REL_TOL * abs(ref):
                return f"{key} = {value!r}, recorded {ref!r}"
        return ""

    def run_pass(self, k):
        """The whole ladder; its operations are the checks, its latency the pass."""
        items = ((label, thunk, lambda out, label=label: self._check(label, out))
                 for label, thunk in ladder_values(self.haar, self.mf, self.bases))
        record = _timed_ops(items, self.untraced)
        record["latencies"] = [record["wall_s"]]
        return record


CLASSES = {cls.name: cls for cls in (VerifyAll, GeodesicQueries, LatticeLadder)}
