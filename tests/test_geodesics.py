import math

import numpy as np
import pytest
from pytest import approx

from geodexp import geodesics as gd
from geodexp import manifolds as mf
from geodexp.convergence import fit_loglog_slope
from geodexp.errors import ChartDomainError, NoUniqueGeodesicError

SCALES = (0.2, 0.1, 0.05, 0.025)


def test_shoot_euclidean_straight_line(euclid2):
    x0 = np.array([0.2, -0.1])
    v = np.array([0.7, 1.3])
    assert np.allclose(gd.shoot(euclid2, x0, v, 1.0), x0 + v, atol=1e-12)


def test_shoot_sphere_meridian(sphere):
    end = gd.shoot(sphere, np.array([math.pi / 2, 0.7]), np.array([1.0, 0.0]),
                   math.pi / 2 - 0.2, tol=1e-11)
    assert end[0] == approx(math.pi - 0.2, abs=1e-9)
    assert end[1] == approx(0.7, abs=1e-9)


def test_shoot_poincare_vertical(poincare):
    end = gd.shoot(poincare, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                   math.log(2.0), tol=1e-11)
    assert np.allclose(end, [0.0, 2.0], atol=1e-9)


def test_shoot_conserves_velocity_norm(sphere):
    x0 = np.array([1.1, 0.4])
    v = np.array([0.4, 0.5])
    tol = 1e-10
    end, vel = gd.shoot(sphere, x0, v, 1.0, tol=tol, return_velocity=True)
    assert abs(sphere.norm(end, vel) - sphere.norm(x0, v)) < 10.0 * tol


def test_shoot_domain_exit_reports_parameter(sphere):
    with pytest.raises(ChartDomainError) as err:
        gd.shoot(sphere, np.array([math.pi / 2, 0.0]), np.array([1.0, 0.0]), 3.0)
    assert "parameter" in str(err.value)


def test_log_map_euclidean_exact(euclid2):
    x0 = np.array([0.1, 0.2])
    x1 = np.array([-0.4, 0.9])
    assert np.allclose(gd.log_map(euclid2, x0, x1), x1 - x0, atol=1e-11)


def test_log_map_equator_arc(sphere):
    x0 = np.array([math.pi / 2, 0.1])
    x1 = np.array([math.pi / 2, 0.4])
    v = gd.log_map(sphere, x0, x1, tol=1e-10)
    assert sphere.norm(x0, v) == approx(0.3, abs=1e-9)
    assert v[0] == approx(0.0, abs=1e-9)


def test_log_map_shoot_roundtrip(sphere):
    rng = np.random.Generator(np.random.PCG64(3))
    x0 = np.array([1.2, 0.5])
    tol = 1e-10
    for _ in range(4):
        v = 0.3 * rng.uniform(-1.0, 1.0, size=2)
        end = gd.shoot(sphere, x0, v, 1.0, tol=1e-12)
        back = gd.log_map(sphere, x0, end, tol=tol)
        assert np.abs(back - v).max() < 10.0 * tol


def test_log_map_failure_signals_trust_radius(sphere):
    # a distant target off the coordinate lines cannot converge in two
    # Newton steps: the non-convergence error is the trust-radius signal
    with pytest.raises(NoUniqueGeodesicError):
        gd.log_map(sphere, np.array([math.pi / 2, 0.0]),
                   np.array([1.0, 2.9]), max_iter=2)


def _query_manifolds():
    collar = 0.1
    return {"sphere": mf.sphere(1.0, collar=collar),
            "poincare": mf.poincare_half_plane(),
            "expr_sphere": mf.from_expression(
                2, [["1", "0"], ["0", "sin(x0)**2"]], lower=(collar, -math.inf),
                upper=(math.pi - collar, math.inf), periodic=(False, True),
                name="expr_sphere")}


def _counting_shoot(monkeypatch, limit=math.inf):
    """Replace geodesics.shoot with a counter that refuses |v|_max > limit."""
    shoot = gd.shoot
    calls = []

    def counted(manifold, x0, v, *args, **kwargs):
        reach = float(np.max(np.abs(v)))
        if reach > limit:
            raise AssertionError(f"trial velocity |v|_max = {reach:.3g} > {limit}")
        calls.append(reach)
        return shoot(manifold, x0, v, *args, **kwargs)

    monkeypatch.setattr(gd, "shoot", counted)
    return calls


def test_log_map_shoot_count(monkeypatch, euclid2):
    rng = np.random.Generator(np.random.PCG64(14))
    queries = []
    for kind, M in _query_manifolds().items():
        for r in np.linspace(0.05, 0.4, 8):
            if kind == "poincare":
                x0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)])
            else:
                x0 = np.array([rng.uniform(0.6, math.pi - 0.6),
                               rng.uniform(-math.pi, math.pi)])
            v = rng.normal(size=2)
            v *= r / M.norm(x0, v)
            queries.append((kind, M, x0, gd.shoot(M, x0, v, 1.0, tol=1e-12)))
    calls = _counting_shoot(monkeypatch)
    counts = {}
    for kind, M, x0, x1 in queries:
        calls.clear()
        gd.log_map(M, x0, x1)
        counts.setdefault(kind, []).append(len(calls))
    for kind, per_query in counts.items():
        assert max(per_query) <= 6, (kind, per_query)
        assert np.mean(per_query) <= 4.5, (kind, per_query)
    calls.clear()
    gd.log_map(euclid2, np.array([0.1, 0.2]), np.array([-0.4, 0.9]))
    assert len(calls) == 1


def test_log_map_series_only_chooses_the_iterate(monkeypatch):
    # a wrong series (Gamma Gamma coefficient 2 -> 1) may cost shoots, but
    # the returned v is still the one the ODE oracle accepts
    def gamma_gamma_once(gamma, dgamma, v):
        second, third = series_terms(gamma, dgamma, v)
        return second, third + np.einsum("abc,b,c->a", gamma, v, second) / 3.0

    series_terms = mf.series_terms
    tol = 1e-10
    for kind, M in _query_manifolds().items():
        x0 = np.array([0.3, 1.5]) if kind == "poincare" else np.array([1.1, 0.4])
        x1 = gd.shoot(M, x0, np.array([0.25, -0.2]), 1.0, tol=1e-12)
        right = gd.log_map(M, x0, x1, tol=tol)
        monkeypatch.setattr(gd, "series_terms", gamma_gamma_once)
        wrong = gd.log_map(M, x0, x1, tol=tol)
        monkeypatch.undo()
        assert np.abs(gd.shoot(M, x0, wrong, 1.0, tol=1e-12) - x1).max() < tol
        assert np.abs(wrong - right).max() < 1e-9


@pytest.mark.parametrize("kind, x0, x1", [
    ("sphere", (1.9417180248618084, -2.9276484412044),
     (2.6928506898155717, -0.6717178999866715)),
    ("expr_sphere", (0.7426552424399223, 2.065899208588676),
     (1.9513437052501836, 1.0756220584767364)),
])
def test_log_map_far_target_limits_the_step(monkeypatch, kind, x0, x1):
    # without a step limit Newton tried |v|_max = 926 on the sphere, and that
    # shoot ran for more than 30 s; the counting shoot fails fast past 10
    M = _query_manifolds()[kind]
    x0, x1 = np.array(x0), np.array(x1)
    _counting_shoot(monkeypatch, limit=10.0)
    v = gd.log_map(M, x0, x1)
    monkeypatch.undo()
    assert np.abs(gd.shoot(M, x0, v, 1.0, tol=1e-12) - x1).max() < 1e-10


def test_expand3_euclidean_exact_all_orders(euclid2):
    x0 = np.array([0.2, 0.3])
    v = np.array([1.0, 2.0])
    for order in (1, 2, 3):
        out, trusted = gd.expand3(euclid2, x0, v, order=order)
        assert np.allclose(out, x0 + v, atol=0.0)
        assert trusted


def test_expand3_truncation_orders(sphere, poincare):
    cases = ((sphere, np.array([1.1, 0.4]), np.array([0.6, 0.8])),
             (poincare, np.array([0.3, 1.5]), np.array([1.0, -0.5])))
    for M, x0, direc in cases:
        direc = direc / M.norm(x0, direc)
        for order, target in ((1, 2.0), (2, 3.0), (3, 4.0)):
            errs = []
            for s in SCALES:
                end, _ = gd.expand3(M, x0, s * direc, order=order)
                oracle = gd.shoot(M, x0, s * direc, 1.0, tol=1e-12)
                errs.append(np.linalg.norm(end - oracle))
            fit = fit_loglog_slope(SCALES, errs, floor=1e-10)
            assert abs(fit.slope - target) <= 0.3


def test_expand3_trust_radius_flag(sphere):
    out, trusted = gd.expand3(sphere, np.array([1.5, 0.4]), np.array([0.1, 0.0]))
    assert trusted
    out, trusted = gd.expand3(sphere, np.array([1.5, 0.4]), np.array([2.0, 0.0]),
                              trust_radius=0.5)
    assert not trusted


def test_compose3_identity_and_flat(euclid2, sphere):
    x0 = np.array([1.1, 0.4])
    v1 = np.array([0.1, 0.2])
    ident = gd.compose3(sphere, x0, v1, mf.constant_field(np.zeros(2)))
    assert np.abs(ident - v1).max() == 0.0
    flat = gd.compose3(euclid2, np.zeros(2), v1, np.array([0.05, -0.02]))
    assert np.allclose(flat, v1 + np.array([0.05, -0.02]), atol=0.0)


def test_compose3_oracle_slope(sphere):
    x0 = np.array([1.1, 0.4])

    def f2(x):
        return np.array([0.3 + 0.2 * np.sin(x[0]), -0.25 + 0.15 * np.cos(x[1])])

    errs = []
    for s in SCALES:
        v1 = s * np.array([0.5, 0.35])
        fld = mf.VectorField(lambda x, s=s: s * f2(x), step=1e-4)
        comp = gd.compose3(sphere, x0, v1, fld)
        end_series, _ = gd.expand3(sphere, x0, comp)
        x1 = gd.shoot(sphere, x0, v1, 1.0, tol=1e-12)
        oracle = gd.shoot(sphere, x1, fld(x1), 1.0, tol=1e-12)
        errs.append(sphere.norm(oracle, end_series - oracle))
    assert fit_loglog_slope(SCALES, errs, floor=1e-10).slope >= 3.7


def test_invert3(euclid2, sphere):
    x1, w = gd.invert3(sphere, np.array([1.1, 0.4]), np.zeros(2))
    assert np.abs(w).max() == 0.0
    _, w = gd.invert3(euclid2, np.array([0.1, 0.2]), np.array([0.3, -0.4]))
    assert np.allclose(w, [-0.3, 0.4], atol=0.0)

    x0 = np.array([1.1, 0.4])
    direc = np.array([0.6, 0.8])
    direc /= sphere.norm(x0, direc)
    errs = []
    for s in SCALES:
        x1, w = gd.invert3(sphere, x0, s * direc)
        back, _ = gd.expand3(sphere, x1, w)
        errs.append(np.linalg.norm(back - x0))
    assert fit_loglog_slope(SCALES, errs, floor=1e-12).slope >= 3.7


def test_invert3_matches_reversed_endpoint_velocity(sphere):
    x0 = np.array([1.1, 0.4])
    v = 0.05 * np.array([0.6, 0.8])
    x1, w = gd.invert3(sphere, x0, v)
    end, vel = gd.shoot(sphere, x0, v, 1.0, tol=1e-12, return_velocity=True)
    assert np.abs(w + vel).max() < 5.0 * np.linalg.norm(v) ** 4


def test_associativity(sphere):
    x0 = np.array([1.1, 0.4])

    def f1(x):
        return np.array([0.5 + 0.1 * np.cos(x[1]), 0.35])

    def f2(x):
        return np.array([0.3 + 0.2 * np.sin(x[0]), -0.25 + 0.15 * np.cos(x[1])])

    def f3(x):
        return np.array([-0.2 + 0.1 * np.sin(x[1]), 0.4 - 0.1 * np.cos(x[0])])

    errs = []
    for s in SCALES:
        F1 = mf.VectorField(lambda x, s=s: s * f1(x), step=1e-4)
        F2 = mf.VectorField(lambda x, s=s: s * f2(x), step=1e-4)
        F3 = mf.VectorField(lambda x, s=s: s * f3(x), step=1e-4)
        W = mf.VectorField(lambda x: gd.compose3(sphere, x, F2(x), F3), step=1e-4)
        lhs = gd.compose3(sphere, x0, F1(x0), W)
        rhs = gd.compose3(sphere, x0, gd.compose3(sphere, x0, F1(x0), F2), F3)
        errs.append(sphere.norm(x0, lhs - rhs))
    assert fit_loglog_slope(SCALES, errs, floor=1e-11).slope >= 3.7


def test_normal_chart_basics(sphere):
    x0 = np.array([math.pi / 2, 0.4])
    nc = gd.normal_chart(sphere, x0, radius=0.7)
    assert np.abs(nc.to_normal(x0)).max() < 1e-12
    assert np.allclose(nc.metric(np.zeros(2)), np.eye(2), atol=1e-10)
    pm = nc.pullback_manifold()
    assert np.abs(pm.curvature_at(np.zeros(2)).gamma).max() < 1e-3 * pm.fd_step


def test_normal_chart_straight_lines(sphere):
    x0 = np.array([math.pi / 2, 0.4])
    nc = gd.normal_chart(sphere, x0, radius=0.7)
    y = 0.3 * np.array([0.6, 0.8])
    end = gd.shoot(sphere, x0, nc.frame @ y, 1.0, tol=1e-12)
    assert np.abs(nc.to_normal(end) - y).max() < 1e-9


def test_normal_chart_pullback_matches_closed_form(sphere):
    nc = gd.normal_chart(sphere, np.array([math.pi / 2, 0.4]), radius=0.7)
    closed = mf.sphere_normal(1.0)
    for y in (np.array([0.25, -0.1]), np.array([-0.15, 0.3])):
        assert np.abs(nc.metric(y) - closed.metric(y)).max() < 1e-9


def test_normal_chart_radius_gate(sphere):
    with pytest.raises(ValueError):
        gd.normal_chart(sphere, np.array([math.pi / 2, 0.4]), radius=5.0)
