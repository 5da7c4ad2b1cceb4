import math

import numpy as np
import pytest
from pytest import approx

from geodexp import haar
from geodexp import manifolds as mf
from geodexp.convergence import fit_loglog_slope
from geodexp.errors import LatticeError


@pytest.fixture(scope="module")
def sphere_grid():
    S = mf.sphere_normal(1.0)
    return S, haar.FieldGrid(S, np.zeros(2), 0.6, 12)


def test_right_weight_examples(sphere, poincare, euclid2):
    w = haar.right_log_weight(euclid2, np.zeros(2), np.array([3.0, -1.0]))
    assert w.log_density == 0.0

    x = np.array([math.pi / 2, 0.3])
    w = haar.right_log_weight(sphere, x, np.array([0.1, 0.0]))
    assert w.log_density == approx(-1.0 / 600.0)

    xp = np.array([0.2, 2.0])
    w = haar.right_log_weight(poincare, xp, np.array([0.2, 0.0]))
    assert w.log_density == approx(+1.0 / 600.0)
    assert w.kind == "right"

    wv = haar.right_log_weight(sphere, x, np.array([0.1, 0.0]), include_volume=True)
    _, logdet = sphere.metric_at(x)
    assert wv.terms["volume"] == approx(0.5 * logdet)
    assert wv.log_density == approx(sum(wv.terms.values()))


def test_left_weight_examples(euclid2):
    zero = haar.left_log_weight(euclid2, np.zeros(2), mf.constant_field(np.zeros(2)))
    assert zero.log_density == 0.0

    rot = mf.VectorField(lambda x: np.array([-x[1], x[0]]), step=1e-4)
    w = haar.left_log_weight(euclid2, np.array([0.3, -0.2]), rot)
    assert w.terms["divergence"] == approx(0.0, abs=1e-9)
    assert w.terms["grad_product"] == approx(-1.0, abs=1e-9)
    assert w.log_density == approx(-1.0, abs=1e-9)

    const = haar.left_log_weight(euclid2, np.zeros(2),
                                 mf.constant_field(np.array([1.0, 2.0])))
    assert const.log_density == 0.0


def test_left_weight_term_parity(euclid2):
    shear = mf.VectorField(lambda x: np.array([0.3 * x[0] + 0.1 * x[1],
                                               -0.2 * x[0] + 0.4 * x[1]]),
                           step=1e-4)
    shear_neg = mf.VectorField(lambda x: -shear(x), step=1e-4)
    x = np.array([0.3, -0.2])
    wp = haar.left_log_weight(euclid2, x, shear)
    wm = haar.left_log_weight(euclid2, x, shear_neg)
    assert wp.terms["divergence"] == approx(-wm.terms["divergence"], abs=1e-9)
    assert wp.terms["grad_product"] == approx(wm.terms["grad_product"], abs=1e-12)
    assert wp.terms["ricci_quadratic"] == approx(wm.terms["ricci_quadratic"])


def test_right_weight_chart_covariance(sphere):
    # recomputed in normal coordinates, the weight agrees exactly at the origin
    x0 = np.array([math.pi / 2, 0.4])
    from geodexp.geodesics import normal_chart

    nc = normal_chart(sphere, x0, radius=0.5)
    v = np.array([0.07, -0.04])
    w_chart = haar.right_log_weight(sphere, x0, v)
    y = np.linalg.solve(nc.frame, v)     # same vector in normal components
    w_normal = haar.right_log_weight(nc.pullback_manifold(), np.zeros(2), y)
    assert w_chart.log_density == approx(w_normal.log_density, rel=1e-6)


def test_field_grid_derivative_antisymmetric(euclid2):
    # the lattice first-derivative operator is an antisymmetric matrix, so
    # its trace (and the trace of f times it) vanishes identically
    g = haar.FieldGrid(euclid2, np.zeros(2), 0.5, 8)
    n0 = g.shape[0]
    D = np.zeros((n0, n0))
    for j in range(n0):
        e = np.zeros((n0, g.shape[1], 2))
        e[j, 0, 0] = 1.0
        D[:, j] = g.deriv(e, 0)[:, 0, 0]
    assert np.abs(D + D.T).max() < 1e-14
    assert np.abs(np.diag(D)).max() == 0.0


def test_field_grid_amplitude_gate(euclid2):
    g = haar.FieldGrid(euclid2, np.zeros(2), 0.5, 8)
    with pytest.raises(LatticeError):
        haar.product_jacobian_check(euclid2, g, np.array([0.2, 0.0]),
                                    np.array([0.0, 0.1]))
    with pytest.raises(LatticeError):
        haar.FieldGrid(euclid2, np.zeros(2), 0.5, 4)


def test_product_jacobian_euclidean_exact(euclid2):
    g = haar.FieldGrid(euclid2, np.zeros(2), 0.6, 12)
    c1 = np.array([3e-5, -2e-5])
    c2 = np.array([-1.5e-5, 2.5e-5])
    for side in ("right", "left"):
        out = haar.product_jacobian_check(euclid2, g, c1, c2, side=side)
        assert abs(out["numeric_logdet"]) < 1e-9
        assert abs(out["formula_logdet"]) < 1e-12
        assert abs(out["residual"]) < 1e-9


def _columnwise_jacobian(grid, V1, V2, side, coeffs=None):
    """Reference oracle: one pair of full-grid compositions per column."""
    nd = V1.size
    scale = max(1.0, float(np.abs(V1).max()), float(np.abs(V2).max()))
    s = 1e-6 * scale
    jac = np.empty((nd, nd))
    flat = (V2 if side == "right" else V1).reshape(-1)
    for k in range(nd):
        old = flat[k]
        flat[k] = old + s
        fp = haar.compose_field(grid, V1, V2, coeffs=coeffs)
        flat[k] = old - s
        fm = haar.compose_field(grid, V1, V2, coeffs=coeffs)
        flat[k] = old
        jac[:, k] = (fp - fm).reshape(-1) / (2.0 * s)
    return jac


@pytest.mark.parametrize("points", [8, 12, (8, 12)], ids=["8", "12", "8x12"])
@pytest.mark.parametrize("kind", ["sphere_normal", "euclidean"])
def test_coloured_jacobian_matches_columnwise(kind, points):
    if kind == "sphere_normal":
        M = mf.sphere_normal(1.0)
        c1, c2 = np.array([0.01, -0.0065]), np.array([-0.0055, 0.0085])
    else:
        M = mf.euclidean(2)
        c1, c2 = np.array([3e-5, -2e-5]), np.array([-1.5e-5, 2.5e-5])
    g = haar.FieldGrid(M, np.zeros(2), 0.6, points)
    cb = g.curvature()
    f2 = mf.constant_field(c2)
    V1, V2 = mf.constant_field(c1)(cb.point), f2(cb.point)
    for side in ("right", "left"):
        coeffs = (tuple(mf.covariant_derivative(M, f2, cb.point, order=k, curvature=cb)
                        for k in (1, 2)) if side == "left" else None)
        ref = _columnwise_jacobian(g, V1, V2, side, coeffs=coeffs)
        jac = haar._dense_jacobian(g, V1, V2, side, coeffs=coeffs)
        assert np.array_equal(jac, ref)


def test_jacobian_work_counts(sphere_grid, monkeypatch):
    S, g = sphere_grid
    calls = []
    compose = haar.compose_field

    def counting(*args, **kwargs):
        calls.append(1)
        return compose(*args, **kwargs)

    monkeypatch.setattr(haar, "compose_field", counting)
    c1, c2 = np.array([0.01, -0.0065]), np.array([-0.0055, 0.0085])
    haar.product_jacobian_check(S, g, c1, c2, side="left")
    assert len(calls) == 2 * g.d + 1          # one colour, plus the formula side
    calls.clear()
    haar.product_jacobian_check(S, g, c1, c2, side="right")
    colours = len(haar._colour_groups(g.shape, "right"))
    assert colours < g.npoints
    assert len(calls) == 2 * g.d * colours


def test_geometry_takes_dgamma_from_curvature_bundle(monkeypatch):
    S = mf.sphere_normal(1.0)
    g = haar.FieldGrid(S, np.zeros(2), 0.6, 8)
    d_christoffel = S.d_christoffel

    def forbidden(x):
        raise AssertionError("FieldGrid.geometry recomputed dGamma")

    monkeypatch.setattr(S, "d_christoffel", forbidden)
    dgamma = g.geometry()["dgamma"]
    monkeypatch.undo()
    assert np.array_equal(dgamma[3, 5], d_christoffel(g.coords()[3, 5]))


def test_left_check_reuses_grid_curvature(monkeypatch):
    S = mf.sphere_normal(1.0)
    g = haar.FieldGrid(S, np.zeros(2), 0.6, 12)
    g.geometry()

    def forbidden(*args, **kwargs):
        raise AssertionError("left-side check recomputed a curvature bundle")

    monkeypatch.setattr(mf.ManifoldSpec, "curvature_at", forbidden)
    v1 = mf.VectorField(lambda x: np.array([0.01 + 0.002 * x[1], -0.0065]), step=1e-4)
    out = haar.product_jacobian_check(S, g, v1, np.array([-0.0055, 0.0085]), side="left")
    assert np.isfinite(out["residual"])


def test_product_jacobian_identity_factor(sphere_grid):
    # v1 = 0 makes the composition the identity in the second factor
    S, g = sphere_grid
    out = haar.product_jacobian_check(S, g, np.zeros(2), np.array([0.01, -0.007]),
                                      side="right")
    assert abs(out["numeric_logdet"]) < 1e-10
    assert abs(out["formula_logdet"]) < 1e-12


def test_product_jacobian_sphere_slopes(sphere_grid):
    S, g = sphere_grid
    base1 = np.array([0.02, -0.013])
    base2 = np.array([-0.011, 0.017])
    scales = (0.5, 0.25, 0.125, 0.0625)
    for side in ("right", "left"):
        errs = [abs(haar.product_jacobian_check(S, g, s * base1, s * base2,
                                                side=side)["residual"])
                for s in scales]
        assert fit_loglog_slope(scales, errs, floor=1e-12).slope >= 2.7


def test_invariance_checks(sphere_grid):
    S, g = sphere_grid
    base1 = np.array([0.02, -0.013])
    base2 = np.array([-0.011, 0.017])
    scales = (0.5, 0.25, 0.125, 0.0625)
    defects = [abs(haar.invariance_check(S, g, s * base1, s * base2)) for s in scales]
    assert fit_loglog_slope(scales, defects, floor=1e-12).slope >= 2.7


def test_christoffel_diagonal_terms_reported(sphere_grid):
    S, g = sphere_grid
    out = haar.product_jacobian_check(S, g, np.array([0.01, -0.0065]),
                                      np.array([-0.0055, 0.0085]), side="right")
    assert "christoffel_linear" in out["terms"]
    assert "christoffel_quadratic" in out["terms"]
    # constant fields on the symmetric lattice: the linear trace cancels by
    # parity while the quadratic one is a genuine lattice term
    assert abs(out["terms"]["christoffel_linear"]) < 1e-12
    assert out["terms"]["christoffel_quadratic"] != 0.0


def test_normal_metric_expansion(sphere, euclid2):
    out = haar.normal_metric_expansion_check(sphere, np.array([math.pi / 2, 0.4]),
                                             radius=0.1)
    assert out["deviation"] <= 1e-3
    sym_cd = out["fitted"] - np.einsum("abcd->abdc", out["fitted"])
    sym_ab = out["fitted"] - np.einsum("abcd->bacd", out["fitted"])
    assert np.abs(sym_cd).max() < 1e-12
    assert np.abs(sym_ab).max() < 1e-12

    flat = haar.normal_metric_expansion_check(euclid2, np.array([0.3, -0.2]),
                                              radius=0.1)
    assert flat["deviation"] < 1e-9


def test_diffeo_measure_cartesian_exact(euclid2):
    g = haar.FieldGrid(euclid2, np.zeros(2), 0.35, 14)
    out = haar.diffeo_measure_check(euclid2, g, np.array([0.002, -0.0013]))
    assert abs(out["residual"]) < 1e-8
    assert out["noncovariant_terms"]["jacobian_formula"] == 0.0


def test_diffeo_measure_polar_cancellation():
    P = mf.from_expression(2, [["1", "0"], ["0", "x0**2"]],
                           lower=(0.5, -10.0), upper=(3.0, 10.0), name="polar")
    g = haar.FieldGrid(P, np.array([1.5, 0.0]), np.array([0.35, 0.35]), 14)
    out = haar.diffeo_measure_check(P, g, np.array([0.002, -0.0013]))
    nc = out["noncovariant_terms"]
    assert abs(nc["jacobian_formula"]) > 1e-3       # individually nonzero
    assert abs(nc["sqrt_ratio_measured"]) > 1e-3
    assert abs(nc["cancellation"]) < 1e-8           # cancel in combination


def test_diffeo_measure_sphere_slope(sphere_grid):
    S, _ = sphere_grid
    g = haar.FieldGrid(S, np.zeros(2), 0.6, 14)
    base = np.array([0.02, -0.013])
    scales = (0.5, 0.25, 0.125, 0.0625)
    errs = [abs(haar.diffeo_measure_check(S, g, s * base)["residual"])
            for s in scales]
    assert fit_loglog_slope(scales, errs, floor=1e-13).slope >= 2.7


def test_diffeo_measure_varying_field_slope(sphere_grid):
    S, _ = sphere_grid
    g = haar.FieldGrid(S, np.zeros(2), 0.6, 14)
    scales = (0.5, 0.25, 0.125, 0.0625)
    errs = []
    for s in scales:
        fld = mf.VectorField(
            lambda x, s=s: s * np.array([0.02 - 0.006 * np.sin(x[1]),
                                         -0.013 + 0.008 * np.cos(x[0])]),
            step=1e-4)
        errs.append(abs(haar.diffeo_measure_check(S, g, fld)["residual"]))
    assert fit_loglog_slope(scales, errs, floor=1e-13).slope >= 2.7


@pytest.mark.parametrize("points", [12, (8, 12)], ids=["12", "8x12"])
def test_field_grid_makes_one_curvature_batch(curvature_calls, points):
    S = mf.sphere_normal(1.0)
    g = haar.FieldGrid(S, np.zeros(2), 0.6, points)
    c1, c2 = np.array([0.01, -0.0065]), np.array([-0.0055, 0.0085])
    v1 = mf.VectorField(lambda x: np.array([0.01 + 0.002 * x[1], -0.0065]), step=1e-4)
    for side in ("right", "left"):
        haar.product_jacobian_check(S, g, c1, c2, side=side)
    haar.product_jacobian_check(S, g, v1, c2, side="left")
    haar.invariance_check(S, g, c1, c2)
    haar.diffeo_measure_check(S, g, 0.2 * c1)
    assert curvature_calls == [g.shape + (2,)]
