import math

import numpy as np
import pytest
from pytest import approx

from geodexp import immersions as im
from geodexp import suites
from geodexp.config import default_config
from geodexp.convergence import fit_loglog_slope
from geodexp.errors import IrregularImmersionError


@pytest.fixture(scope="module")
def circle():
    c = im.circle_immersion(2.0, 96)
    return c, im.build_frame(c)


@pytest.fixture(scope="module")
def sphere64():
    # 6th-order stencils: the reference thresholds (Weingarten < 1e-6,
    # completeness < 1e-8) hold at 64^2 without needing the 128^2 grid
    s = im.sphere_immersion(1.0, 64, collar=0.5, fd_order=6)
    fr = im.build_frame(s)
    return s, fr, im.extrinsic_data(s, fr)


def test_flat_graph_is_identity_immersion():
    g = im.graph_immersion(height_fn=lambda x, y: np.zeros_like(x), shape=(16, 16))
    metric = g.metric()
    assert np.abs(metric - np.eye(2)).max() < 1e-12
    fr = im.build_frame(g)
    ext = im.extrinsic_data(g, fr)
    assert np.abs(ext.second_form).max() < 1e-12
    res = im.structure_residuals(g, fr, ext)
    assert max(res["norms"].values()) < 1e-12


def test_circle_metric_and_curvature(circle):
    c, fr = circle
    assert c.metric()[0, 0, 0] == approx(4.0, abs=1e-4)
    ext = im.extrinsic_data(c, fr)
    # sign convention: anchored frame has N = +(cos, sin), so H_11 = -r
    assert fr.anchor_signs[0] == 1.0
    assert ext.second_form[0, 0, 0, 0] == approx(-2.0, abs=1e-4)
    assert ext.mean_curvature[0, 0] == approx(-0.25, abs=1e-5)
    assert np.abs(ext.connection).max() == 0.0
    assert np.abs(ext.normal_curvature).max() == 0.0


def test_circle_frame_follows_anchor_rule(circle):
    c, fr = circle
    phi = c.grid.axes[0]
    expected = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    assert np.abs(fr.normals[:, 0, :] - expected).max() < 1e-10


def test_frame_invariants(sphere64):
    s, fr, _ = sphere64
    res = im.frame_invariant_residuals(s, fr)
    assert res["orthogonality"] < 1e-10
    assert res["normalization"] < 1e-10
    assert res["completeness"] < 1e-8


def test_line_in_r2_normal():
    # straight line along x: the normal from the seed rule is +e_y
    grid = im.ParameterGrid((32,), periods=(2.0 * math.pi,))
    t = grid.axes[0]
    X = np.stack([t, np.zeros_like(t)], axis=-1)
    from geodexp.manifolds import euclidean

    line = im.Immersion(grid, euclidean(2), X,
                        winding=np.array([[2.0 * math.pi, 0.0]]))
    fr = im.build_frame(line)
    assert np.abs(fr.normals[:, 0, :] - np.array([0.0, 1.0])).max() < 1e-12
    ext = im.extrinsic_data(line, fr)
    assert np.abs(ext.second_form).max() < 1e-12


def test_circle_in_r3_codimension_two():
    c = im.circle_immersion(1.0, 96, ambient_dim=3)
    fr = im.build_frame(c)
    ext = im.extrinsic_data(c, fr)
    # with the anchored frame the normals stay (radial, e_z): A finite (= 0
    # for this frame), F = 0 (flat normal bundle of a curve)
    assert np.abs(ext.connection).max() < 1e-10
    assert np.abs(ext.normal_curvature).max() < 1e-10
    res = im.structure_residuals(c, fr, ext)
    assert max(res["norms"].values()) < 1e-8


def test_sphere_geometry(sphere64):
    s, fr, ext = sphere64
    g = s.metric()
    th = s.grid.coords()[..., 0]
    expected = np.zeros_like(g)
    expected[..., 0, 0] = 1.0
    expected[..., 1, 1] = np.sin(th) ** 2
    assert s.masked_max(g - expected) < 1e-5
    # H_ab = -g_ab for the outward-anchored frame; |mean curvature| = 1
    assert s.masked_max(ext.second_form[:, :, 0] + g) < 1e-5
    assert abs(np.abs(ext.mean_curvature)[s.mask].max() - 1.0) < 1e-5
    assert ext.weingarten_residual < 1e-6


def test_sphere_structure_residuals_and_gauss_identity(sphere64):
    s, fr, ext = sphere64
    res = im.structure_residuals(s, fr, ext)
    assert res["norms"]["gauss"] < 1e-6
    assert res["norms"]["codazzi"] < 1e-6
    assert res["norms"]["ricci"] < 1e-12
    Rint = s.intrinsic_riemann_lower()
    H = ext.second_form[..., 0, :, :]
    gid = Rint[..., 0, 1, 0, 1] - (H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] ** 2)
    th = s.grid.coords()[..., 0]
    # numerically sin^2(theta)
    assert s.masked_max(Rint[..., 0, 1, 0, 1] - np.sin(th) ** 2) < 1e-5
    assert s.masked_max(gid) < 1e-5


def test_structure_residuals_refinement_slope():
    errs, scl = [], []
    for n in (24, 32, 48):
        s = im.sphere_immersion(1.0, n, collar=0.5)
        fr = im.build_frame(s)
        ext = im.extrinsic_data(s, fr)
        errs.append(max(im.structure_residuals(s, fr, ext)["norms"].values()))
        scl.append(1.0 / n)
    fit = fit_loglog_slope(scl, errs, floor=1e-12)
    assert abs(fit.slope - 4.0) <= 0.5


def test_torus_geometry():
    t = im.torus_immersion(2.0, 0.5, (32, 64))
    fr = im.build_frame(t)
    ext = im.extrinsic_data(t, fr)
    res = im.structure_residuals(t, fr, ext)
    assert max(res["norms"].values()) < 1e-3
    assert abs(t.volume() - 4.0 * math.pi ** 2) < 1e-2


def test_frame_gauge_covariance():
    c = im.circle_immersion(1.0, 64, ambient_dim=3)
    fr = im.build_frame(c)
    ext = im.extrinsic_data(c, fr)
    ang = 0.7
    rot = np.array([[math.cos(ang), math.sin(ang)],
                    [-math.sin(ang), math.cos(ang)]])
    fr2 = fr.rotated(rot)
    ext2 = im.extrinsic_data(c, fr2)
    # H rotates as a normal-bundle vector
    assert np.abs(ext2.second_form
                  - np.einsum("ij,...jab->...iab", rot, ext.second_form)).max() < 1e-10
    # constant rotation: A transforms homogeneously (gauge field, dR = 0)
    assert np.abs(ext2.connection
                  - np.einsum("ij,...jka,lk->...ila", rot, ext.connection, rot)
                  ).max() < 1e-10
    res2 = im.structure_residuals(c, fr2, ext2)
    res = im.structure_residuals(c, fr, ext)
    assert abs(max(res2["norms"].values()) - max(res["norms"].values())) < 1e-10


def test_curved_ambient_worldline():
    w = im.latitude_worldline(theta0=1.0, points=96)
    fr = im.build_frame(w)
    ext = im.extrinsic_data(w, fr)
    assert w.metric()[0, 0, 0] == approx(math.sin(1.0) ** 2, abs=1e-12)
    # geodesic curvature of a latitude circle is cot(theta0); mean = kappa/2
    assert abs(ext.mean_curvature[0, 0]) == approx(abs(math.cos(1.0) / math.sin(1.0)) / 2,
                                                   abs=1e-10)
    assert ext.weingarten_residual < 1e-10
    res = im.structure_residuals(w, fr, ext)
    assert max(res["norms"].values()) < 1e-10


def test_graph_winding_and_residuals():
    g = im.graph_immersion(shape=(48, 48))
    fr = im.build_frame(g)
    ext = im.extrinsic_data(g, fr)
    res = im.structure_residuals(g, fr, ext)
    assert max(res["norms"].values()) < 1e-4


def test_irregular_immersion_raises():
    grid = im.ParameterGrid((16,))
    X = np.zeros((16, 2))   # a point: degenerate tangent
    from geodexp.manifolds import euclidean

    bad = im.Immersion(grid, euclidean(2), X)
    with pytest.raises(IrregularImmersionError):
        bad.metric()


def test_functional_trace_identity_exact():
    for imm in (im.circle_immersion(1.0, 48),
                im.sphere_immersion(1.0, 24),
                im.latitude_worldline(1.0, 48)):
        lhs, rhs, res = im.functional_trace_identity(imm)
        assert res == 0.0
        assert lhs == rhs


def test_delta_diag_convention():
    c = im.circle_immersion(2.0, 48, normalization=0.5)
    dd = im.delta_diag(c)
    assert np.allclose(dd, c.sqrt_g() / 0.5)


def test_builtin_immersion_config_roundtrip():
    c = im.builtin_immersion({"builtin": "circle", "radius": 1.5, "points": 32})
    assert c.metric()[0, 0, 0] == approx(2.25, abs=1e-3)
    with pytest.raises(ValueError):
        im.builtin_immersion({"builtin": "nope"})
    tab = im.builtin_immersion({
        "samples": c.samples.tolist(),
        "grid_shape": [32],
        "ambient": {"builtin": "euclidean", "dim": 2},
    })
    assert tab.metric()[0, 0, 0] == approx(2.25, abs=1e-3)


def test_a6_makes_one_curvature_batch_per_immersion(curvature_calls):
    report = suites.run_suite(default_config(), "immersion")
    assert [c.id for c in report.checks] == ["A6"] and report.passed
    assert len(curvature_calls) == 5
    assert all(len(shape) == 3 and shape[-1] == 3 for shape in curvature_calls)
