import math

import numpy as np
import pytest
from pytest import approx

from geodexp import deviations as dv
from geodexp import immersions as im
from geodexp import measures as ms
from geodexp.convergence import fit_loglog_slope

SCALES = (0.2, 0.1, 0.05, 0.025)


@pytest.fixture(scope="module")
def worldline_bg():
    return dv.Background(im.latitude_worldline(theta0=1.0, points=96))


@pytest.fixture(scope="module")
def flat_bg():
    flat = im.graph_immersion(height_fn=lambda x, y: np.zeros_like(x),
                              shape=(16, 16))
    return dv.Background(flat)


def test_right_measure_flat_ambient(circle_bg):
    dev = dv.DeviationField(circle_bg, 0.1 * circle_bg.frame.normals[:, 0, :])
    w = ms.functional_right_measure_log(dev)
    assert w.terms["ricci_exponent"] == 0.0
    assert w.log_density == approx(sum(w.terms.values()))


def test_right_measure_worldline_value(worldline_bg):
    # unit-sphere ambient has Ricci = h, so the exponent integrates to
    # -(c^2 / 6N) * (worldline length) for |Xdot|_h = c
    c = 0.3
    dev = dv.DeviationField(worldline_bg, c * worldline_bg.frame.normals[:, 0, :])
    w = ms.functional_right_measure_log(dev)
    length = worldline_bg.immersion.volume()
    assert w.terms["ricci_exponent"] == approx(-(c ** 2 / 6.0) * length, rel=1e-10)


def test_right_measure_quadratic_scaling(worldline_bg):
    dev1 = dv.DeviationField(worldline_bg, 0.1 * worldline_bg.frame.normals[:, 0, :])
    dev2 = dv.DeviationField(worldline_bg, 0.2 * worldline_bg.frame.normals[:, 0, :])
    w1 = ms.functional_right_measure_log(dev1)
    w2 = ms.functional_right_measure_log(dev2)
    assert w2.terms["ricci_exponent"] == approx(4.0 * w1.terms["ricci_exponent"])


def test_eta_measure_trivial_cases(circle_bg):
    zero = dv.GeneratorField(circle_bg, np.zeros(circle_bg.grid.shape + (1,)))
    w = ms.eta_measure_log(zero, include_prefactors=False)
    assert w.log_density == 0.0
    const = dv.GeneratorField(circle_bg, np.full(circle_bg.grid.shape + (1,), 0.37))
    w = ms.eta_measure_log(const, include_prefactors=False)
    assert abs(w.terms["divergence"]) < 1e-12
    assert abs(w.terms["grad_product"]) < 1e-24
    assert w.terms["ricci"] == 0.0


def test_eta_measure_independent_quadrature(sphere_bg):
    # term-wise cross-check against a direct quadrature assembled by hand
    spec = dv.random_fourier_spec(sphere_bg.grid.periods, 2, max_mode=1,
                                  amplitude=0.1, seed=3)
    eta = dv.GeneratorField(sphere_bg, spec.sample(sphere_bg.grid))
    w = ms.eta_measure_log(eta, include_prefactors=False)

    imm = sphere_bg.immersion
    e = eta.samples
    cov = sphere_bg.grid.cov_vector(e, imm.christoffel())
    dens = imm.quad_weights() * imm.sqrt_g() / imm.normalization
    div = float(np.sum(dens * np.einsum("...aa->...", cov)))
    grad = 0.5 * float(np.sum(dens * np.einsum("...ab,...ba->...", cov, cov)))
    rint = imm.intrinsic_riemann_lower()
    ric = np.einsum("...ac,...abcd->...bd", imm.metric_inv(), rint)
    rq = float(np.sum(dens * np.einsum("...bd,...b,...d->...", ric, e, e))) / 3.0
    assert w.terms["divergence"] == approx(-div, abs=1e-8)
    assert w.terms["grad_product"] == approx(grad, abs=1e-8)
    assert w.terms["ricci"] == approx(rq, abs=1e-8)


def test_fp_flat_geodesic_background_zero(flat_bg):
    xi = dv.XiDecomposition(flat_bg, np.zeros((16, 16, 2)),
                            0.1 * np.ones((16, 16, 1)))
    assert ms.fp_log_determinant(xi).log_density == 0.0


def test_fp_circle_density(circle_bg):
    # anchored frame: H_11 = -r, mean = -1/(2r), H.H = 1/r^2; with r = 1 the
    # fp exponent density is +xi_0 - xi^2/2 (recorded sign s = -1)
    grid = circle_bg.grid
    xin = 0.2 * np.ones(grid.shape + (1,))
    xi = dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)), xin)
    w = ms.fp_log_determinant(xi)
    length = circle_bg.immersion.volume()
    assert w.terms["mean_curvature_linear"] == approx(0.2 * length, rel=1e-9)
    assert w.terms["second_form_quadratic"] == approx(-0.5 * 0.04 * length, rel=1e-9)
    assert w.terms["ambient_tangent_quadratic"] == 0.0


def test_fp_invariance_slope(circle_bg, circle_fields):
    dev_spec, eta_spec = circle_fields
    errs = []
    for s in SCALES:
        xi = dv.decompose(dv.DeviationField(circle_bg,
                                            s * dev_spec.sample(circle_bg.grid)))
        eta = dv.GeneratorField(circle_bg, s * eta_spec.sample(circle_bg.grid))
        xi2 = dv.xi_transform(xi, eta, order=3)
        errs.append(abs(ms.fp_log_determinant(xi2).log_density
                        - ms.fp_log_determinant(xi).log_density))
    assert fit_loglog_slope(SCALES, errs, floor=1e-13).slope >= 2.7


def test_frame_jacobian_examples(flat_bg, circle_bg):
    flat = flat_bg.immersion
    fj = ms.frame_jacobian_check(flat, flat_bg.frame)
    assert np.abs(np.abs(fj["det"]) - 1.0).max() < 1e-12
    assert fj["residual"] < 1e-12

    circ = im.circle_immersion(1.3, 96)
    fjc = ms.frame_jacobian_check(circ, im.build_frame(circ))
    assert np.abs(np.abs(fjc["det"]) - 1.3).max() < 1e-5
    assert fjc["residual"] < 1e-10

    s = im.sphere_immersion(1.0, 64)
    fjs = ms.frame_jacobian_check(s, im.build_frame(s))
    assert fjs["residual"] < 1e-10


def test_gauge_fixed_integrand(flat_bg, circle_bg):
    # flat geodesic background: only the D xi prefactor survives
    xi = dv.XiDecomposition(flat_bg, np.zeros((16, 16, 2)),
                            0.1 * np.ones((16, 16, 1)))
    w = ms.gauge_fixed_log_integrand(xi)
    for name, value in w.terms.items():
        if name != "xi_prefactor":
            assert value == 0.0

    # circle: density -(2s/r) xi - xi^2 / (2 r^2) with s = -1, r = 1
    grid = circle_bg.grid
    xin = 0.2 * np.ones(grid.shape + (1,))
    xic = dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)), xin)
    wc = ms.gauge_fixed_log_integrand(xic)
    length = circle_bg.immersion.volume()
    assert wc.terms["mean_curvature_linear"] == approx(0.2 * length, rel=1e-9)
    assert wc.terms["second_form_quadratic"] == approx(-0.5 * 0.04 * length, rel=1e-9)

    with pytest.raises(ValueError):
        ms.gauge_fixed_log_integrand(
            dv.XiDecomposition(circle_bg, 0.1 * np.ones(grid.shape + (1,)), xin))


def test_pipeline_identity_all_backgrounds():
    backgrounds = [
        im.circle_immersion(1.0, 64),
        im.circle_immersion(1.0, 64, ambient_dim=3),
        im.ellipse_immersion(1.0, 0.6, 64),
        im.torus_immersion(2.0, 0.5, (16, 32)),
        im.sphere_immersion(1.0, 24),
        im.graph_immersion(shape=(16, 16)),
        im.latitude_worldline(1.0, 64),
    ]
    for imm in backgrounds:
        bg = dv.Background(imm)
        spec = dv.random_fourier_spec(imm.grid.periods, imm.D - imm.d,
                                      max_mode=1, amplitude=0.1, seed=3)
        xin = spec.sample(imm.grid)
        xi = dv.XiDecomposition(bg, np.zeros(imm.grid.shape + (imm.d,)), xin)
        rep = ms.pipeline_identity_report(xi)
        assert rep["max_abs"] <= 1e-8, imm.name


def test_weight_additivity_over_regions(circle_bg):
    # integrand locality: the log-density restricted to complementary halves
    # sums to the total (terms are plain sums of per-point densities)
    grid = circle_bg.grid
    spec = dv.random_fourier_spec((2 * math.pi,), 1, max_mode=2,
                                  amplitude=0.2, seed=31)
    xin = spec.sample(grid)
    half = grid.shape[0] // 2
    xi_full = dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)), xin)
    lo = xin.copy()
    lo[half:] = 0.0
    hi = xin.copy()
    hi[:half] = 0.0
    w_full = ms.fp_log_determinant(xi_full)
    w_lo = ms.fp_log_determinant(
        dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)), lo))
    w_hi = ms.fp_log_determinant(
        dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)), hi))
    assert w_full.log_density == approx(w_lo.log_density + w_hi.log_density,
                                        abs=1e-12)


def test_nambu_goto_actions():
    circ = im.circle_immersion(1.3, 192, fd_order=6)
    assert abs(ms.nambu_goto_action(circ) - 2.0 * math.pi * 1.3) < 1e-6

    sph = im.sphere_immersion(1.0, 128, pole_smoothing=0.49, fd_order=6)
    assert abs(ms.nambu_goto_action(sph) - 4.0 * math.pi) < 1e-6

    pert = im.perturbed_circle_immersion(1.0, eps=0.2, mode=2, points=256,
                                         fd_order=6)
    n = 1 << 16
    phi = np.arange(n) * 2.0 * math.pi / n
    r = 1.0 + 0.2 * np.cos(2 * phi)
    rp = -0.4 * np.sin(2 * phi)
    oracle = float(np.sqrt(r ** 2 + rp ** 2).sum() * 2.0 * math.pi / n)
    assert abs(ms.nambu_goto_action(pert) - oracle) < 1e-8

    norm = im.circle_immersion(1.0, 96, normalization=2.0)
    assert ms.nambu_goto_action(norm) == approx(math.pi, abs=1e-4)


def test_action_expansion_trivial_cases(circle_bg, flat_bg):
    grid = circle_bg.grid
    zero = dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)),
                              np.zeros(grid.shape + (1,)))
    assert ms.action_expansion(zero) == approx(
        ms.nambu_goto_action(circle_bg.immersion), abs=1e-12)

    # geodesic background (H = 0): no linear term, so the expansion is even
    rng = np.random.Generator(np.random.PCG64(8))
    xin = 0.1 * rng.uniform(-1.0, 1.0, (16, 16, 1))
    base = ms.nambu_goto_action(flat_bg.immersion)
    plus = ms.action_expansion(
        dv.XiDecomposition(flat_bg, np.zeros((16, 16, 2)), xin))
    minus = ms.action_expansion(
        dv.XiDecomposition(flat_bg, np.zeros((16, 16, 2)), -xin))
    assert plus == approx(minus, abs=1e-12)
    assert plus != approx(base, abs=1e-9)   # quadratic term present


def test_action_expansion_vs_exact(circle_bg):
    spec = dv.random_fourier_spec((2 * math.pi,), 1, max_mode=3,
                                  amplitude=0.3, seed=21)
    grid = circle_bg.grid
    errs = []
    for s in SCALES:
        xin = s * spec.sample(grid)
        xi = dv.XiDecomposition(circle_bg, np.zeros(grid.shape + (1,)), xin)
        exact = ms.nambu_goto_action(
            dv.immersion_from_deviation(dv.recompose(xi)))
        errs.append(abs(ms.action_expansion(xi) - exact))
    assert fit_loglog_slope(SCALES, errs, floor=1e-12).slope >= 2.7


def test_action_expansion_diffeo_consistency(circle_bg, circle_fields):
    dev_spec, eta_spec = circle_fields
    grid = circle_bg.grid
    scales = (0.1, 0.05, 0.025, 0.0125)
    errs = []
    for s in scales:
        xi = dv.decompose(dv.DeviationField(circle_bg, s * dev_spec.sample(grid)))
        eta = dv.GeneratorField(circle_bg, s * eta_spec.sample(grid))
        xi2 = dv.xi_transform(xi, eta, order=3)
        errs.append(abs(ms.action_expansion(xi2) - ms.action_expansion(xi)))
    assert fit_loglog_slope(scales, errs, floor=1e-14).slope >= 2.7
