"""Verification suites: every acceptance criterion as a named, runnable check.

Each check function takes a RunConfig and returns a CheckResult; suites group
them.  Reports are deterministic for a fixed config (fixed seeds, fixed
summation order, no timestamps), and every check id maps to one acceptance
criterion (A1..A12, with dotted sub-checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import deviations as dv
from . import geodesics as gd
from . import haar
from . import immersions as im
from . import manifolds as mf
from . import measures as ms
from .convergence import fit_loglog_slope
from .errors import GeodexpError

__all__ = ["CheckResult", "SuiteReport", "run_suite", "sweep",
           "SUITES", "CHECKS", "SWEEPS"]


@dataclass
class CheckResult:
    id: str
    name: str
    values: dict
    tolerance: str
    passed: bool
    slope: float = None

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" slope={self.slope:.3f}" if self.slope is not None else ""
        return f"[{status}] {self.id} {self.name}{extra} ({self.tolerance})"


@dataclass
class SuiteReport:
    suite: str
    checks: list
    stamp: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        lines = [f"suite: {self.suite}"]
        lines += [f"  {k}: {v}" for k, v in sorted(self.stamp.items())]
        lines += [check.line() for check in self.checks]
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self):
        rows = [("check", "name", "key", "value", "slope", "passed")]
        for c in self.checks:
            slope = "" if c.slope is None else f"{c.slope:.12e}"
            for k, v in c.values.items():
                rows.append((c.id, c.name, k, f"{v:.12e}", slope,
                             "1" if c.passed else "0"))
        return rows


# -- shared helpers ------------------------------------------------------------


def _slope_errors(scales, fn):
    return [float(fn(s)) for s in scales]


def _fit(config, scales, errors):
    floor = float(config.get("tolerances", {}).get("slope_floor", 1e-11))
    return fit_loglog_slope(scales, errors, floor=floor)


def _circle_background(points=192):
    return dv.Background(im.circle_immersion(1.0, points, fd_order=6))


def _sphere_background(res=48):
    return dv.Background(im.sphere_immersion(1.0, res, collar=0.5, fd_order=6))


def _haar_grid(config, manifold, min_points=0):
    """The configured lattice (``grid.points``, ``grid.halfwidth``) about 0."""
    gridspec = config.get("grid", {})
    return haar.FieldGrid(manifold, np.zeros(2), float(gridspec.get("halfwidth", 0.6)),
                          max(min_points, int(gridspec.get("points", 12))))


def _sphere_lattice(config, min_points=0):
    S = mf.sphere_normal(1.0)
    return S, _haar_grid(config, S, min_points)


# Per-scale error bodies, shared by the checks and the scale sweeps.  Each
# returns a function of the scale s.

_EXPAND3_CASES = {
    "sphere": (lambda: mf.sphere(1.0), (1.1, 0.4), (0.6, 0.8)),
    "poincare": (lambda: mf.poincare_half_plane(), (0.3, 1.5), (1.0, -0.5)),
    "euclidean": (lambda: mf.euclidean(2), (0.0, 0.0), (0.6, 0.8)),
}


def _expand3_case(name):
    """Manifold, base point and unit direction of a named expand3 case."""
    make, x0, direc = _EXPAND3_CASES[name]
    M, x0, direc = make(), np.array(x0), np.array(direc)
    return M, x0, direc / M.norm(x0, direc)


def _expand3_error(M, x0, unit, order, tol):
    """|expand3 - shoot| along s * unit (A1)."""
    def err(s):
        end, _ = gd.expand3(M, x0, s * unit, order=order)
        oracle = gd.shoot(M, x0, s * unit, 1.0, tol=tol)
        return float(np.linalg.norm(end - oracle))
    return err


def _circle_specs(config, bg):
    return (config.field_spec("deviation", bg.grid.periods, 2),
            config.field_spec("generator", bg.grid.periods, 1))


def _diffeo_action_error(config, bg):
    """Transformed deviation against reparametrize-then-expand (A7)."""
    dev_spec, eta_spec = _circle_specs(config, bg)

    def err(s):
        dev = dv.DeviationField(bg, s * dev_spec.sample(bg.grid), scale=s)
        eta = dv.GeneratorField(bg, s * eta_spec.sample(bg.grid), scale=s)
        return dv.reparametrization_oracle_error(dev, eta, order=3,
                                                 tol=config.shoot_tol())
    return err


def _fp_invariance_error(config, bg):
    """Change of the Faddeev-Popov log-determinant under a generator (A10)."""
    dev_spec, eta_spec = _circle_specs(config, bg)

    def err(s):
        xi = dv.decompose(dv.DeviationField(bg, s * dev_spec.sample(bg.grid)))
        eta = dv.GeneratorField(bg, s * eta_spec.sample(bg.grid))
        xi2 = dv.xi_transform(xi, eta, order=3)
        return abs(ms.fp_log_determinant(xi2).log_density
                   - ms.fp_log_determinant(xi).log_density)
    return err


_HAAR_BASE1 = np.array([0.02, -0.013])
_HAAR_BASE2 = np.array([-0.011, 0.017])


def _haar_jacobian_error(S, g, side):
    """Residual of the lattice product-Jacobian identity (A4)."""
    return lambda s: abs(haar.product_jacobian_check(
        S, g, s * _HAAR_BASE1, s * _HAAR_BASE2, side=side)["residual"])


def _diffeo_identity_error(S, g):
    """Residual of the diffeomorphism-measure identity (A5)."""
    return lambda s: abs(haar.diffeo_measure_check(S, g, s * _HAAR_BASE1)["residual"])


# -- A1: geodesic expansion truncation orders -----------------------------------


def check_expansion_orders(config):
    scales = config.scales()
    values, ok = {}, True
    slopes3 = []
    for name in ("sphere", "poincare"):
        M, x0, unit = _expand3_case(name)
        for order, target in ((1, 2.0), (2, 3.0), (3, 4.0)):
            errs = _slope_errors(scales, _expand3_error(M, x0, unit, order,
                                                        config.shoot_tol()))
            fit = _fit(config, scales, errs)
            values[f"{name}.order{order}.slope"] = fit.slope
            ok = ok and abs(fit.slope - target) <= 0.3
            if order == 3:
                slopes3.append(fit.slope)
    return CheckResult("A1", "geodesic expansion truncation orders", values,
                       "slopes 2/3/4 +- 0.3", ok,
                       slope=float(np.mean(slopes3)))


# -- A2: group law ----------------------------------------------------------------


def check_group_law(config):
    scales = config.scales()
    M = mf.sphere(1.0)
    x0 = np.array([1.1, 0.4])
    tol = config.shoot_tol()

    def f1(x):
        return np.array([0.5 + 0.1 * np.cos(x[1]), 0.35])

    def f2(x):
        return np.array([0.3 + 0.2 * np.sin(x[0]), -0.25 + 0.15 * np.cos(x[1])])

    def f3(x):
        return np.array([-0.2 + 0.1 * np.sin(x[1]), 0.4 - 0.1 * np.cos(x[0])])

    comp_errs, assoc_errs, inv_errs = [], [], []
    for s in scales:
        F1 = mf.VectorField(lambda x, s=s: s * f1(x), step=1e-4)
        F2 = mf.VectorField(lambda x, s=s: s * f2(x), step=1e-4)
        F3 = mf.VectorField(lambda x, s=s: s * f3(x), step=1e-4)
        comp = gd.compose3(M, x0, F1(x0), F2)
        end_series, _ = gd.expand3(M, x0, comp)
        x1 = gd.shoot(M, x0, F1(x0), 1.0, tol=tol)
        end_oracle = gd.shoot(M, x1, F2(x1), 1.0, tol=tol)
        comp_errs.append(M.norm(end_oracle, end_series - end_oracle))

        W = mf.VectorField(lambda x: gd.compose3(M, x, F2(x), F3), step=1e-4)
        lhs = gd.compose3(M, x0, F1(x0), W)
        rhs = gd.compose3(M, x0, gd.compose3(M, x0, F1(x0), F2), F3)
        assoc_errs.append(M.norm(x0, lhs - rhs))

        x1s, w = gd.invert3(M, x0, s * f1(x0))
        back, _ = gd.expand3(M, x1s, w)
        inv_errs.append(float(np.linalg.norm(back - x0)))

    fit_c = _fit(config, scales, comp_errs)
    fit_a = _fit(config, scales, assoc_errs)
    fit_i = _fit(config, scales, inv_errs)
    ident = gd.compose3(M, x0, np.array([0.1, 0.2]), mf.constant_field(np.zeros(2)))
    ident_err = float(np.abs(ident - np.array([0.1, 0.2])).max())
    values = {"compose.slope": fit_c.slope, "associativity.slope": fit_a.slope,
              "inverse.slope": fit_i.slope, "identity.error": ident_err}
    ok = (fit_c.slope >= 3.7 and fit_a.slope >= 3.7 and fit_i.slope >= 3.7
          and ident_err == 0.0)
    return CheckResult("A2", "expansion group law", values,
                       "slopes >= 3.7, identity exact", ok, slope=fit_c.slope)


# -- A3: normal-coordinate metric expansion ----------------------------------------


def check_normal_metric_expansion(config):
    M = mf.sphere(1.0)
    out = haar.normal_metric_expansion_check(M, np.array([math.pi / 2, 0.4]),
                                             radius=0.1)
    sym = out["fitted"] - np.einsum("abcd->abdc", out["fitted"])
    values = {"deviation": out["deviation"],
              "pair_symmetry": float(np.abs(sym).max()),
              "condition": out["condition"]}
    ok = out["deviation"] <= 1e-3
    return CheckResult("A3", "normal-coordinate metric expansion", values,
                       "fitted quadratic = -(1/3) R within 1e-3", ok)


# -- A4: right/left Haar Jacobian identities -----------------------------------------


def check_haar_jacobians(config):
    S, g = _sphere_lattice(config)
    scales = [0.5, 0.25, 0.125, 0.0625]
    values, ok = {}, True
    slope_r = None
    for side in ("right", "left"):
        errs = _slope_errors(scales, _haar_jacobian_error(S, g, side))
        fit = _fit(config, scales, errs)
        values[f"{side}.slope"] = fit.slope
        ok = ok and fit.slope >= 2.7
        if side == "right":
            slope_r = fit.slope

    E = mf.euclidean(2)
    ge = _haar_grid(config, E)
    for side in ("right", "left"):
        out = haar.product_jacobian_check(E, ge, np.array([3e-5, -2e-5]),
                                          np.array([-1.5e-5, 2.5e-5]), side=side)
        values[f"euclidean.{side}.numeric"] = out["numeric_logdet"]
        values[f"euclidean.{side}.residual"] = out["residual"]
        ok = ok and abs(out["residual"]) <= 1e-9
    return CheckResult("A4", "right/left Haar Jacobian identities", values,
                       "slopes >= 2.7; Euclidean exact to 1e-9", ok, slope=slope_r)


# -- A5: diffeomorphism-measure identity ---------------------------------------------


def check_diffeo_measure(config):
    P = mf.from_expression(2, [["1", "0"], ["0", "x0**2"]],
                           lower=(0.5, -10.0), upper=(3.0, 10.0), name="polar")
    gp = haar.FieldGrid(P, np.array([1.5, 0.0]), np.array([0.35, 0.35]), 14)
    polar = haar.diffeo_measure_check(P, gp, np.array([0.002, -0.0013]))
    nc = polar["noncovariant_terms"]

    S, gs = _sphere_lattice(config, min_points=14)
    scales = [0.5, 0.25, 0.125, 0.0625]
    errs = _slope_errors(scales, _diffeo_identity_error(S, gs))
    fit = _fit(config, scales, errs)
    values = {
        "polar.nc_jacobian": nc["jacobian_formula"],
        "polar.nc_sqrt_ratio": nc["sqrt_ratio_measured"],
        "polar.cancellation": nc["cancellation"],
        "polar.residual": polar["residual"],
        "sphere.slope": fit.slope,
    }
    ok = (abs(nc["jacobian_formula"]) > 1e-3          # individually nonzero
          and abs(nc["cancellation"]) <= 1e-8         # cancel in combination
          and fit.slope >= 2.7)
    return CheckResult("A5", "diffeomorphism-measure identity", values,
                       "nc terms cancel; identity slope >= 2.7", ok,
                       slope=fit.slope)


# -- A6: structure equations -----------------------------------------------------------


def check_structure_equations(config):
    s = im.sphere_immersion(1.0, 128, collar=0.5)
    fr = im.build_frame(s)
    ext = im.extrinsic_data(s, fr)
    res = im.structure_residuals(s, fr, ext)
    Rint = s.intrinsic_riemann_lower()
    H = ext.second_form[..., 0, :, :]
    gauss_identity = Rint[..., 0, 1, 0, 1] - (H[..., 0, 0] * H[..., 1, 1]
                                              - H[..., 0, 1] ** 2)
    gid = float(np.abs(gauss_identity)[s.mask].max())

    errs, scl = [], []
    for res_n in (32, 48, 64, 96):
        si = im.sphere_immersion(1.0, res_n, collar=0.5)
        fi = im.build_frame(si)
        ei = im.extrinsic_data(si, fi)
        ri = im.structure_residuals(si, fi, ei)
        errs.append(max(ri["norms"].values()))
        scl.append(1.0 / res_n)
    fit = _fit(config, scl, errs)

    values = {"gauss": res["norms"]["gauss"], "codazzi": res["norms"]["codazzi"],
              "ricci": res["norms"]["ricci"], "gauss_identity": gid,
              "refinement.slope": fit.slope}
    ok = (max(res["norms"].values()) <= 1e-6 and gid <= 1e-6
          and abs(fit.slope - 4.0) <= 0.5)
    return CheckResult("A6", "Gauss/Codazzi/Ricci structure equations", values,
                       "residuals < 1e-6 at 128^2; refinement slope 4 +- 0.5",
                       ok, slope=fit.slope)


# -- A7: diffeomorphism action vs reparametrization oracle ------------------------------


def check_diffeo_action(config):
    scales = config.scales()
    errs = _slope_errors(scales, _diffeo_action_error(config, _circle_background()))
    fit = _fit(config, scales, errs)
    values = {"slope": fit.slope, "smallest_error": errs[-1]}
    ok = fit.slope >= 3.7
    return CheckResult("A7", "diffeo action vs reparametrize-then-expand",
                       values, "slope >= 3.7", ok, slope=fit.slope)


# -- A8: xi_0 invariance -----------------------------------------------------------------


def check_xi0_invariance(config):
    scales = config.scales()
    values, ok = {}, True
    slope = None
    for name, bg, ncomp in (("circle", _circle_background(), 2),
                            ("sphere", _sphere_background(), 3)):
        dev_spec = config.field_spec("deviation", bg.grid.periods, ncomp)
        eta_spec = config.field_spec("generator", bg.grid.periods, bg.d)
        errs = []
        for s in scales:
            dev = dv.DeviationField(bg, s * dev_spec.sample(bg.grid), scale=s)
            eta = dv.GeneratorField(bg, s * eta_spec.sample(bg.grid), scale=s)
            xi = dv.decompose(dev)
            xi2 = dv.xi_transform(xi, eta, order=3)
            diff = dv.xi_invariant(xi2) - dv.xi_invariant(xi)
            errs.append(float(np.abs(diff)[bg.immersion.mask].max()))
        fit = _fit(config, scales, errs)
        values[f"{name}.slope"] = fit.slope
        ok = ok and fit.slope >= 2.7
        slope = fit.slope if slope is None else slope
    return CheckResult("A8", "xi_0 invariance under diffeomorphisms", values,
                       "slopes >= 2.7 on circle and sphere", ok, slope=slope)


# -- A9: gauge generator -------------------------------------------------------------------


def check_gauge_generator(config):
    scales = config.scales()
    bg = _circle_background()
    dev_spec = config.field_spec("deviation", bg.grid.periods, 2)
    values, ok = {}, True
    slope_full = None
    for order, label, test in ((2, "full", lambda sl: sl >= 2.7),
                               (1, "first_order", lambda sl: abs(sl - 2.0) <= 0.3)):
        errs = []
        for s in scales:
            dev = dv.DeviationField(bg, s * dev_spec.sample(bg.grid), scale=s)
            xi = dv.decompose(dev)
            eta = dv.gauge_generator(xi, order=order)
            xi2 = dv.xi_transform(xi, eta, order=3)
            errs.append(float(np.abs(xi2.tangential).max()))
        fit = _fit(config, scales, errs)
        values[f"{label}.slope"] = fit.slope
        ok = ok and test(fit.slope)
        if order == 2:
            slope_full = fit.slope
    return CheckResult("A9", "gauge generator kills tangential components", values,
                       "full slope >= 2.7; first-order slope 2 +- 0.3", ok,
                       slope=slope_full)


# -- A10: Faddeev-Popov determinant invariance ------------------------------------------------


def check_fp_invariance(config):
    scales = config.scales()
    errs = _slope_errors(scales, _fp_invariance_error(config, _circle_background()))
    fit = _fit(config, scales, errs)

    flat = im.graph_immersion(height_fn=lambda x, y: np.zeros_like(x),
                              shape=(16, 16))
    bgf = dv.Background(flat)
    xif = dv.XiDecomposition(bgf, np.zeros((16, 16, 2)), 0.1 * np.ones((16, 16, 1)))
    flat_val = ms.fp_log_determinant(xif).log_density
    values = {"slope": fit.slope, "flat_background": flat_val}
    ok = fit.slope >= 2.7 and flat_val == 0.0
    return CheckResult("A10", "Faddeev-Popov determinant invariance", values,
                       "slope >= 2.7; geodesic flat background exactly 0", ok,
                       slope=fit.slope)


# -- A11: main-result pipeline identity ----------------------------------------------------------


def check_pipeline_identity(config):
    backgrounds = {
        "circle_r2": im.circle_immersion(1.0, 96),
        "circle_r3": im.circle_immersion(1.0, 96, ambient_dim=3),
        "ellipse": im.ellipse_immersion(1.0, 0.6, 128),
        "torus": im.torus_immersion(2.0, 0.5, (24, 48)),
        "sphere": im.sphere_immersion(1.0, 32),
        "graph": im.graph_immersion(shape=(24, 24)),
        "worldline": im.latitude_worldline(1.0, 96),
    }
    values, ok = {}, True
    for name, imm in backgrounds.items():
        bg = dv.Background(imm)
        spec = config.field_spec("xi_normal", imm.grid.periods, imm.D - imm.d)
        xin = spec.sample(imm.grid)[..., :imm.D - imm.d]
        xi = dv.XiDecomposition(bg, np.zeros(imm.grid.shape + (imm.d,)), xin)
        rep = ms.pipeline_identity_report(xi)
        values[f"{name}.max_residual"] = rep["max_abs"]
        ok = ok and rep["max_abs"] <= 1e-8
    return CheckResult("A11", "gauge-fixed integrand pipeline identity", values,
                       "term-by-term within 1e-8 on every builtin background", ok)


# -- A12: action expansion ---------------------------------------------------------------------


def check_action_expansion(config):
    scales = config.scales()
    bg = _circle_background()
    spec = config.field_spec("xi_normal", bg.grid.periods, 1)
    errs = []
    for s in scales:
        xin = s * spec.sample(bg.grid)[..., :1]
        xi = dv.XiDecomposition(bg, np.zeros(bg.grid.shape + (1,)), xin)
        approx = ms.action_expansion(xi)
        exact = ms.nambu_goto_action(dv.immersion_from_deviation(dv.recompose(xi)))
        errs.append(abs(approx - exact))
    fit = _fit(config, scales, errs)

    circle = im.circle_immersion(1.3, 192, fd_order=6)
    len_err = abs(ms.nambu_goto_action(circle) - 2.0 * math.pi * 1.3)
    sphere = im.sphere_immersion(1.0, 128, pole_smoothing=0.49, fd_order=6)
    area_err = abs(ms.nambu_goto_action(sphere) - 4.0 * math.pi)
    s64 = im.sphere_immersion(1.0, 64)
    fj = ms.frame_jacobian_check(s64, im.build_frame(s64))

    values = {"expansion.slope": fit.slope, "circle_length_error": len_err,
              "sphere_area_error": area_err, "frame_jacobian_residual": fj["residual"]}
    ok = (fit.slope >= 2.7 and len_err <= 1e-6 and area_err <= 1e-6
          and fj["residual"] <= 1e-10)
    return CheckResult("A12", "area action and its expansion", values,
                       "slope >= 2.7; 2 pi r and 4 pi to 1e-6; det A to 1e-10",
                       ok, slope=fit.slope)


# -- registry ---------------------------------------------------------------------------------


CHECKS = {
    "A1": check_expansion_orders,
    "A2": check_group_law,
    "A3": check_normal_metric_expansion,
    "A4": check_haar_jacobians,
    "A5": check_diffeo_measure,
    "A6": check_structure_equations,
    "A7": check_diffeo_action,
    "A8": check_xi0_invariance,
    "A9": check_gauge_generator,
    "A10": check_fp_invariance,
    "A11": check_pipeline_identity,
    "A12": check_action_expansion,
}

SUITES = {
    "geodesic": ["A1", "A2"],
    "haar": ["A3", "A4", "A5"],
    "immersion": ["A6"],
    "diffeo": ["A7", "A8", "A9"],
    "gauge": ["A10", "A11"],
    "action": ["A12"],
    "all": list(CHECKS),
}


def _run_check(cid, config):
    """One check's result; a package error it raises becomes a FAIL row that
    carries the message, so the remaining checks still run."""
    try:
        return CHECKS[cid](config)
    except GeodexpError as exc:
        return CheckResult(cid, f"raised {type(exc).__name__}", {"error": math.nan},
                           str(exc), False)


def run_suite(config, suite):
    """Execute a named suite; check failures are reported, not raised."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}' (have {sorted(SUITES)})")
    checks = [_run_check(cid, config) for cid in SUITES[suite]]
    from . import __version__

    gridspec = config.get("grid", {})
    stamp = {
        "version": __version__,
        "seed": config.seed,
        "grid_points": int(gridspec.get("points", 12)),
        "grid_halfwidth": float(gridspec.get("halfwidth", 0.6)),
        "scales": ",".join(f"{s:g}" for s in config.scales()),
    }
    return SuiteReport(suite=suite, checks=checks, stamp=stamp)


# -- scale sweeps -------------------------------------------------------------------------------


# sweep name -> config -> per-scale error function; inputs are made only for
# the sweep that is run
_SWEEP_ERRORS = {
    "expand3_sphere": lambda config: _expand3_error(
        *_expand3_case("sphere"), 3, config.shoot_tol()),
    "expand3_poincare": lambda config: _expand3_error(
        *_expand3_case("poincare"), 3, config.shoot_tol()),
    "expand3_euclidean": lambda config: _expand3_error(
        *_expand3_case("euclidean"), 3, config.shoot_tol()),
    "fp_invariance_circle": lambda config: _fp_invariance_error(
        config, _circle_background()),
    "act_diffeo_circle": lambda config: _diffeo_action_error(
        config, _circle_background()),
    "haar_right_sphere": lambda config: _haar_jacobian_error(
        *_sphere_lattice(config), "right"),
    "haar_left_sphere": lambda config: _haar_jacobian_error(
        *_sphere_lattice(config), "left"),
    "diffeo_identity_sphere": lambda config: _diffeo_identity_error(
        *_sphere_lattice(config)),
}

SWEEPS = tuple(_SWEEP_ERRORS)


def sweep(config, check, scales=None):
    """Scale sweep for a named check: (scale, error) rows plus a slope summary.

    Raises InsufficientSignalError when fewer than three scales carry signal.
    """
    if check not in _SWEEP_ERRORS:
        raise ValueError(f"unknown sweep '{check}' (have {sorted(SWEEPS)})")
    err = _SWEEP_ERRORS[check](config)
    scales = tuple(scales) if scales is not None else config.scales()
    errors = _slope_errors(scales, err)
    fit = _fit(config, scales, errors)
    rows = [("scale", "error")]
    rows += [(f"{s:.12e}", f"{e:.12e}") for s, e in zip(scales, errors)]
    rows.append(("slope", "exact" if fit.exact else f"{fit.slope:.12e}"))
    return rows, fit
