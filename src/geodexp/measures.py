"""Functional measures, the Faddeev-Popov determinant, and the gauge-fixed
semiclassical integrand over immersed manifolds, plus the area action and its
second-order expansion.

Every weight is returned as a FunctionalWeight whose ``terms`` mapping itemizes
the named contributions (log density = sum of terms); the acceptance pipeline
identity is checked term by term.  Functional traces follow the grid
convention delta(sigma, sigma) = sqrt(g)/N, so continuum integrals
int d sigma delta(sigma,sigma) f become sums over grid points of
w(sigma) sqrt(g)/N f(sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deviations import xi_invariant
from .haar import left_exponent, right_exponent

__all__ = [
    "FunctionalWeight",
    "functional_right_measure_log",
    "eta_measure_log",
    "fp_log_determinant",
    "frame_jacobian_check",
    "gauge_fixed_log_integrand",
    "pipeline_identity_report",
    "nambu_goto_action",
    "action_expansion",
]


@dataclass
class FunctionalWeight:
    """Log-density of a functional measure with an itemized breakdown."""

    terms: dict
    grid_shape: tuple
    normalization: float

    @property
    def log_density(self):
        return float(sum(self.terms.values()))

    def term(self, name):
        return float(self.terms[name])


def _measure_density(imm):
    """w(sigma) sqrt(g)/N: the grid realization of the covariant sigma-integral
    weighted by delta(sigma, sigma)."""
    return imm.quad_weights() * imm.sqrt_g() / imm.normalization


def _ambient_logdet(imm):
    sign, logdet = np.linalg.slogdet(imm.ambient_metric())
    return logdet


def functional_right_measure_log(dev, include_prefactors=True):
    """Right-invariant functional measure over immersions, evaluated on a
    deviation field: Ricci exponent plus per-point volume prefactors."""
    bg = dev.background
    imm = bg.immersion
    _, rie = imm.ambient_curvature()
    ricci = np.einsum("...nmnr->...mr", rie)
    terms = {"ricci_exponent": right_exponent(ricci, dev.samples,
                                              weight=_measure_density(imm))}
    if include_prefactors:
        terms["prefactor_h"] = 0.5 * float(np.sum(_ambient_logdet(imm)))
        terms["prefactor_g"] = 0.5 * imm.D * float(
            np.sum(np.log(imm.sqrt_g() / imm.normalization)))
    return FunctionalWeight(terms=terms, grid_shape=imm.grid.shape,
                            normalization=imm.normalization)


def eta_measure_log(eta, include_prefactors=True):
    """Left-invariant measure over intrinsic generators (reparametrizations)."""
    bg = eta.background
    imm = bg.immersion
    e = eta.samples
    cov = bg.grid.cov_vector(e, imm.christoffel())        # nabla_b eta^a -> [a, b]
    # R_bd = g^{ac} R_abcd  (intrinsic Ricci from the lowered Riemann; 0 for d = 1)
    ric = np.einsum("...ac,...abcd->...bd", imm.metric_inv(),
                    imm.intrinsic_riemann_lower())
    terms = dict(zip(("divergence", "grad_product", "ricci"),
                     left_exponent(cov, ric, e, weight=_measure_density(imm))))
    if include_prefactors:
        terms["prefactor_g"] = float(np.sum(np.log(imm.sqrt_g())))
        terms["prefactor_gN"] = 0.5 * imm.d * float(
            np.sum(np.log(imm.sqrt_g() / imm.normalization)))
    return FunctionalWeight(terms=terms, grid_shape=imm.grid.shape,
                            normalization=imm.normalization)


def _ambient_projections(bg):
    """Curvature projections entering the determinant and the main result:

    tangent[i, j]  = R~_{mnlr} d^aX^m N_i^n d_aX^l N_j^r
    normal[i, j]   = R~_{mnlr} N^{k m} N_i^n N_k^l N_j^r
    """
    imm = bg.immersion
    Rl = imm.ambient_riemann_lower()
    t, n = bg.frame.tangents, bg.frame.normals
    t_up = np.einsum("...ab,...bm->...am", imm.metric_inv(), t)
    tangent = np.einsum("...mnlr,...am,...in,...al,...jr->...ij", Rl, t_up, n, t, n)
    normal = np.einsum("...mnlr,...km,...in,...kl,...jr->...ij", Rl, n, n, n, n)
    return tangent, normal


def fp_log_determinant(xi):
    """Log of the Faddeev-Popov determinant evaluated on a decomposition."""
    bg = xi.background
    imm = bg.immersion
    dens = _measure_density(imm)
    xin = xi.normal
    xi0 = xi_invariant(xi)
    H = bg.ext.second_form
    mean = bg.ext.mean_curvature
    ginv = imm.metric_inv()
    HH = np.einsum("...iab,...ac,...bd,...jcd->...ij", H, ginv, ginv, H)
    tangent_proj, _ = _ambient_projections(bg)
    terms = {
        "mean_curvature_linear": -2.0 * float(np.sum(
            dens * np.einsum("...i,...i->...", mean, xi0))),
        "second_form_quadratic": -0.5 * float(np.sum(
            dens * np.einsum("...ij,...i,...j->...", HH, xin, xin))),
        "ambient_tangent_quadratic": -float(np.sum(
            dens * np.einsum("...ij,...i,...j->...", tangent_proj, xin, xin))) / 3.0,
    }
    return FunctionalWeight(terms=terms, grid_shape=imm.grid.shape,
                            normalization=imm.normalization)


def frame_jacobian_check(imm, frame):
    """Determinant of the frame block map against sqrt(g/h), pointwise.

    The columns are (d_a X | N_i); |det| must equal sqrt(g/h).  Returns the
    signed determinant field, the target field, and the max residual of
    | |det| - sqrt(g/h) |.
    """
    t, n = frame.tangents, frame.normals
    A = np.concatenate([t, n], axis=-2)            # (*shape, D, D): rows = frame
    detA = np.linalg.det(np.swapaxes(A, -1, -2))   # columns = frame vectors
    g = imm.metric_det()
    hdet = np.exp(_ambient_logdet(imm))
    target = np.sqrt(g / hdet)
    residual = float(np.abs(np.abs(detA) - target).max())
    return {"det": detA, "sqrt_g_over_h": target, "residual": residual}


def pipeline_prefactor_terms(imm):
    """Per-point prefactor bookkeeping for the gauge-fixing pipeline.

    right_h + right_g come from the right measure; frame_log_det from the
    change of variables Xdot -> (xi_a, xi^i); tangential_delta_norm from the
    covariant delta functional absorbing the tangential integration.  Their
    sum telescopes exactly to the D xi prefactor.
    """
    logh = _ambient_logdet(imm)
    logsg = np.log(imm.sqrt_g())
    logsgN = np.log(imm.sqrt_g() / imm.normalization)
    D, d = imm.D, imm.d
    return {
        "right_prefactor_h": 0.5 * float(np.sum(logh)),
        "right_prefactor_g": 0.5 * D * float(np.sum(logsgN)),
        "frame_log_det": float(np.sum(0.5 * (2.0 * logsg - logh))),
        "tangential_delta_norm": -float(np.sum(logsg)) - 0.5 * d * float(np.sum(logsgN)),
        "xi_prefactor": 0.5 * (D - d) * float(np.sum(logsgN)),
    }


def gauge_fixed_log_integrand(xi, include_prefactors=True, tol=1e-10):
    """The main-result exponent on a purely normal decomposition.

    Requires xi^alpha = 0 (tangential components gauged away); raises
    ValueError otherwise.  Terms: linear mean-curvature, quadratic second
    fundamental form, and the two ambient-curvature projections with the
    recombined -1/2 and -1/6 coefficients, plus the D xi prefactor.
    """
    bg = xi.background
    imm = bg.immersion
    scale = max(1.0, float(np.abs(xi.normal).max()))
    if float(np.abs(xi.tangential).max()) > tol * scale:
        raise ValueError("gauge_fixed_log_integrand requires vanishing "
                         "tangential components (apply the gauge generator first)")
    dens = _measure_density(imm)
    xin = xi.normal
    mean = bg.ext.mean_curvature
    H = bg.ext.second_form
    ginv = imm.metric_inv()
    HH = np.einsum("...iab,...ac,...bd,...jcd->...ij", H, ginv, ginv, H)
    tangent_proj, normal_proj = _ambient_projections(bg)
    terms = {
        "mean_curvature_linear": -2.0 * float(np.sum(
            dens * np.einsum("...i,...i->...", mean, xin))),
        "second_form_quadratic": -0.5 * float(np.sum(
            dens * np.einsum("...ij,...i,...j->...", HH, xin, xin))),
        "ambient_tangent_quadratic": -0.5 * float(np.sum(
            dens * np.einsum("...ij,...i,...j->...", tangent_proj, xin, xin))),
        "ambient_normal_quadratic": -float(np.sum(
            dens * np.einsum("...ij,...i,...j->...", normal_proj, xin, xin))) / 6.0,
    }
    if include_prefactors:
        terms["xi_prefactor"] = 0.5 * (imm.D - imm.d) * float(
            np.sum(np.log(imm.sqrt_g() / imm.normalization)))
    return FunctionalWeight(terms=terms, grid_shape=imm.grid.shape,
                            normalization=imm.normalization)


def pipeline_identity_report(xi_normal):
    """Term-by-term recombination check of the gauge-fixing pipeline.

    On a purely normal decomposition, the gauge-fixed integrand must equal
    the right functional measure restricted to normal deviations plus the
    Faddeev-Popov determinant plus the frame-Jacobian prefactor bookkeeping.
    The two ambient-curvature projections recombine through the completeness
    relation.  Returns per-term residuals and their max.
    """
    bg = xi_normal.background
    imm = bg.immersion
    from .deviations import recompose

    gauge = gauge_fixed_log_integrand(xi_normal)
    dev = recompose(xi_normal)
    right = functional_right_measure_log(dev)
    fp = fp_log_determinant(xi_normal)
    pref = pipeline_prefactor_terms(imm)

    residuals = {
        "linear": gauge.term("mean_curvature_linear") - fp.term("mean_curvature_linear"),
        "second_form": gauge.term("second_form_quadratic") - fp.term("second_form_quadratic"),
        "ambient_curvature": (gauge.term("ambient_tangent_quadratic")
                              + gauge.term("ambient_normal_quadratic"))
        - (right.term("ricci_exponent") + fp.term("ambient_tangent_quadratic")),
        "prefactors": gauge.term("xi_prefactor")
        - (pref["right_prefactor_h"] + pref["right_prefactor_g"]
           + pref["frame_log_det"] + pref["tangential_delta_norm"]),
        "total": gauge.log_density
        - (right.log_density + fp.log_density + pref["frame_log_det"]
           + pref["tangential_delta_norm"]),
    }
    residuals["max_abs"] = max(abs(v) for v in residuals.values())
    return residuals


def nambu_goto_action(imm):
    """Area action: grid quadrature of sqrt|det g| divided by the normalization."""
    return imm.volume() / imm.normalization


def action_expansion(xi):
    """Second-order expansion of the area action around the background.

    S = 1/N sum w sqrt(g) [ 1 - 2 H_i xi_0^i
        - 1/2 xi_j (delta^j_i lap + H^{j ab} H_{i ab} - 4 H^j H_i
                    + tangent-projection^j_i) xi^i ]

    with ``lap`` the intrinsic Laplacian (induced metric, normal-bundle
    connection) acting on the normal components.
    """
    bg = xi.background
    imm = bg.immersion
    grid = imm.grid
    w = imm.quad_weights()
    sg = imm.sqrt_g()
    xin = xi.normal
    xi0 = xi_invariant(xi)
    mean = bg.ext.mean_curvature
    H = bg.ext.second_form
    ginv = imm.metric_inv()
    HH = np.einsum("...iab,...ac,...bd,...jcd->...ij", H, ginv, ginv, H)
    tangent_proj, _ = _ambient_projections(bg)

    # intrinsic Laplacian on normal components
    cov1 = bg.cov_normal_scalar(xin)                     # [i, a]
    dcov = grid.gradient(cov1)                           # [b, i, a]
    gam = imm.christoffel()
    A = bg.ext.connection
    cov2 = (np.einsum("...bia->...iab", dcov)
            + np.einsum("...ijb,...ja->...iab", A, cov1)
            - np.einsum("...cba,...ic->...iab", gam, cov1))
    lap = np.einsum("...ab,...iab->...i", ginv, cov2)

    quad = (np.einsum("...i,...i->...", xin, lap)
            + np.einsum("...ij,...i,...j->...", HH, xin, xin)
            - 4.0 * np.einsum("...i,...j,...i,...j->...", mean, mean, xin, xin)
            + np.einsum("...ij,...i,...j->...", tangent_proj, xin, xin))
    dens = (1.0 - 2.0 * np.einsum("...i,...i->...", mean, xi0) - 0.5 * quad)
    return float(np.sum(w * sg * dens)) / imm.normalization
