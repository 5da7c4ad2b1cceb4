"""Diffeomorphism action on deviation fields over a background immersion.

A deviation field samples an ambient vector along a background immersion,
generating a neighboring immersion by pointwise geodesic expansion.  An
intrinsic generator field acts on deviations by the printed third-order
transformation; its tangential/normal split transforms by the corresponding
component formulas, with the invariant combination and the gauge generator
solving the tangential gauge condition order by order.

All transforms are assembled term by term; the ``terms`` mapping on each
result attributes every printed contribution separately so order-wise tests
can localize a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geodesics import expand3, shoot
from .immersions import Immersion, build_frame, extrinsic_data
from .manifolds import series_terms

__all__ = [
    "Background",
    "DeviationField",
    "GeneratorField",
    "XiDecomposition",
    "FourierSpec",
    "random_fourier_spec",
    "act_diffeo",
    "decompose",
    "recompose",
    "xi_transform",
    "xi_invariant",
    "gauge_generator",
    "intrinsic_displacement",
    "trig_interpolate",
    "reparametrization_oracle_error",
    "immersion_from_deviation",
]


class Background:
    """Background immersion bundled with its frame, extrinsic data and the
    grid-level covariant derivative helpers used by every transform."""

    def __init__(self, immersion):
        self.immersion = immersion
        self.frame = build_frame(immersion)
        self.ext = extrinsic_data(immersion, self.frame)
        self._cache = {}

    @property
    def grid(self):
        return self.immersion.grid

    @property
    def d(self):
        return self.immersion.d

    @property
    def D(self):
        return self.immersion.D

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def ambient_h(self):
        return self.immersion.ambient_metric()

    def ambient_gamma(self):
        return self.immersion.ambient_curvature()[0]

    def ambient_riemann(self):
        return self.immersion.ambient_curvature()[1]

    def gauss_field(self):
        """H^m_{ab} = H^i_{ab} N_i^m."""
        return self._cached("gauss_field", lambda: np.einsum(
            "...iab,...im->...abm", self.ext.second_form, self.frame.normals))

    # -- covariant derivatives on the grid ------------------------------------

    def cov_ambient_vector(self, V):
        """nabla_a V^m for an ambient-vector field: grid d + Gamma~ dX V."""
        dV = self.grid.gradient(V)                       # (*s, a, m)
        t = self.frame.tangents
        gam = self.ambient_gamma()
        return dV + np.einsum("...mnr,...an,...r->...am", gam, t, V)

    def cov2_ambient_vector_sym(self, V):
        """Symmetrized nabla_a nabla_b V^m (for eta eta contractions)."""
        cov1 = self.cov_ambient_vector(V)                # (*s, a, m)
        dcov = self.grid.gradient(cov1)                  # (*s, b, a, m)
        t = self.frame.tangents
        gam = self.ambient_gamma()
        gam_int = self.immersion.christoffel()
        out = (dcov
               + np.einsum("...mnr,...bn,...ar->...bam", gam, t, cov1)
               - np.einsum("...cba,...cm->...bam", gam_int, cov1))
        return 0.5 * (out + np.einsum("...bam->...abm", out))

    def cov_gauss_field(self):
        """nabla_a (H^i_{bc} N_i^m), all indices covariant."""
        def build():
            Hm = self.gauss_field()                      # (*s, b, c, m)
            dH = self.grid.gradient(Hm)                  # (*s, a, b, c, m)
            t = self.frame.tangents
            gam = self.ambient_gamma()
            gam_int = self.immersion.christoffel()
            return (dH
                    + np.einsum("...mnr,...an,...bcr->...abcm", gam, t, Hm)
                    - np.einsum("...dab,...dcm->...abcm", gam_int, Hm)
                    - np.einsum("...dac,...bdm->...abcm", gam_int, Hm))
        return self._cached("cov_gauss_field", build)

    def cov_normal_scalar(self, xi_n):
        """nabla_a xi^i for normal-bundle components (connection A)."""
        dxi = self.grid.gradient(xi_n)                   # (*s, a, i)
        A = self.ext.connection
        return (np.einsum("...ai->...ia", dxi)
                + np.einsum("...ija,...j->...ia", A, xi_n))

    def cov_second_form_up(self):
        """nabla_b H^{i a}_{c} with H^{i a}_c = g^{ad} H^i_{dc}."""
        def build():
            Hup = np.einsum("...ad,...idc->...iac",
                            self.immersion.metric_inv(), self.ext.second_form)
            dH = self.grid.gradient(Hup)                 # (*s, b, i, a, c)
            gam = self.immersion.christoffel()
            A = self.ext.connection
            return (np.einsum("...biac->...ibac", dH)
                    + np.einsum("...ijb,...jac->...ibac", A, Hup)
                    + np.einsum("...abd,...idc->...ibac", gam, Hup)
                    - np.einsum("...dbc,...iad->...ibac", gam, Hup))
        return self._cached("cov_second_form_up", build)


@dataclass
class DeviationField:
    """Ambient vector samples over a background immersion.

    ``scale`` is sweep bookkeeping only; ``terms`` carries the term-by-term
    breakdown when produced by a transform.
    """

    background: Background
    samples: np.ndarray                   # (*shape, D)
    scale: float = 1.0
    terms: dict = field(default_factory=dict)

    def trusted(self):
        imm = self.background.immersion
        h = imm.ambient_metric()
        norms = np.sqrt(np.einsum("...m,...mn,...n->...", self.samples, h,
                                  self.samples))
        gate = imm.ambient.trust_radius()
        return bool(norms.max() <= gate) if math.isfinite(gate) else True


@dataclass
class GeneratorField:
    """Intrinsic vector samples eta^a(sigma) on the parameter grid."""

    background: Background
    samples: np.ndarray                   # (*shape, d)
    scale: float = 1.0


@dataclass
class XiDecomposition:
    """Tangential covector and normal components of a deviation field."""

    background: Background
    tangential: np.ndarray                # xi_a (lower), (*shape, d)
    normal: np.ndarray                    # xi^i, (*shape, D-d)
    terms: dict = field(default_factory=dict)

    def tangential_up(self):
        return np.einsum("...ab,...b->...a", self.background.immersion.metric_inv(),
                         self.tangential)


# -- Fourier field specifications -----------------------------------------------


class FourierSpec:
    """Low-mode Fourier data for periodic fields: exact continuous evaluation
    plus grid sampling.  ``cos_coeffs``/``sin_coeffs`` have shape
    (ncomp, *mode-shape) with mode k along each grid axis (d = 1) or a tensor
    mode grid (d = 2)."""

    def __init__(self, periods, cos_coeffs, sin_coeffs):
        self.periods = tuple(float(p) for p in periods)
        self.d = len(self.periods)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)

    @property
    def ncomp(self):
        return self.cos_coeffs.shape[0]

    def evaluate(self, points):
        """Evaluate at points of shape (..., d) -> (..., ncomp)."""
        points = np.asarray(points, dtype=float)
        if self.d == 1:
            p = points[..., 0]
            nmodes = self.cos_coeffs.shape[1]
            out = 0.0
            for k in range(nmodes):
                w = 2.0 * math.pi * k / self.periods[0]
                out = out + (np.cos(w * p)[..., None] * self.cos_coeffs[:, k]
                             + np.sin(w * p)[..., None] * self.sin_coeffs[:, k])
            return out
        p0, p1 = points[..., 0], points[..., 1]
        n0, n1 = self.cos_coeffs.shape[1:3]
        out = 0.0
        for k0 in range(n0):
            w0 = 2.0 * math.pi * k0 / self.periods[0]
            for k1 in range(n1):
                w1 = 2.0 * math.pi * k1 / self.periods[1]
                phase = w0 * p0 + w1 * p1
                out = out + (np.cos(phase)[..., None] * self.cos_coeffs[:, k0, k1]
                             + np.sin(phase)[..., None] * self.sin_coeffs[:, k0, k1])
        return out

    def sample(self, grid):
        return self.evaluate(grid.coords())


def random_fourier_spec(periods, ncomp, max_mode=2, amplitude=0.1, seed=0):
    """Seeded low-mode spec; the generator is numpy PCG64 (documented)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = len(periods)
    shape = (ncomp,) + (max_mode + 1,) * d
    cos = amplitude * rng.uniform(-1.0, 1.0, size=shape)
    sin = amplitude * rng.uniform(-1.0, 1.0, size=shape)
    sin[(slice(None),) + (0,) * d] = 0.0   # no sin(0) mode
    return FourierSpec(periods, cos, sin)


# -- decomposition ----------------------------------------------------------------


def decompose(dev):
    """Tangential/normal split: xi_a = d_a X . h . Xdot, xi^i = N_i . h . Xdot."""
    bg = dev.background
    h = bg.ambient_h()
    t, n = bg.frame.tangents, bg.frame.normals
    hX = np.einsum("...mn,...n->...m", h, dev.samples)
    return XiDecomposition(
        background=bg,
        tangential=np.einsum("...am,...m->...a", t, hX),
        normal=np.einsum("...im,...m->...i", n, hX))


def recompose(xi):
    """Inverse of decompose via completeness: Xdot = xi^a d_a X + xi^i N_i."""
    bg = xi.background
    up = xi.tangential_up()
    samples = (np.einsum("...a,...am->...m", up, bg.frame.tangents)
               + np.einsum("...i,...im->...m", xi.normal, bg.frame.normals))
    return DeviationField(background=bg, samples=samples)


# -- diffeomorphism action ----------------------------------------------------------


def act_diffeo(dev, eta, order=3):
    """Transform a deviation field by the generator, to the printed order.

    Order 1 adds the tangential drag; order 2 the parallel transport and the
    second-fundamental-form quadratic; order 3 the remaining printed cubic
    terms (second covariant derivative, derivative of the Gauss vector, and
    the ambient curvature coupling).
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    bg = dev.background
    e = eta.samples
    X = dev.samples
    t = bg.frame.tangents
    terms = {}
    terms["drag"] = np.einsum("...a,...am->...m", e, t)
    out = X + terms["drag"]
    if order >= 2:
        cov1 = bg.cov_ambient_vector(X)
        terms["transport"] = np.einsum("...a,...am->...m", e, cov1)
        terms["second_form"] = 0.5 * np.einsum(
            "...a,...b,...abm->...m", e, e, bg.gauss_field())
        out = out + terms["transport"] + terms["second_form"]
    if order >= 3:
        cov2 = bg.cov2_ambient_vector_sym(X)
        terms["transport2"] = 0.5 * np.einsum("...a,...b,...abm->...m", e, e, cov2)
        terms["second_form_derivative"] = np.einsum(
            "...a,...b,...c,...abcm->...m", e, e, e, bg.cov_gauss_field()) / 6.0
        drag = terms["drag"]
        terms["ambient_curvature"] = np.einsum(
            "...mnlr,...n,...l,...r->...m", bg.ambient_riemann(),
            X + 0.5 * drag, X, drag) / 3.0
        out = out + (terms["transport2"] + terms["second_form_derivative"]
                     + terms["ambient_curvature"])
    return DeviationField(background=bg, samples=out, scale=dev.scale, terms=terms)


def xi_transform(xi, eta, order=3):
    """Transform of the split components under the generator.

    Tangential components follow the printed third-order expression; normal
    components the printed second-order one.  ``order`` truncates the
    tangential series (the normal series is kept at its full printed order
    for order >= 2).
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    bg = xi.background
    e = eta.samples
    xi_up = xi.tangential_up()
    xi_n = xi.normal
    g = bg.immersion.metric()
    ginv = bg.immersion.metric_inv()
    H = bg.ext.second_form                     # H^i_{ab}
    Hup = np.einsum("...ab,...ibc->...iac", ginv, H)   # H^{i a}_c
    gam_int = bg.immersion.christoffel()
    terms = {}

    out_up = xi_up + e
    terms["eta"] = e
    if order >= 2:
        cov_xi = bg.grid.cov_vector(xi_up, gam_int)     # [a, b] = nabla_b xi^a
        terms["drag_xi"] = np.einsum("...b,...ab->...a", e, cov_xi)
        terms["second_form_mix"] = -np.einsum("...iab,...b,...i->...a", Hup, e, xi_n)
        out_up = out_up + terms["drag_xi"] + terms["second_form_mix"]
    if order >= 3:
        cov2_xi = bg.grid.cov2_vector_sym(xi_up, gam_int)  # [a, b, c]
        terms["drag2_xi"] = 0.5 * np.einsum("...b,...c,...abc->...a", e, e, cov2_xi)
        covH = bg.cov_second_form_up()                  # [i, b, a, c] = nabla_b H^{i a}_c
        terms["second_form_derivative"] = -0.5 * np.einsum(
            "...b,...c,...i,...ibac->...a", e, e, xi_n, covH)
        terms["second_form_cubic"] = -np.einsum(
            "...iab,...icd,...b,...c,...d->...a", Hup, H, e, e, e) / 6.0
        cov_xin = bg.cov_normal_scalar(xi_n)            # [i, a] = nabla_a xi^i
        terms["mix_derivative"] = -np.einsum(
            "...iab,...b,...c,...ic->...a", Hup, e, e, cov_xin)
        terms["mix_quadratic"] = -0.5 * np.einsum(
            "...iab,...b,...c,...icd,...d->...a", Hup, e, e, H, xi_up)
        # ambient curvature block, exactly as printed
        Rl = bg.immersion.ambient_riemann_lower()
        t, n = bg.frame.tangents, bg.frame.normals
        t_up = np.einsum("...ab,...bm->...am", ginv, t)     # d^a X
        e_t = np.einsum("...c,...cm->...m", e, t)           # eta^c d_c X
        xi_t = np.einsum("...b,...bm->...m", xi_up, t)      # xi^b d_b X
        xi_N = np.einsum("...i,...im->...m", xi_n, n)       # xi^i N_i
        bracket = (np.einsum("...n,...l->...nl", xi_N, xi_N + xi_t)
                   + np.einsum("...n,...l->...nl", xi_t + 0.5 * e_t, xi_N + xi_t))
        terms["ambient_curvature"] = np.einsum(
            "...mnlr,...am,...nl,...r->...a", Rl, t_up, bracket, e_t) / 3.0
        out_up = out_up + (terms["drag2_xi"] + terms["second_form_derivative"]
                           + terms["second_form_cubic"] + terms["mix_derivative"]
                           + terms["mix_quadratic"] + terms["ambient_curvature"])

    out_n = xi_n.copy()
    if order >= 2:
        cov_xin = bg.cov_normal_scalar(xi_n)
        terms["normal_drag"] = np.einsum("...a,...ia->...i", e, cov_xin)
        terms["normal_second_form"] = (
            np.einsum("...iab,...a,...b->...i", H, e, xi_up)
            + 0.5 * np.einsum("...iab,...a,...b->...i", H, e, e))
        out_n = out_n + terms["normal_drag"] + terms["normal_second_form"]

    return XiDecomposition(background=bg,
                           tangential=np.einsum("...ab,...b->...a", g, out_up),
                           normal=out_n, terms=terms)


def xi_invariant(xi):
    """xi_0^i = xi^i - xi^a nabla_a xi^i - 1/2 H^i_{ab} xi^a xi^b."""
    bg = xi.background
    up = xi.tangential_up()
    cov_xin = bg.cov_normal_scalar(xi.normal)
    return (xi.normal
            - np.einsum("...a,...ia->...i", up, cov_xin)
            - 0.5 * np.einsum("...iab,...a,...b->...i", bg.ext.second_form, up, up))


def gauge_generator(xi, order=2):
    """Generator solving the tangential gauge condition to the given order:
    eta^a = -xi^a + xi^b nabla_b xi^a - H^a_{i b} xi^i xi^b."""
    bg = xi.background
    up = xi.tangential_up()
    e = -up
    if order >= 2:
        cov_xi = bg.grid.cov_vector(up, bg.immersion.christoffel())
        Hup = np.einsum("...ab,...ibc->...iac", bg.immersion.metric_inv(),
                        bg.ext.second_form)
        e = e + (np.einsum("...b,...ab->...a", up, cov_xi)
                 - np.einsum("...iab,...i,...b->...a", Hup, xi.normal, up))
    return GeneratorField(background=bg, samples=e)


# -- intrinsic reparametrization and its oracle --------------------------------------


def intrinsic_displacement(bg, eta, order=3):
    """delta sigma: the geodesic expansion of eta on the parameter manifold
    with the induced metric (grid Christoffels)."""
    e = eta.samples
    out = e.copy()
    if order >= 2:
        gam = bg.immersion.christoffel()
        dgam = bg.grid.gradient(gam) if order >= 3 else None    # (*s, d, a, b, c)
        second, third = series_terms(gam, dgam, e)
        out = out + second
        if order >= 3:
            out = out + third
    return out


def trig_interpolate(grid, samples, points):
    """Spectral-quality periodic interpolation of grid samples at points.

    Trigonometric for d = 1, tensor-product for d = 2.  ``samples`` has shape
    (*grid.shape, ncomp); ``points`` (..., d).
    """
    samples = np.asarray(samples, dtype=float)
    points = np.asarray(points, dtype=float)
    if grid.d == 1:
        N = grid.shape[0]
        coeff = np.fft.fft(samples, axis=0)             # (N, ncomp)
        freqs = 2.0 * math.pi * np.fft.fftfreq(N, d=grid.spacing[0])
        # Nyquist mode of an even grid must be treated as a cosine
        if N % 2 == 0:
            coeff[N // 2] *= 0.5
            coeff = np.concatenate([coeff, coeff[N // 2:N // 2 + 1]], axis=0)
            freqs = np.concatenate([freqs, [-freqs[N // 2]]])
        p = points[..., 0] - grid.axes[0][0]
        phases = np.exp(1j * np.einsum("...,k->...k", p, freqs))
        vals = np.einsum("...k,kc->...c", phases, coeff) / N
        return vals.real
    # d = 2: tensor product of the 1-D scheme
    N0, N1 = grid.shape
    coeff = np.fft.fft2(samples, axes=(0, 1))
    f0 = 2.0 * math.pi * np.fft.fftfreq(N0, d=grid.spacing[0])
    f1 = 2.0 * math.pi * np.fft.fftfreq(N1, d=grid.spacing[1])
    if N0 % 2 == 0:
        coeff[N0 // 2] *= 0.5
        coeff = np.concatenate([coeff, coeff[N0 // 2:N0 // 2 + 1]], axis=0)
        f0 = np.concatenate([f0, [-f0[N0 // 2]]])
    if N1 % 2 == 0:
        coeff[:, N1 // 2] *= 0.5
        coeff = np.concatenate([coeff, coeff[:, N1 // 2:N1 // 2 + 1]], axis=1)
        f1 = np.concatenate([f1, [-f1[N1 // 2]]])
    p0 = points[..., 0] - grid.axes[0][0]
    p1 = points[..., 1] - grid.axes[1][0]
    ph0 = np.exp(1j * np.einsum("...,k->...k", p0, f0))
    ph1 = np.exp(1j * np.einsum("...,l->...l", p1, f1))
    vals = np.einsum("...k,...l,klc->...c", ph0, ph1, coeff) / (N0 * N1)
    return vals.real


def reparametrization_oracle_error(dev, eta, order=3, tol=1e-12):
    """Endpoint defect of the transformed deviation against reparametrize-then-expand.

    Both sides are exact geodesic endpoints (ODE oracle): the transformed
    field shot from sigma must land where the original field shot from
    f(sigma) = sigma + delta sigma lands; the original endpoint field is
    evaluated at f(sigma) by periodic spectral interpolation.  Returns the
    max ambient-metric norm of the defect over the grid.
    """
    bg = dev.background
    imm = bg.immersion
    grid = bg.grid
    coords = grid.coords()
    flatX = imm.samples.reshape(-1, imm.D)
    flatV = dev.samples.reshape(-1, imm.D)
    ends = np.empty_like(flatX)
    for k in range(flatX.shape[0]):
        ends[k] = shoot(imm.ambient, flatX[k], flatV[k], 1.0, tol=tol)
    ends = ends.reshape(imm.samples.shape)

    dsig = intrinsic_displacement(bg, eta, order=order)
    targets = coords + dsig
    # interpolate the periodic part of the endpoint field, add back the winding
    ends_periodic = ends
    if imm.winding.any():
        slopes = imm.winding / np.array(grid.periods)[:, None]
        ends_periodic = ends - np.einsum("...a,am->...m", coords, slopes)
        ramp_at_targets = np.einsum("...a,am->...m", targets, slopes)
    ends_at_f = trig_interpolate(grid, ends_periodic, targets)
    if imm.winding.any():
        ends_at_f = ends_at_f + ramp_at_targets

    moved = act_diffeo(dev, eta, order=order)
    flatM = moved.samples.reshape(-1, imm.D)
    ends2 = np.empty_like(flatX)
    for k in range(flatX.shape[0]):
        ends2[k] = shoot(imm.ambient, flatX[k], flatM[k], 1.0, tol=tol)
    ends2 = ends2.reshape(imm.samples.shape)

    diff = ends2 - ends_at_f
    h = imm.ambient_metric()
    norms = np.sqrt(np.abs(np.einsum("...m,...mn,...n->...", diff, h, diff)))
    return float(norms.max())


def immersion_from_deviation(dev, order=3):
    """Neighboring immersion: pointwise geodesic expansion of the deviation,
    one expand3 batch over the grid."""
    imm = dev.background.immersion
    out, _ = expand3(imm.ambient, imm.samples, dev.samples, order=order)
    return Immersion(imm.grid, imm.ambient, out,
                     normalization=imm.normalization, quad_factor=imm.quad_factor,
                     mask=imm.mask, winding=imm.winding,
                     name=f"{imm.name}+deviation")
