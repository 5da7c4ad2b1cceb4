"""Discretized immersions with full extrinsic geometry.

An immersion samples a map X: P -> S on a uniform periodic parameter grid
(circle or torus topology; index arithmetic wraps).  From the samples we
build tangents, the induced metric and its intrinsic curvature, a smooth
orthonormal normal frame, the second fundamental forms, mean curvature,
normal connection and normal curvature, and the residuals of the structure
equations relating them to the ambient curvature.

Field layout: grid axes first, tensor indices after, e.g. ``X[(sigma), mu]``,
``H[(sigma), i, alpha, beta]``.  Intrinsic indices alpha, beta run over the
grid dimension d; normal indices i over D - d.

The normal frame is deterministic: Gram-Schmidt against the ambient
coordinate basis (fixed seed order, automatic fallback on degeneracy, sign
fixed by the first nonzero projection component) at the anchor grid point,
then smooth continuation along the grid.  A per-point sign rule would make
the frame discontinuous in sigma, which grid derivatives of N and A cannot
tolerate; the anchor keeps the construction reproducible and the recorded
orientation signs make every signed output checkable.

The sphere builtin parametrizes S^2 by an analytic double cover of the
torus (theta runs through a full period) with nodes offset off the poles;
quadratures are halved and residual norms exclude a configurable polar
collar through the regularity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IrregularImmersionError
from .manifolds import christoffel_from, euclidean, sphere
from .stencils import PeriodicLattice

__all__ = [
    "ParameterGrid",
    "Immersion",
    "Frame",
    "ExtrinsicData",
    "build_frame",
    "frame_invariant_residuals",
    "second_fundamental_form",
    "normal_connection",
    "extrinsic_data",
    "structure_residuals",
    "delta_diag",
    "functional_trace_identity",
    "circle_immersion",
    "ellipse_immersion",
    "perturbed_circle_immersion",
    "torus_immersion",
    "sphere_immersion",
    "graph_immersion",
    "latitude_worldline",
    "builtin_immersion",
]

# The uniform periodic parameter grid (d = 1 or 2) of an immersion.
ParameterGrid = PeriodicLattice


@dataclass
class Frame:
    """Tangent and orthonormal normal frames along an immersion."""

    tangents: np.ndarray      # (*shape, d, D)
    normals: np.ndarray       # (*shape, D-d, D)
    anchor_signs: np.ndarray  # signs applied at the anchor point (recorded)

    def rotated(self, rot):
        """Constant SO(D-d) rotation of the normal frame: N'_i = rot_ij N_j."""
        return Frame(self.tangents,
                     np.einsum("ij,...jm->...im", np.asarray(rot, dtype=float),
                               self.normals),
                     self.anchor_signs.copy())


@dataclass
class ExtrinsicData:
    """Second fundamental form, mean curvature, normal connection/curvature."""

    second_form: np.ndarray       # H^i_{ab}: (*shape, D-d, d, d)
    mean_curvature: np.ndarray    # H^i = 1/2 H^{i a}_a: (*shape, D-d)
    connection: np.ndarray        # A^i_{ja}: (*shape, D-d, D-d, d)
    normal_curvature: np.ndarray  # F^i_{jab}: (*shape, D-d, D-d, d, d)
    weingarten_residual: float


class Immersion:
    """Sampled immersion of a periodic parameter grid into an ambient manifold.

    Parameters
    ----------
    grid : ParameterGrid
    ambient : ManifoldSpec  (dimension D > d)
    samples : array, shape (*grid.shape, D)
    normalization : float
        The constant of dimension (length)^d entering all functional measures.
    quad_factor : float
        Multiplies quadrature weights (0.5 for double-cover parametrizations).
    mask : bool array, optional
        Regularity mask for residual norms (default: all points).
    winding : array (d, D), optional
        Total advance of each ambient chart coordinate over one full grid
        period along each grid axis.  Components that wind (e.g. an angle
        increasing linearly with the parameter) are not periodic fields;
        stencils act on the periodic remainder and the linear slope is added
        back to first derivatives.
    """

    def __init__(self, grid, ambient, samples, normalization=1.0,
                 quad_factor=1.0, mask=None, winding=None, name="immersion"):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != grid.shape + (ambient.dim,):
            raise ValueError(f"samples shape {samples.shape} does not match "
                             f"grid {grid.shape} x ambient dim {ambient.dim}")
        if grid.d not in (1, 2):
            raise ValueError("intrinsic dimension must be 1 or 2")
        if ambient.dim <= grid.d:
            raise ValueError("ambient dimension must exceed intrinsic dimension")
        self.grid = grid
        self.ambient = ambient
        self.samples = samples
        self.normalization = float(normalization)
        self.quad_factor = float(quad_factor)
        self.mask = np.ones(grid.shape, dtype=bool) if mask is None else mask
        self.winding = np.zeros((grid.d, ambient.dim)) if winding is None \
            else np.asarray(winding, dtype=float)
        self.name = name
        self._cache = {}

    def periodic_samples(self):
        """Samples with the winding ramp removed (a genuinely periodic field)."""
        def build():
            if not self.winding.any():
                return self.samples
            coords = self.grid.coords()    # (*shape, d)
            slopes = self.winding / np.array(self.grid.periods)[:, None]
            return self.samples - np.einsum("...a,am->...m", coords, slopes)
        return self._cached("periodic_samples", build)

    @property
    def d(self):
        return self.grid.d

    @property
    def D(self):
        return self.ambient.dim

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- ambient data along the immersion -------------------------------------

    def ambient_metric(self):
        """Ambient h_mn along X(sigma), one metric batch over the grid."""
        return self._cached("ambient_metric", lambda: self.ambient.metric(self.samples))

    def ambient_curvature(self):
        """Ambient Gamma^m_{nr} and Riemann R^m_{nlr} fields along X(sigma),
        one curvature batch over the grid."""
        def build():
            cb = self.ambient.curvature_at(self.samples)
            return cb.gamma, cb.riemann
        return self._cached("ambient_curvature", build)

    def ambient_riemann_lower(self):
        return self._cached("ambient_riemann_lower", lambda: np.einsum(
            "...me,...enlr->...mnlr", self.ambient_metric(), self.ambient_curvature()[1]))

    # -- first-order data ------------------------------------------------------

    def tangents(self):
        """dX/dsigma^a, shape (*shape, d, D)."""
        def build():
            t = self.grid.gradient(self.periodic_samples())
            if self.winding.any():
                slopes = self.winding / np.array(self.grid.periods)[:, None]
                t = t + slopes
            return t
        return self._cached("tangents", build)

    def metric(self):
        """Induced metric g_ab = d_a X^m d_b X^n h_mn, with regularity check."""
        def build():
            t = self.tangents()
            h = self.ambient_metric()
            g = np.einsum("...am,...mn,...bn->...ab", t, h, t)
            eig = np.linalg.eigvalsh(g)
            bad = eig[..., 0] <= 1e-14 * np.maximum(1.0, eig[..., -1])
            if bad.any():
                idx = np.argwhere(bad)[0]
                raise IrregularImmersionError(idx)
            return g
        return self._cached("metric", build)

    def metric_inv(self):
        return self._cached("metric_inv", lambda: np.linalg.inv(self.metric()))

    def metric_det(self):
        return self._cached("metric_det", lambda: np.linalg.det(self.metric()))

    def sqrt_g(self):
        return self._cached("sqrt_g", lambda: np.sqrt(self.metric_det()))

    def christoffel(self):
        """Intrinsic Gamma^a_{bc} of the induced metric, via grid stencils."""
        def build():
            dg = self.grid.gradient(self.metric())   # (*shape, c, a, b)
            return christoffel_from(self.metric_inv(), dg)
        return self._cached("christoffel", build)

    def intrinsic_riemann_lower(self):
        """Intrinsic R_{abcd} of the induced metric (identically 0 for d = 1).

        Assembled in the fully-lowered form

            R_abcd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
                     + Gamma^e_bc Gamma_eda - Gamma^e_bd Gamma_eca,

        which needs stencils of g only (bounded fields), not of Gamma; near
        chart degeneracies Gamma is steep and differentiating it numerically
        would inflate the error constant by orders of magnitude.
        """
        def build():
            if self.d == 1:
                return np.zeros(self.grid.shape + (1, 1, 1, 1))
            g = self.metric()
            d = self.d
            ddg = np.empty(self.grid.shape + (d, d, d, d))  # [c, d, a, b]
            for c in range(d):
                for e in range(c, d):
                    ddg[..., c, e, :, :] = self.grid.deriv2(g, c, e)
                    if e != c:
                        ddg[..., e, c, :, :] = ddg[..., c, e, :, :]
            gam = self.christoffel()
            gam_low = np.einsum("...ef,...fda->...eda", g, gam)
            rie = 0.5 * (np.einsum("...bcad->...abcd", ddg)
                         + np.einsum("...adbc->...abcd", ddg)
                         - np.einsum("...bdac->...abcd", ddg)
                         - np.einsum("...acbd->...abcd", ddg))
            rie += (np.einsum("...ebc,...eda->...abcd", gam, gam_low)
                    - np.einsum("...ebd,...eca->...abcd", gam, gam_low))
            return rie
        return self._cached("intrinsic_riemann_lower", build)

    # -- quadrature --------------------------------------------------------------

    def quad_weights(self):
        """Per-point quadrature weight w(sigma) (uniform, cover-corrected)."""
        return self.grid.weight * self.quad_factor

    def volume(self):
        """Grid quadrature of sqrt(g): the parameter-manifold volume."""
        return float(np.sum(self.sqrt_g()) * self.quad_weights())

    def masked_max(self, field):
        """Max |field| over the regularity mask (tensor indices flattened)."""
        a = np.abs(np.asarray(field))
        a = a.reshape(self.grid.shape + (-1,)).max(axis=-1)
        return float(a[self.mask].max())


# -- frame construction -----------------------------------------------------------


def _orthonormal_tangents(h, tangents, d):
    tans = []
    for a in range(d):
        t = tangents[a].copy()
        for o in tans:
            t -= (o @ h @ t) * o
        t /= math.sqrt(t @ h @ t)
        tans.append(t)
    return tans


def _gram_schmidt_anchor(h, tangents, D, d):
    """Deterministic GS at the anchor point; returns normals and their signs."""
    tans = _orthonormal_tangents(h, tangents, d)
    basis, signs = [], []
    seed = 0
    while len(basis) < D - d:
        if seed >= D:
            raise IrregularImmersionError((0,), "normal frame seeds exhausted")
        e = np.zeros(D)
        e[seed] = 1.0
        seed += 1
        p = e.copy()
        for o in tans + basis:
            p -= (o @ h @ p) * o
        nrm = math.sqrt(p @ h @ p)
        if nrm < 1e-8:
            continue  # seed parallel to the span; fall back to next basis vector
        nz = np.flatnonzero(np.abs(p) > 1e-12 * np.abs(p).max())[0]
        sign = 1.0 if p[nz] > 0 else -1.0
        basis.append(sign * p / nrm)
        signs.append(sign)
    return np.array(basis), np.array(signs)


def _continue_frame(h, tangents, reference, D, d):
    """GS seeded by a neighboring frame (smooth continuation, no sign rule)."""
    tans = _orthonormal_tangents(h, tangents, d)
    out = []
    for i in range(D - d):
        p = reference[i].copy()
        for o in tans + out:
            p -= (o @ h @ p) * o
        nrm = math.sqrt(p @ h @ p)
        if nrm < 1e-8:
            raise IrregularImmersionError((0,), "frame continuation degenerate")
        out.append(p / nrm)
    return np.array(out)


def build_frame(imm):
    """Tangent + orthonormal normal frame along the immersion.

    Anchor point: deterministic Gram-Schmidt with ambient-basis seeds in fixed
    index order (fallback on degeneracy) and the positive-first-component sign
    rule.  All other points: smooth continuation from an already-visited
    neighbor, iterating in C order.
    """
    t = imm.tangents()
    h = imm.ambient_metric()
    D, d = imm.D, imm.d
    shape = imm.grid.shape
    normals = np.empty(shape + (D - d, D))
    flat_idx = list(np.ndindex(*shape))
    anchor = flat_idx[0]
    normals[anchor], signs = _gram_schmidt_anchor(h[anchor], t[anchor], D, d)
    for idx in flat_idx[1:]:
        ref = None
        for ax in reversed(range(len(idx))):
            if idx[ax] > 0:
                ref = idx[:ax] + (idx[ax] - 1,) + idx[ax + 1:]
                break
        normals[idx] = _continue_frame(h[idx], t[idx], normals[ref], D, d)
    return Frame(tangents=t, normals=normals, anchor_signs=signs)


def frame_invariant_residuals(imm, frame):
    """Orthogonality, normalization and completeness residuals (max-norms)."""
    h = imm.ambient_metric()
    t, n = frame.tangents, frame.normals
    orth = np.einsum("...im,...mn,...an->...ia", n, h, t)
    nn = np.einsum("...im,...mn,...jn->...ij", n, h, n)
    eye = np.eye(imm.D - imm.d)
    compl = (np.einsum("...ab,...am,...bn->...mn", imm.metric_inv(), t, t)
             + np.einsum("...im,...in->...mn", n, n)
             - np.linalg.inv(h))
    return {
        "orthogonality": float(np.abs(orth).max()),
        "normalization": float(np.abs(nn - eye).max()),
        "completeness": float(np.abs(compl).max()),
    }


# -- extrinsic geometry -------------------------------------------------------------


def _gauss_vector(imm):
    """nabla_a d_b X^m = dd X + ambient-Gamma dX dX - intrinsic-Gamma dX."""
    grid = imm.grid
    X = imm.periodic_samples()   # winding ramp has zero second derivative
    t = imm.tangents()
    gam_amb, _ = imm.ambient_curvature()
    gam_int = imm.christoffel()
    d = imm.d
    ddX = np.empty(grid.shape + (d, d, imm.D))
    for a in range(d):
        for b in range(a, d):
            ddX[..., a, b, :] = grid.deriv2(X, a, b)
            if b != a:
                ddX[..., b, a, :] = ddX[..., a, b, :]
    return (ddX
            + np.einsum("...mnr,...an,...br->...abm", gam_amb, t, t)
            - np.einsum("...cab,...cm->...abm", gam_int, t))


def second_fundamental_form(imm, frame):
    """H^i_{ab} = N_i . h . (nabla_a d_b X) and H^i = 1/2 g^{ab} H^i_{ab}."""
    gv = _gauss_vector(imm)
    h = imm.ambient_metric()
    H = np.einsum("...im,...mn,...abn->...iab", frame.normals, h, gv)
    mean = 0.5 * np.einsum("...ab,...iab->...i", imm.metric_inv(), H)
    return H, mean


def normal_connection(imm, frame, second_form):
    """Normal connection A^i_{ja}, curvature F^i_{jab}, Weingarten residual."""
    grid = imm.grid
    h = imm.ambient_metric()
    t, n = frame.tangents, frame.normals
    gam_amb, _ = imm.ambient_curvature()
    dN = grid.gradient(n)                          # (*shape, a, j, m)
    covN = (np.einsum("...ajm->...jam", dN)
            + np.einsum("...mnr,...an,...jr->...jam", gam_amb, t, n))
    A = np.einsum("...im,...mn,...jan->...ija", n, h, covN)
    A = 0.5 * (A - np.einsum("...ija->...jia", A))
    dA = grid.gradient(A)                          # (*shape, a, i, j, b)
    F = (np.einsum("...aijb->...ijab", dA) - np.einsum("...bija->...ijab", dA)
         + np.einsum("...ika,...kjb->...ijab", A, A)
         - np.einsum("...ikb,...kja->...ijab", A, A))
    Hup = np.einsum("...bc,...iac->...iab", imm.metric_inv(), second_form)
    wein = (covN + np.einsum("...ija,...jm->...iam", A, n)
            + np.einsum("...iab,...bm->...iam", Hup, t))
    return A, F, imm.masked_max(wein)


def extrinsic_data(imm, frame):
    H, mean = second_fundamental_form(imm, frame)
    A, F, wres = normal_connection(imm, frame, H)
    return ExtrinsicData(second_form=H, mean_curvature=mean, connection=A,
                         normal_curvature=F, weingarten_residual=wres)


def covariant_second_form_derivative(imm, ext):
    """nabla_a H^i_{bc} with intrinsic and normal-bundle connections."""
    grid = imm.grid
    H = ext.second_form
    A = ext.connection
    gam = imm.christoffel()
    dH = grid.gradient(H)                          # (*shape, a, i, b, c)
    return (np.einsum("...aibc->...iabc", dH)
            + np.einsum("...ija,...jbc->...iabc", A, H)
            - np.einsum("...dab,...idc->...iabc", gam, H)
            - np.einsum("...dac,...ibd->...iabc", gam, H))


def structure_residuals(imm, frame, ext):
    """Componentwise residuals (LHS - RHS) of the Gauss, Codazzi and Ricci
    structure equations; returns fields and masked max-norms."""
    t, n = frame.tangents, frame.normals
    Rl = imm.ambient_riemann_lower()
    H = ext.second_form
    Rint = imm.intrinsic_riemann_lower()

    gauss_lhs = np.einsum("...mnlr,...am,...bn,...cl,...dr->...abcd", Rl, t, t, t, t)
    gauss_rhs = (Rint
                 + np.einsum("...iad,...ibc->...abcd", H, H)
                 - np.einsum("...iac,...ibd->...abcd", H, H))
    gauss = gauss_lhs - gauss_rhs

    nablaH = covariant_second_form_derivative(imm, ext)
    codazzi_lhs = np.einsum("...mnlr,...am,...bn,...il,...cr->...iabc", Rl, t, t, n, t)
    codazzi_rhs = nablaH - np.einsum("...ibac->...iabc", nablaH)
    codazzi = codazzi_lhs - codazzi_rhs

    Hup = np.einsum("...cd,...iad->...ica", imm.metric_inv(), H)   # H^{i c}_a
    ricci_lhs = np.einsum("...mnlr,...am,...bn,...il,...jr->...ijab", Rl, t, t, n, n)
    ricci_rhs = (ext.normal_curvature
                 - np.einsum("...ica,...jcb->...ijab", Hup, H)
                 + np.einsum("...icb,...jca->...ijab", Hup, H))
    ricci = ricci_lhs - ricci_rhs

    norms = {"gauss": imm.masked_max(gauss),
             "codazzi": imm.masked_max(codazzi),
             "ricci": imm.masked_max(ricci)}
    return {"gauss": gauss, "codazzi": codazzi, "ricci": ricci, "norms": norms}


# -- functional-space constants -------------------------------------------------------


def delta_diag(imm):
    """Grid realization of delta(sigma, sigma) = sqrt(g) / N."""
    return imm.sqrt_g() / imm.normalization


def functional_trace_identity(imm):
    """sum_sigma w(sigma) D delta(sigma, sigma) against D V / N: exact grid sums."""
    lhs = imm.D * float(np.sum(delta_diag(imm))) * imm.quad_weights()
    rhs = imm.D * imm.volume() / imm.normalization
    return lhs, rhs, abs(lhs - rhs)


# -- builtin immersions ----------------------------------------------------------------


def circle_immersion(radius=1.0, points=96, ambient_dim=2, fd_order=4,
                     normalization=1.0):
    """Circle of given radius in flat R^2 or R^3, angle parameter."""
    grid = ParameterGrid((points,), fd_order=fd_order)
    phi = grid.axes[0]
    cols = [radius * np.cos(phi), radius * np.sin(phi)]
    if ambient_dim == 3:
        cols.append(np.zeros_like(phi))
    X = np.stack(cols, axis=-1)
    return Immersion(grid, euclidean(ambient_dim), X, normalization=normalization,
                     name=f"circle(r={radius},D={ambient_dim})")


def ellipse_immersion(a=1.0, b=0.6, points=128, fd_order=4, normalization=1.0):
    grid = ParameterGrid((points,), fd_order=fd_order)
    phi = grid.axes[0]
    X = np.stack([a * np.cos(phi), b * np.sin(phi)], axis=-1)
    return Immersion(grid, euclidean(2), X, normalization=normalization,
                     name=f"ellipse({a},{b})")


def perturbed_circle_immersion(radius=1.0, eps=0.1, mode=1, points=192,
                               fd_order=4, normalization=1.0):
    """r(phi) = radius + eps cos(mode phi), in R^2."""
    grid = ParameterGrid((points,), fd_order=fd_order)
    phi = grid.axes[0]
    r = radius + eps * np.cos(mode * phi)
    X = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    return Immersion(grid, euclidean(2), X, normalization=normalization,
                     name=f"perturbed_circle(eps={eps})")


def torus_immersion(major=2.0, minor=0.5, shape=(48, 96), fd_order=4,
                    normalization=1.0):
    """Torus of revolution in R^3; (theta, phi) = (tube, axis) angles."""
    grid = ParameterGrid(shape, fd_order=fd_order)
    th, ph = np.meshgrid(*grid.axes, indexing="ij")
    ring = major + minor * np.cos(th)
    X = np.stack([ring * np.cos(ph), ring * np.sin(ph), minor * np.sin(th)],
                 axis=-1)
    return Immersion(grid, euclidean(3), X, normalization=normalization,
                     name=f"torus({major},{minor})")


def sphere_immersion(radius=1.0, resolution=64, collar=0.5, fd_order=4,
                     normalization=1.0, pole_smoothing=0.0):
    """Round sphere in R^3 via the analytic double-cover torus parametrization.

    ``resolution`` counts theta nodes per single cover (the grid holds twice
    that) and phi nodes.  Nodes sit half a spacing off the poles; the
    regularity mask excludes points with polar angle within ``collar`` of a
    pole.  Quadratures carry the 1/2 double-cover factor.

    ``pole_smoothing`` in [0, 0.5) reparametrizes theta(t) = t - a sin(2t),
    flattening sqrt(g) at the poles so the periodic trapezoid quadrature of
    the area converges fast despite the |sin theta| kink; the geometry itself
    is parametrization-invariant.
    """
    if np.isscalar(resolution):
        n_theta, n_phi = int(resolution), int(resolution)
    else:
        n_theta, n_phi = (int(r) for r in resolution)
    grid = ParameterGrid((2 * n_theta, n_phi), offsets=(0.5, 0.0),
                         fd_order=fd_order)
    t, ph = np.meshgrid(*grid.axes, indexing="ij")
    a = float(pole_smoothing)
    if not 0.0 <= a < 0.5:
        raise ValueError("pole_smoothing must lie in [0, 0.5)")
    th = t - a * np.sin(2.0 * t)
    X = radius * np.stack([np.sin(th) * np.cos(ph),
                           np.sin(th) * np.sin(ph),
                           np.cos(th)], axis=-1)
    mask = np.abs(np.sin(th)) >= math.sin(collar)
    return Immersion(grid, euclidean(3), X, normalization=normalization,
                     quad_factor=0.5, mask=mask,
                     name=f"sphere_imm(r={radius},n={n_theta})")


def graph_immersion(height_fn=None, shape=(48, 48), period=2.0 * math.pi,
                    fd_order=4, normalization=1.0):
    """Periodic graph z = f(x, y) over a flat torus, immersed in R^3."""
    if height_fn is None:
        def height_fn(x, y):
            return 0.3 * np.sin(x) * np.cos(y)
    grid = ParameterGrid(shape, periods=(period, period), fd_order=fd_order)
    xx, yy = np.meshgrid(*grid.axes, indexing="ij")
    X = np.stack([xx, yy, height_fn(xx, yy)], axis=-1)
    winding = np.array([[period, 0.0, 0.0], [0.0, period, 0.0]])
    return Immersion(grid, euclidean(3), X, normalization=normalization,
                     winding=winding, name="graph")


def latitude_worldline(theta0=1.0, points=96, radius=1.0, fd_order=4,
                       normalization=1.0):
    """Latitude circle on the round 2-sphere: d=1 immersion, curved ambient."""
    grid = ParameterGrid((points,), fd_order=fd_order)
    phi = grid.axes[0]
    X = np.stack([np.full_like(phi, theta0), phi], axis=-1)
    winding = np.array([[0.0, 2.0 * math.pi]])
    return Immersion(grid, sphere(radius), X, normalization=normalization,
                     winding=winding, name=f"latitude(theta0={theta0})")


def builtin_immersion(spec):
    """Construct an immersion from a config mapping (builtin id or samples)."""
    spec = dict(spec)
    if "samples" in spec:
        grid = ParameterGrid(tuple(spec["grid_shape"]),
                             periods=spec.get("periods"),
                             fd_order=int(spec.get("fd_order", 4)))
        from .manifolds import builtin_manifold
        ambient = builtin_manifold(spec["ambient"])
        return Immersion(grid, ambient, np.asarray(spec["samples"], dtype=float),
                         normalization=float(spec.get("normalization", 1.0)),
                         name="tabulated")
    kind = spec.pop("builtin")
    makers = {
        "circle": circle_immersion,
        "ellipse": ellipse_immersion,
        "perturbed_circle": perturbed_circle_immersion,
        "torus": torus_immersion,
        "sphere": sphere_immersion,
        "graph": graph_immersion,
        "latitude_worldline": latitude_worldline,
    }
    if kind not in makers:
        raise ValueError(f"unknown builtin immersion '{kind}'")
    return makers[kind](**spec)
