"""Haar-measure densities of the expansion group and their lattice verification.

The closed-form right/left log-weights are pointwise formulas in the
curvature and the generator (plus its covariant derivatives).  The lattice
checks discretize the functional Jacobians of the group composition over a
periodic box of chart points:

* right side: the Jacobian with respect to the second factor couples lattice
  sites through the derivative operator; its dense log-determinant is the
  brute-force oracle.  Its central-difference columns are gathered in exact
  colour groups derived from the stencil footprint (Curtis-Powell-Reid), so
  the matrix is identical to the column-at-a-time oracle for a fraction of
  the full-grid evaluations.  On the lattice the covariant shift operator
  carries delta(x,x)-weighted Christoffel-diagonal traces that the continuum
  antisymmetry convention discards; they are computed from the background
  alone and itemized separately in the formula side (``christoffel_diagonal``),
  per the delta(x,x) -> 1/w(x) regularization.  Pure second-derivative traces
  are not compensated; they vanish identically for generators with constant
  chart components, which the acceptance checks use.

* left side: the composition depends on its first factor pointwise, so the
  Jacobian is block-diagonal (one colour group) and anomaly-free; chart data
  on a box is not box-periodic, so all coefficient derivatives here are
  evaluated pointwise through the chart machinery rather than by wrapping
  stencils.

* diffeomorphism measure: the passive map is pointwise in the generator; the
  identity D Y = h^{n/4} D_L is checked per point, with the non-covariant
  Christoffel-trace pieces reported separately and shown to cancel against
  the measured sqrt(h)-ratio.

The map must move fields by much less than one lattice spacing for the
discretized Jacobian to be a near-identity operator; the checks enforce
amplitude <= spacing/4 and raise LatticeError otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, LatticeError
from .manifolds import (VectorField, as_field, covariant_derivative, group_product,
                        series_terms)
from .stencils import D1, PeriodicLattice

__all__ = [
    "MeasureWeight",
    "right_exponent",
    "left_exponent",
    "right_log_weight",
    "left_log_weight",
    "FieldGrid",
    "compose_field",
    "product_jacobian_check",
    "invariance_check",
    "normal_metric_expansion_check",
    "diffeo_measure_check",
]


@dataclass(frozen=True)
class MeasureWeight:
    """Log-density of a Haar weight at a point, with itemized terms."""

    log_density: float
    base: np.ndarray
    kind: str                    # right | left | diffeo
    includes_volume_factor: bool
    terms: dict


def right_exponent(ricci, v, w=None, weight=1.0):
    """Right Haar exponent -(1/6) R_ab v^a w^b (``w`` defaults to ``v``), times
    ``weight`` and summed over any leading point axes."""
    w = v if w is None else w
    return -float(np.sum(weight * np.einsum("...ab,...a,...b->...", ricci, v, w))) / 6.0


def left_exponent(grad, ricci, v, weight=1.0):
    """Left Haar exponent terms -div v, 1/2 tr(grad v grad v) and
    (1/3) R_ab v^a v^b, with ``grad[..., a, b] = nabla_b v^a``; each is taken
    times ``weight`` and summed over any leading point axes."""
    return (-float(np.sum(weight * np.einsum("...aa->...", grad))),
            0.5 * float(np.sum(weight * np.einsum("...ab,...ba->...", grad, grad))),
            float(np.sum(weight * np.einsum("...ab,...a,...b->...", ricci, v, v))) / 3.0)


def right_log_weight(manifold, x, v, include_volume=False, curvature=None):
    """Right-invariant Haar log-weight: -(1/6) R_ab v^a v^b (+ 1/2 log|h|)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    cb = curvature if curvature is not None else manifold.curvature_at(x)
    terms = {"ricci_quadratic": right_exponent(cb.ricci, v)}
    if include_volume:
        _, logdet = manifold.metric_at(x)
        terms["volume"] = 0.5 * logdet
    return MeasureWeight(log_density=float(sum(terms.values())), base=x,
                         kind="right", includes_volume_factor=include_volume,
                         terms=terms)


def left_log_weight(manifold, x, v, include_volume=False, curvature=None):
    """Left-invariant Haar log-weight:
    -div v + 1/2 (grad v)(grad v)^T-trace + (1/3) R_ab v^a v^b."""
    x = np.asarray(x, dtype=float)
    if not isinstance(v, VectorField):
        raise TypeError("left weight needs a VectorField (derivatives enter)")
    cb = curvature if curvature is not None else manifold.curvature_at(x)
    grad = covariant_derivative(manifold, v, x, order=1, curvature=cb)
    terms = dict(zip(("divergence", "grad_product", "ricci_quadratic"),
                     left_exponent(grad, cb.ricci, v(x))))
    if include_volume:
        _, logdet = manifold.metric_at(x)
        terms["volume"] = 0.5 * logdet
    return MeasureWeight(log_density=float(sum(terms.values())), base=x,
                         kind="left", includes_volume_factor=include_volume,
                         terms=terms)


class FieldGrid(PeriodicLattice):
    """Periodic lattice over a chart box, with cached geometry.

    The box is centered at ``center`` with half-widths ``halfwidths``;
    nodes are offset half a spacing so the lattice is symmetric about the
    center (odd sums cancel exactly).  Vector fields are sampled as arrays
    of shape (*shape, n).
    """

    def __init__(self, manifold, center, halfwidths, points):
        n = manifold.dim
        center = np.asarray(center, dtype=float)
        halfwidths = np.broadcast_to(np.asarray(halfwidths, dtype=float), (n,))
        points = np.broadcast_to(np.asarray(points, dtype=int), (n,))
        if (points < 8).any():
            raise LatticeError("need at least 8 points per axis")
        super().__init__(points, periods=2.0 * halfwidths, offsets=(0.5,) * n,
                         lower=center - halfwidths)
        self.manifold = manifold
        self._geom = None

    def geometry(self):
        """Cached h, log|h|, Gamma, dGamma, Riemann and Ricci over the sites,
        shape (*shape, ...), from one metric and one curvature batch (whose
        CurvatureBundle is kept as ``bundle``)."""
        if self._geom is None:
            pts = self.coords()
            h, logh = self.manifold.metric_at(pts)
            cb = self.manifold.curvature_at(pts)
            self._geom = {"h": h, "logh": logh, "bundle": cb, "gamma": cb.gamma,
                          "dgamma": cb.dgamma, "riemann": cb.riemann, "ricci": cb.ricci}
        return self._geom

    def curvature(self):
        """The sites' cached CurvatureBundle."""
        return self.geometry()["bundle"]

    def check_amplitude(self, *fields):
        amp = max(float(np.abs(f).max()) for f in fields)
        gate = 0.25 * min(self.spacing)
        if amp > gate:
            raise LatticeError(
                f"generator amplitude {amp:.3g} exceeds spacing/4 = {gate:.3g}; "
                "the lattice is too coarse for this scale")


def compose_field(grid, V1, V2, coeffs=None):
    """Grid version of the third-order group product (fields over the box).

    With ``coeffs=None`` the covariant derivatives of the second factor come
    from the lattice stencils (the right-side check differentiates through
    them); passing precomputed pointwise ``coeffs = (d1, d2)`` makes the map
    strictly local in the first factor (the left-side check).
    """
    geom = grid.geometry()
    if coeffs is None:
        d1 = grid.cov_vector(V2, geom["gamma"])
        d2 = grid.cov2_vector_sym(V2, geom["gamma"])
    else:
        d1, d2 = coeffs
    return group_product(V1, V2, d1, d2, geom["riemann"])


def _footprint(ndim, side):
    """Lattice offsets o, as an (m, ndim) integer array, such that
    compose_field's output at site y reads the perturbed factor at y + o.

    The first factor (left side) enters pointwise.  The second (right side)
    enters through ``cov_vector`` and the lattice gradient of it, each of
    which reads F1 = {0} + {o e_a : o in the order-4 D1 offsets}; its
    footprint is the sum set F1 + F1.
    """
    f1 = [np.zeros(ndim, dtype=int)]
    if side == "right":
        for a in range(ndim):
            for off, _ in D1[4]:
                e = np.zeros(ndim, dtype=int)
                e[a] = off
                f1.append(e)
    f1 = np.array(f1)
    return np.unique((f1[:, None] + f1[None, :]).reshape(-1, ndim), axis=0)


@functools.lru_cache(maxsize=32)
def _colour_groups(shape, side):
    """Exact column groups of the composition Jacobian (Curtis-Powell-Reid).

    Returns a tuple of ``(sites, rows)`` pairs, one per colour: ``sites``
    are flat lattice indices, and ``rows[i]`` lists the flat sites whose
    output can depend on ``sites[i]``.  Two sites conflict when their
    difference lies in F - F modulo the periodic shape, i.e. when some output
    reads both; sites are coloured greedily in order, so the sites of one
    colour have disjoint row sets.
    """
    dims = np.array(shape)
    foot = _footprint(len(shape), side)
    coords = np.stack(np.unravel_index(np.arange(int(np.prod(dims))), shape), axis=1)
    conflict = np.unique((foot[:, None] - foot[None, :]).reshape(-1, len(shape)) % dims,
                         axis=0)
    conflict = conflict[conflict.any(axis=1)]
    colour = np.full(len(coords), -1)
    for k, site in enumerate(coords):
        used = colour[np.ravel_multi_index(((site + conflict) % dims).T, shape)]
        taken = np.zeros(len(conflict) + 1, dtype=bool)
        taken[used[used >= 0]] = True
        colour[k] = int(np.argmin(taken))
    rows = np.ravel_multi_index(np.moveaxis((coords[:, None] - foot) % dims, -1, 0), shape)
    groups = []
    for c in range(colour.max() + 1):
        sites = np.flatnonzero(colour == c)
        group = (sites, rows[sites])
        for arr in group:
            arr.flags.writeable = False
        groups.append(group)
    return tuple(groups)


def _dense_jacobian(grid, V1, V2, side, coeffs=None, step=None):
    """Central-difference Jacobian of ``compose_field`` in the ``side`` factor.

    Columns are gathered in exact colour groups from the stencil footprint:
    one full-grid difference perturbs every site of a group in one
    component, and each output row reads at most one perturbed site.  Every
    entry is the same float the column-at-a-time loop produces, and the
    rows outside a column's footprint are exact zeros in both.
    """
    n = grid.d
    nd = V1.size
    scale = max(1.0, float(np.abs(V1).max()), float(np.abs(V2).max()))
    s = step if step is not None else 1e-6 * scale
    jac = np.zeros((nd, nd))
    target = V2 if side == "right" else V1
    comps = target.reshape(-1, n)
    for sites, rows in _colour_groups(grid.shape, side):
        out = rows[..., None] * n + np.arange(n)
        for c in range(n):
            old = comps[sites, c]
            comps[sites, c] = old + s
            fp = compose_field(grid, V1, V2, coeffs=coeffs)
            comps[sites, c] = old - s
            fm = compose_field(grid, V1, V2, coeffs=coeffs)
            comps[sites, c] = old
            diff = ((fp - fm) / (2.0 * s)).reshape(-1)
            jac[out, (sites * n + c)[:, None, None]] = diff[out]
    return jac


def _dense_jacobian_logdet(grid, V1, V2, side, coeffs=None, step=None):
    """Brute-force dense log-determinant of the composition Jacobian.

    The matrix (``_dense_jacobian``) is identical to the column-at-a-time
    finite-difference oracle; its log-determinant is a dense ``slogdet``.
    """
    jac = _dense_jacobian(grid, V1, V2, side, coeffs=coeffs, step=step)
    sign, logdet = np.linalg.slogdet(jac)
    if sign <= 0:
        raise LatticeError("composition Jacobian not orientation-preserving; "
                           "generator scale too large for the lattice")
    return float(logdet)


def _christoffel_diagonal_terms(grid, V1):
    """delta(x,x)-weighted Christoffel traces of the lattice shift operator.

    tr_lattice [V1.nabla + 1/2 V1 V1 nabla nabla - 1/2 (V1.nabla)^2]
        = sum_x [Gamma^a_{ca} V1^c - 1/2 (V1.nabla V1)^d Gamma^a_{da}](x);

    pure derivative parts have exactly vanishing lattice trace (central
    differences are antisymmetric), and pure second-derivative traces vanish
    for constant generator components.
    """
    gam = grid.geometry()["gamma"]
    gtrace = np.einsum("...aca->...c", gam)          # Gamma^a_{ca}
    lin = float(np.sum(np.einsum("...c,...c->...", V1, gtrace)))
    adv = np.einsum("...c,...dc->...d", V1, grid.cov_vector(V1, gam))
    quad = -0.5 * float(np.sum(np.einsum("...d,...d->...", adv, gtrace)))
    return {"christoffel_linear": lin, "christoffel_quadratic": quad}


def product_jacobian_check(manifold, grid, v1, v2, side="right"):
    """Lattice Jacobian of the group product against the printed exponent.

    ``v1``/``v2``: VectorFields or constant component arrays, sampled on the
    grid.  For ``side='right'`` the numeric log-determinant is the dense
    brute-force Jacobian over all lattice degrees of freedom and the formula
    is the quadrature of (1/3) R v2 v1 + (1/6) R v1 v1 plus the itemized
    Christoffel-diagonal lattice terms; for ``side='left'`` the Jacobian is
    block-diagonal and the formula is the printed left exponent difference.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    f1, f2 = as_field(v1), as_field(v2)
    cb = grid.curvature()
    V1, V2 = f1(cb.point), f2(cb.point)
    grid.check_amplitude(V1, V2)
    ric = cb.ricci

    if side == "right":
        numeric = _dense_jacobian_logdet(grid, V1, V2, "right")
        terms = {"ricci_cross": -2.0 * right_exponent(ric, V2, V1),
                 "ricci_first": -right_exponent(ric, V1)}
        terms.update(_christoffel_diagonal_terms(grid, V1))
    else:
        # pointwise coefficients keep the map strictly local in V1; chart
        # data on a box is not box-periodic, so coefficient fields must not
        # be differentiated by the wrapping stencils here
        coeffs = tuple(covariant_derivative(grid.manifold, f2, cb.point, order=k, curvature=cb)
                       for k in (1, 2))
        numeric = _dense_jacobian_logdet(grid, V1, V2, "left", coeffs=coeffs)
        terms = _left_exponent_terms(grid, f1, V1, V2, coeffs)
    formula = float(sum(terms.values()))
    return {"numeric_logdet": numeric, "formula_logdet": formula,
            "residual": numeric - formula, "terms": terms}


def _left_exponent_terms(grid, f1, V1, V2, coeffs):
    """Left exponent of the first factor minus that of the composed field,
    from pointwise nabla V1 and the composed field's covariant gradient
    through second order in the generators."""
    d1_2, d2_2 = coeffs
    cb = grid.curvature()
    d1_1 = covariant_derivative(grid.manifold, f1, cb.point, order=1, curvature=cb)
    comp = compose_field(grid, V1, V2, coeffs=coeffs)
    # nabla comp = nabla V1 + nabla V2 + (nabla V1)(nabla V2) + V1 nabla nabla V2
    # (+ O(eps^3), inside the residual budget); d2_2[a,b,c] = nabla_c nabla_b
    dcomp = (d1_1 + d1_2
             + np.einsum("...ac,...cb->...ab", d1_2, d1_1)
             + np.einsum("...c,...acb->...ab", V1, d2_2))
    terms = {}
    for key, first, composed in zip(("div", "grad", "ricci"),
                                    left_exponent(d1_1, cb.ricci, V1),
                                    left_exponent(dcomp, cb.ricci, comp)):
        terms[f"{key}_composed"] = -composed
        terms[f"{key}_first"] = first
    return terms


def invariance_check(manifold, grid, v1, v2):
    """Direct right Haar-invariance statement on the lattice.

    The measure transforms with the inverse Jacobian of the composition:

        -numeric_logdet + right-exponent(v2) = right-exponent(composed)

    up to O(eps^3); the itemized Christoffel-diagonal lattice traces are
    removed from the numeric log-determinant first (they belong to the
    lattice realization, not the continuum statement).  Returns the defect.
    The left statement is ``product_jacobian_check(side="left")["residual"]``.
    """
    coords = grid.coords()
    V1, V2 = as_field(v1)(coords), as_field(v2)(coords)
    grid.check_amplitude(V1, V2)
    ric = grid.geometry()["ricci"]
    comp = compose_field(grid, V1, V2)
    numeric = _dense_jacobian_logdet(grid, V1, V2, "right")
    lattice = _christoffel_diagonal_terms(grid, V1)
    defect = ((-(numeric - sum(lattice.values())) + right_exponent(ric, V2))
              - right_exponent(ric, comp))
    return float(defect)


def normal_metric_expansion_check(manifold, x0, radius=0.1, n_rings=3,
                                  n_angles=12, rcond_limit=1e6):
    """Fit of the normal-coordinate metric deviation to a quadratic form.

    Samples h^Y over rings inside ``radius``, fits
    h_ab(Y) - h_ab(0) = C[a, b, c, d] Y^c Y^d (symmetric monomials), and
    compares the fitted coefficients with -(1/3) R^Y_{acbd} at the origin.
    """
    from .geodesics import normal_chart

    x0 = np.asarray(x0, dtype=float)
    n = manifold.dim
    chart = normal_chart(manifold, x0, radius=1.25 * radius)
    if n != 2:
        raise NotImplementedError("sampling pattern implemented for dim 2")
    radii = radius * (np.arange(1, n_rings + 1) / n_rings)
    angles = np.arange(n_angles) * (2.0 * math.pi / n_angles) + 0.1
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    samples = np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1).reshape(-1, n)

    h0 = chart.metric(np.zeros(n))
    monomials = [(c, d) for c in range(n) for d in range(c, n)]
    design = np.stack([samples[:, c] * samples[:, d] * (1.0 if c == d else 2.0)
                       for (c, d) in monomials], axis=1)
    cond = np.linalg.cond(design)
    if cond > rcond_limit:
        raise FitError(f"quadratic fit design condition number {cond:.3g}")

    targets = chart.metric(samples)                           # (ns, n, n)
    fitted = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(a, n):
            rhs = targets[:, a, b] - h0[a, b]
            coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            for (c, d), val in zip(monomials, coef):
                fitted[a, b, c, d] = fitted[a, b, d, c] = val
                fitted[b, a, c, d] = fitted[b, a, d, c] = val

    cb = manifold.curvature_at(x0)
    h = manifold.metric(x0)
    rl = cb.riemann_lower(h)
    E = chart.frame                                           # columns e_i
    rl_frame = np.einsum("pqrs,pa,qc,rb,sd->acbd", rl, E, E, E, E)
    # target for the symmetric-monomial fit: -(1/3) sym_(c,d) R_{a c b d}
    target = -(np.einsum("acbd->abcd", rl_frame)
               + np.einsum("adbc->abcd", rl_frame)) / 6.0
    deviation = float(np.abs(fitted - target).max())
    return {"fitted": fitted, "target": target, "deviation": deviation,
            "condition": float(cond)}


def _displacement_field(grid, V):
    """Third-order expansion displacement T(x) = Y(x) - x at each grid point."""
    geom = grid.geometry()
    second, third = series_terms(geom["gamma"], geom["dgamma"], V)
    return V + second + third


def _displacement_jacobian_blocks(grid, V, step=1e-7):
    """Per-point d Y^a / d v^b by central differences (the map is pointwise);
    the identity block is carried by the linear term of the displacement."""
    n = grid.d
    blocks = np.zeros(grid.shape + (n, n))
    for b in range(n):
        dV = np.zeros_like(V)
        dV[..., b] = step
        fp = _displacement_field(grid, V + dV)
        fm = _displacement_field(grid, V - dV)
        blocks[..., :, b] = (fp - fm) / (2.0 * step)
    return blocks


def diffeo_measure_check(manifold, grid, v):
    """Verification of the diffeomorphism-measure identity D Y = h^{n/4} D_L.

    Returns the measured passive log-determinant (per-point blocks of
    dY/d(generator)), the measured sqrt(h)-ratio from the metric
    transformation law applied with the passive coordinate Jacobian dY/dx,
    the covariant formula, the non-covariant Christoffel-trace pieces
    (formula side and measured side, which must cancel), and the identity
    residual.
    """
    field = as_field(v)
    cb = grid.curvature()
    V = field(cb.point)
    grid.check_amplitude(V)
    geom = grid.geometry()
    gam, dgam, ric, h = geom["gamma"], geom["dgamma"], geom["ricci"], geom["h"]

    # measured: per-point blocks of the passive map's generator Jacobian
    blocks = _displacement_jacobian_blocks(grid, V)
    sign, logdet_blocks = np.linalg.slogdet(blocks)
    if (sign <= 0).any():
        raise LatticeError("passive map folds; generator too large")
    passive_numeric = float(np.sum(logdet_blocks))

    # passive coordinate Jacobian dY^a/dx^b through second order in the
    # generator (the cubic term's position derivative is O(eps^3)).  Chart
    # data on a box is not box-periodic, so wrapping lattice stencils must not
    # touch it; every derivative here is pointwise (exact zero for constant
    # components, the field's own stencil otherwise).
    dV = field.jacobian(cb.point, field._step(grid.manifold))
    J = (np.eye(grid.d) + dV
         - 0.5 * np.einsum("...bacd,...c,...d->...ab", dgam, V, V)
         - np.einsum("...acd,...cb,...d->...ab", gam, dV, V))
    # measured sqrt(h)-ratio via the metric transformation law
    Jinv = np.linalg.inv(J)
    hY = np.einsum("...ca,...cd,...db->...ab", Jinv, h, Jinv)
    signY, loghY = np.linalg.slogdet(hY)
    if (signY <= 0).any():
        raise LatticeError("transformed metric lost positivity")
    sqrt_ratio = 0.5 * float(np.sum(loghY - geom["logh"]))

    # covariant formula (the left-exponent), pointwise covariant derivatives
    covV = covariant_derivative(grid.manifold, field, cb.point, order=1, curvature=cb)
    divergence, grad_product, ricci_term = left_exponent(covV, ric, V)
    covariant = divergence + grad_product + ricci_term

    # non-covariant pieces: Gamma-trace terms of the printed passive Jacobian
    gtrace = np.einsum("...aab->...b", gam)            # Gamma^a_{ab}
    dgtrace = np.einsum("...caab->...cb", dgam)        # d_c Gamma^a_{ab}
    cov_gtrace = dgtrace - np.einsum("...dcb,...d->...cb", gam, gtrace)
    nc_formula = (-float(np.sum(np.einsum("...b,...b->...", gtrace, V)))
                  - 0.5 * float(np.sum(np.einsum("...cb,...c,...b->...",
                                                 cov_gtrace, V, V))))
    # measured non-covariant content of the sqrt(h)-ratio: subtract its
    # covariant prediction -(div - 1/2 grad grad - 1/2 R v v)
    sqrt_ratio_covariant = -(-divergence - grad_product
                             - 0.5 * float(np.sum(np.einsum("...ab,...a,...b->...",
                                                            ric, V, V))))
    nc_measured = sqrt_ratio - sqrt_ratio_covariant
    residual = passive_numeric + sqrt_ratio - covariant
    return {
        "passive_numeric_logdet": passive_numeric,
        "sqrt_ratio": sqrt_ratio,
        "covariant_formula_logdet": covariant,
        "noncovariant_terms": {"jacobian_formula": nc_formula,
                               "sqrt_ratio_measured": nc_measured,
                               "cancellation": nc_formula + nc_measured},
        "residual": float(residual),
    }
