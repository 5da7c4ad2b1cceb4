"""Exact geodesics, the truncated third-order expansion, and its group operations.

The ODE path (``shoot``) is the brute-force oracle: an adaptive high-order
Runge-Kutta integration of the geodesic equation.  The series path
(``expand3``) is the closed-form expansion truncated at a chosen order;
``compose3``/``invert3`` realize the group product and inverse of such
expansions through third order.  All series coefficients are evaluated at the
base point; the two routes are kept independent so convergence sweeps can
measure truncation orders honestly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ChartDomainError, NoUniqueGeodesicError, StiffnessError
from .manifolds import (ManifoldSpec, as_field, covariant_derivative, group_product,
                        series_terms)
from .stencils import partials

__all__ = [
    "shoot",
    "log_map",
    "expand3",
    "compose3",
    "invert3",
    "NormalChart",
    "normal_chart",
]


def _geodesic_rhs(manifold):
    n = manifold.dim

    def rhs(_t, y):
        x, v = y[:n], y[n:]
        gamma = manifold.christoffel(x)
        acc = -np.einsum("abc,b,c->a", gamma, v, v)
        return np.concatenate([v, acc])

    return rhs


def shoot(manifold, x0, v, t=1.0, tol=1e-10, return_velocity=False):
    """Integrate the geodesic ODE from (x0, v) to affine parameter t.

    Adaptive step control with local tolerance ``tol``.  Raises
    ChartDomainError if the trajectory exits the chart (reporting the exit
    parameter) and StiffnessError on step-size underflow.
    """
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    manifold.require_inside(x0)
    if t == 0.0 or not np.any(v):
        out = x0.copy()
        return (out, v.copy()) if return_velocity else out

    events = []
    dom = manifold.domain
    margin = 2.5 * manifold.fd_step if manifold.d_metric_fn is None else 0.0
    for i in range(manifold.dim):
        if dom.periodic[i]:
            continue
        if math.isfinite(dom.lower[i]):
            def lower_ev(_t, y, i=i, b=dom.lower[i] + margin):
                return y[i] - b
            lower_ev.terminal = True
            events.append(lower_ev)
        if math.isfinite(dom.upper[i]):
            def upper_ev(_t, y, i=i, b=dom.upper[i] - margin):
                return b - y[i]
            upper_ev.terminal = True
            events.append(upper_ev)

    sol = solve_ivp(_geodesic_rhs(manifold), (0.0, t),
                    np.concatenate([x0, v]), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, events=events or None,
                    dense_output=False)
    if sol.status == 1:
        t_exit = min(float(te[0]) for te in sol.t_events if te.size)
        raise ChartDomainError(
            f"{manifold.name}: geodesic exits chart domain at parameter {t_exit:.6g}")
    if not sol.success:
        raise StiffnessError(f"{manifold.name}: step-size underflow ({sol.message})")
    y = sol.y[:, -1]
    n = manifold.dim
    return (y[:n], y[n:]) if return_velocity else y[:n]


def _endpoint_jacobian(manifold, x0, v, shoot_tol):
    """Central-difference Jacobian of v -> shoot(x0, v, 1): 2n shoots."""
    n = manifold.dim
    jac = np.empty((n, n))
    step = max(1e-7, 1e-7 * float(np.max(np.abs(v))))
    for b in range(n):
        dv = np.zeros(n)
        dv[b] = step
        ep = shoot(manifold, x0, v + dv, 1.0, tol=shoot_tol)
        em = shoot(manifold, x0, v - dv, 1.0, tol=shoot_tol)
        jac[:, b] = (ep - em) / (2.0 * step)
    return jac


def log_map(manifold, x0, x1, tol=1e-10, max_iter=30):
    """Initial velocity v with shoot(x0, v, 1) = x1, by quasi-Newton shooting
    from the inverted series.

    With Delta = x1 - x0 and the expansion increments (s2, s3) of Delta at
    x0, Newton starts from v = Delta - s2 - Gamma(Delta, s2) - s3, the series
    inverted to third order, with the series map's own Jacobian.  Each
    iteration makes one shoot and a Broyden rank-one update (Broyden, Math.
    Comp. 19, 1965); when the residual fails to halve, the Jacobian is
    refreshed by central differences of the endpoint map (2n shoots).  A step
    is scaled down to at most max(|v|, |Delta|) in the max-norm.  The series
    only chooses the iterates: v is returned only when shoot(x0, v, 1) lands
    within ``tol`` of x1.  A singular Jacobian or non-convergence within
    ``max_iter`` iterations raises NoUniqueGeodesicError (trust-radius
    violation signal).
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    delta = x1 - x0
    shoot_tol = min(tol * 1e-2, 1e-11)
    gamma = manifold.christoffel(x0)
    dgamma = manifold.d_christoffel(x0)

    def series_map(w):
        second, third = series_terms(gamma, dgamma, w)
        return w + second + third

    second, third = series_terms(gamma, dgamma, delta)
    v = delta - second - np.einsum("abc,b,c->a", gamma, delta, second) - third
    jac = partials(series_map, v, 1e-4 * max(1.0, float(np.max(np.abs(v))))).T
    limit = float(np.max(np.abs(delta)))
    prev = None
    for _ in range(max_iter):
        res = shoot(manifold, x0, v, 1.0, tol=shoot_tol) - x1
        size = float(np.max(np.abs(res)))
        if size < tol:
            return v
        if prev is not None:
            v_prev, res_prev, size_prev = prev
            if size > 0.5 * size_prev:
                jac = _endpoint_jacobian(manifold, x0, v, shoot_tol)
            else:
                dv = v - v_prev
                jac = jac + np.outer(res - res_prev - jac @ dv, dv) / (dv @ dv)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            raise NoUniqueGeodesicError(
                f"{manifold.name}: endpoint Jacobian singular between {tuple(x0)} "
                f"and {tuple(x1)}") from None
        cap = max(float(np.max(np.abs(v))), limit)
        reach = float(np.max(np.abs(step)))
        if reach > cap:
            step = step * (cap / reach)
        prev = (v, res, size)
        v = v - step
    raise NoUniqueGeodesicError(
        f"{manifold.name}: no unique geodesic found between {tuple(x0)} and "
        f"{tuple(x1)} within {max_iter} Newton iterations")


def expand3(manifold, x0, v, order=3, trust_radius=None):
    """Truncated geodesic expansion X0 + v - (1/2)Gamma v v + (1/6)(...) vvv
    at base points x0 of shape (..., n).

    Returns ``(endpoint, trusted)`` where ``trusted`` is False (per point)
    when the generator norm exceeds the trust radius (warning flag, not fatal;
    needed for convergence sweeps).
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    gate = trust_radius if trust_radius is not None else manifold.trust_radius(x0)
    trusted = manifold.norm(x0, v) <= gate
    second, third = series_terms(manifold.christoffel(x0),
                                 manifold.d_christoffel(x0), v)
    out = x0 + v
    if order >= 2:
        out = out + second
    if order >= 3:
        out = out + third
    return out, trusted


def compose3(manifold, x0, v1, v2, curvature=None):
    """Group product of two geodesic expansions through third order.

    ``v1`` is the first generator's value at x0; ``v2`` is
    the second generator as a VectorField (bare vectors are promoted to
    chart-constant fields).  All quantities are evaluated at x0:

        v = v1 + v2 + v1.D v2 + 1/2 v1 v1 DD v2
            + 1/3 R^a_{bcd} (v2 + v1/2)^b v2^c v1^d   (``group_product``)
    """
    x0 = np.asarray(x0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    field = as_field(v2)
    cb = curvature if curvature is not None else manifold.curvature_at(x0)
    d1 = covariant_derivative(manifold, field, x0, order=1, curvature=cb)
    d2 = covariant_derivative(manifold, field, x0, order=2, curvature=cb)
    return group_product(v1, field(x0), d1, d2, cb.riemann)


def invert3(manifold, x0, v):
    """Inverse expansion: endpoint x1 and generator w at x1 returning to x0.

    Perturbative series inversion; the residual of expand3(x1, w) against x0
    is O(|v|^4).  Cross-checkable against the reversed endpoint velocity of
    the ODE oracle.
    """
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    gamma = manifold.christoffel(x0)
    dgamma = manifold.d_christoffel(x0)
    x1, _ = expand3(manifold, x0, v)
    w = (-v
         + np.einsum("abc,b,c->a", gamma, v, v)
         - np.einsum("abc,b,cde,d,e->a", gamma, v, gamma, v, v)
         + 0.5 * np.einsum("dabc,b,c,d->a", dgamma, v, v, v))
    return x1, w


class NormalChart:
    """Riemannian normal coordinates centered at a point.

    Forward map: Y(x) = frame-components of log_map(x0, x); inverse by
    shooting.  ``pullback_manifold`` wraps the chart as a ManifoldSpec whose
    metric is obtained numerically from the inverse map, so all chart-level
    machinery (curvature, composition, lattice checks) can run in normal
    coordinates.
    """

    def __init__(self, manifold, x0, radius, tol=1e-11):
        self.manifold = manifold
        self.x0 = np.asarray(x0, dtype=float)
        self.radius = float(radius)
        self.tol = tol
        h = manifold.metric(self.x0)
        self._chol = np.linalg.cholesky(h)          # h = L L^T
        self._frame = np.linalg.inv(self._chol).T   # columns: orthonormal basis
        self._cache = {}

    @property
    def frame(self):
        """Columns e_i with e_i^T h(x0) e_j = delta_ij."""
        return self._frame

    def to_normal(self, x):
        v = log_map(self.manifold, self.x0, np.asarray(x, dtype=float), tol=self.tol)
        return self._chol.T @ v

    def from_normal(self, y):
        y = np.asarray(y, dtype=float)
        key = tuple(np.round(y, 14))
        hit = self._cache.get(key)
        if hit is None:
            v = self._frame @ y
            hit = shoot(self.manifold, self.x0, v, 1.0, tol=self.tol)
            self._cache[key] = hit
        return hit

    def metric(self, y, step=None):
        """Pullback metric h^Y(y) = J^T h(x(y)) J with J = dx/dY by stencil, at
        points of shape (..., n); each point takes its own ODE solves."""
        y = np.asarray(y, dtype=float)
        if y.ndim > 1:
            flat = np.array([self.metric(p, step) for p in y.reshape(-1, y.shape[-1])])
            return flat.reshape(y.shape[:-1] + flat.shape[1:])
        s = step if step is not None else max(1e-4, 2e-3 * self.radius)
        jac = np.ascontiguousarray(partials(self.from_normal, y, s).T)
        h = self.manifold.metric(self.from_normal(y))
        return jac.T @ h @ jac

    def pullback_manifold(self, fd_step=1e-2):
        from .manifolds import ChartDomain

        dom = ChartDomain.box((-self.radius,) * self.manifold.dim,
                              (self.radius,) * self.manifold.dim)
        return ManifoldSpec(self.manifold.dim, self.metric, fd_step=fd_step,
                            domain=dom, name=f"{self.manifold.name}:normal",
                            injectivity_hint=self.manifold.injectivity_hint)


def normal_chart(manifold, x0, radius=None, tol=1e-11):
    """Normal-coordinate chart transform at x0 (radius gated by trust radius)."""
    gate = manifold.trust_radius(x0)
    if radius is None:
        radius = gate if math.isfinite(gate) else 1.0
    elif math.isfinite(gate) and radius > gate:
        raise ValueError(f"radius {radius} exceeds trust radius {gate:.4g}")
    return NormalChart(manifold, x0, radius, tol=tol)
