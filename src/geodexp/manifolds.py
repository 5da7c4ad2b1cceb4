"""Finite-dimensional Riemannian chart kernel.

A manifold is described by a single chart: a metric function over chart
coordinates, an optional pair of analytic derivative functions, and a box
domain with optional periodic identifications.  Everything downstream
(Christoffel symbols, Riemann and Ricci tensors, covariant derivatives of
vector fields) is assembled either from the analytic derivatives or from
4th-order central finite differences of the metric.

Index conventions
-----------------
Christoffel symbols ``gamma[a, b, c]`` = Gamma^a_{bc} (symmetric in b, c).
Riemann tensor ``riemann[a, b, c, d]`` = R^a_{bcd}
    = d_c Gamma^a_{bd} - d_d Gamma^a_{bc}
      + Gamma^a_{ce} Gamma^e_{bd} - Gamma^a_{de} Gamma^e_{bc},
Ricci ``ricci[a, b]`` = R^c_{acb}.  With this sign the unit 2-sphere has
Ricci = +h and the Poincare half-plane Ricci = -h.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, SignatureViolationError
from .stencils import partials, second_partials

__all__ = [
    "ChartDomain",
    "ManifoldSpec",
    "CurvatureBundle",
    "VectorField",
    "constant_field",
    "covariant_derivative",
    "euclidean",
    "sphere",
    "poincare_half_plane",
    "flat_torus",
    "from_expression",
    "builtin_manifold",
]

@dataclass(frozen=True)
class ChartDomain:
    """Box domain with optional periodic identification per coordinate.

    ``lower[i] = -inf`` / ``upper[i] = +inf`` mark unbounded axes.  A
    periodic axis wraps by its period; containment is then automatic.
    """

    lower: tuple
    upper: tuple
    periodic: tuple

    @staticmethod
    def box(lower, upper, periodic=None):
        n = len(lower)
        periodic = tuple(periodic) if periodic is not None else (False,) * n
        return ChartDomain(tuple(float(l) for l in lower),
                           tuple(float(u) for u in upper), periodic)

    @staticmethod
    def unbounded(dim):
        return ChartDomain((-math.inf,) * dim, (math.inf,) * dim, (False,) * dim)

    def outside(self, x, margin=0.0):
        """Mask, broadcasting over the points of x (shape (..., n)), of those
        outside the box shrunk by ``margin``; periodic axes never count."""
        xt = np.asarray(x, dtype=float).T      # coordinate first
        bad = np.False_
        for i, periodic in enumerate(self.periodic):
            if not periodic:
                bad = bad | ~((self.lower[i] + margin <= xt[i]) & (xt[i] <= self.upper[i] - margin))
        return bad.T

    def contains(self, x, margin=0.0):
        """True when every point of x, shape (..., n), lies inside."""
        return not self.outside(x, margin).any()

    def clearance(self, x):
        """Smallest distance from the points x, shape (..., n), to a
        non-periodic boundary (inf if none)."""
        xt = np.asarray(x, dtype=float).T
        gaps = [math.inf]
        for i, periodic in enumerate(self.periodic):
            if not periodic:
                gaps += [np.min(xt[i] - self.lower[i]), np.min(self.upper[i] - xt[i])]
        return float(min(gaps))


def christoffel_from(h_inv, dh):
    """Gamma^a_{bc} = 1/2 h^{ad} (d_b h_dc + d_c h_db - d_d h_bc), with
    ``dh[..., c, a, b] = d_c h_ab``, over any leading point axes."""
    first = np.einsum("...ad,...bdc->...abc", h_inv, dh)
    # the h^{ad} d_c h_db term is ``first`` with b and c exchanged
    return 0.5 * (first + first.swapaxes(-2, -1)
                  - np.einsum("...ad,...dbc->...abc", h_inv, dh))


def dchristoffel_from(h_inv, dh, ddh):
    """d_c Gamma^a_{bd} indexed [..., c, a, b, d] by the chain rule, with
    ``ddh[..., c, d, a, b] = d_c d_d h_ab``, over any leading point axes; sums
    accumulate in place, in the written order, to spare whole-grid temporaries."""
    # d_c h^{ae} = -h^{af} (d_c h_fg) h^{ge}
    dh_inv = -np.einsum("...af,...cfg,...ge->...cae", h_inv, dh, h_inv)
    # bracket_{e b d} = d_b h_ed + d_d h_eb - d_e h_bd
    bracket = np.einsum("...bed->...ebd", dh) + np.einsum("...deb->...ebd", dh) - dh
    # d_c bracket_{e b d} = dd_{cb} h_ed + dd_{cd} h_eb - dd_{ce} h_bd
    dbracket = np.einsum("...cbed->...cebd", ddh) + np.einsum("...cdeb->...cebd", ddh)
    dbracket -= ddh
    out = np.einsum("...cae,...ebd->...cabd", dh_inv, bracket)
    out += np.einsum("...ae,...cebd->...cabd", h_inv, dbracket)
    out *= 0.5
    return out


def riemann_from(gamma, dgamma):
    """R^a_{bcd} = d_c Gamma^a_{bd} - d_d Gamma^a_{bc} + Gamma^a_{ce} Gamma^e_{bd}
    - Gamma^a_{de} Gamma^e_{bc} over any leading point axes, accumulated in
    place in that order."""
    riemann = np.einsum("...cabd->...abcd", dgamma) - np.einsum("...dabc->...abcd", dgamma)
    riemann += np.einsum("...ace,...ebd->...abcd", gamma, gamma)
    riemann -= np.einsum("...ade,...ebc->...abcd", gamma, gamma)
    return riemann


def series_terms(gamma, dgamma, v):
    """Second- and third-order geodesic-expansion increments over any leading
    point axes, -1/2 Gamma v v and 1/6 (-d Gamma + 2 Gamma Gamma) v v v, with
    ``dgamma[..., d, a, b, c] = d_d Gamma^a_{bc}``; the third is None when
    ``dgamma`` is."""
    second = -0.5 * np.einsum("...abc,...b,...c->...a", gamma, v, v)
    if dgamma is None:
        return second, None
    coeff = (-np.einsum("...dabc->...abcd", dgamma)
             + 2.0 * np.einsum("...ade,...ebc->...abcd", gamma, gamma))
    third = np.einsum("...abcd,...b,...c,...d->...a", coeff, v, v, v) / 6.0
    return second, third


def group_product(v1, v2, d1, d2, riemann):
    """Third-order group product over any leading point axes,

        v1 + v2 + v1.D v2 + 1/2 v1 v1 DD v2 + 1/3 R^a_{bcd} (v2 + v1/2)^b v2^c v1^d,

    with ``d1[..., a, b] = nabla_b v2^a`` and ``d2[..., a, b, c]`` = nabla_c
    nabla_b v2^a (or its symmetrization), all taken at the base point."""
    return (v1 + v2
            + np.einsum("...b,...ab->...a", v1, d1)
            + 0.5 * np.einsum("...b,...c,...abc->...a", v1, v1, d2)
            + np.einsum("...abcd,...b,...c,...d->...a", riemann,
                        v2 + 0.5 * v1, v2, v1) / 3.0)


@dataclass(frozen=True)
class CurvatureBundle:
    """Connection and curvature of a metric at chart points, shape (..., n)."""

    point: np.ndarray
    gamma: np.ndarray     # Gamma^a_{bc}
    dgamma: np.ndarray    # d_c Gamma^a_{bd}, indexed [c, a, b, d]
    riemann: np.ndarray   # R^a_{bcd}
    ricci: np.ndarray     # R_{ab} = R^c_{acb}

    def riemann_lower(self, h):
        """R_{abcd} = h_{ae} R^e_{bcd}."""
        return np.einsum("...ae,...ebcd->...abcd", h, self.riemann)


class ManifoldSpec:
    """Chart with a metric field and derived geometric quantities.

    Every method takes points of shape (..., n) and broadcasts over the
    leading axes; a single point, shape (n,), is a batch of one.

    Parameters
    ----------
    dim : int
        Chart dimension n.
    metric_fn : callable
        Map from coordinates of shape (..., n) to symmetric matrices of shape
        (..., n, n); a one-point function serves single-point calls only.
    d_metric_fn, dd_metric_fn : callable, optional
        Analytic first/second metric derivatives over the same point axes:
        ``d_metric_fn(x)[..., c, a, b]`` = d_c h_ab and
        ``dd_metric_fn(x)[..., c, d, a, b]`` = d_c d_d h_ab.  When absent,
        central finite differences of ``metric_fn`` are used.
    fd_step : float
        Finite-difference step in chart units.
    domain : ChartDomain
        Chart domain; stencils and geodesics must stay inside it.
    injectivity_hint : float, optional
        Known lower bound on the injectivity radius (used for trust radii).
    """

    def __init__(self, dim, metric_fn, d_metric_fn=None, dd_metric_fn=None,
                 fd_step=1e-3, domain=None, name="manifold",
                 injectivity_hint=None):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        if fd_step <= 0:
            raise ValueError("fd_step must be positive")
        self.dim = int(dim)
        self.metric_fn = metric_fn
        self.d_metric_fn = d_metric_fn
        self.dd_metric_fn = dd_metric_fn
        self.fd_step = float(fd_step)
        self.domain = domain if domain is not None else ChartDomain.unbounded(dim)
        self.name = name
        self.injectivity_hint = injectivity_hint

    # -- basic metric access -------------------------------------------------

    def _first(self, x, bad):
        """The first point of x, in C order, where the mask ``bad`` is set."""
        return x.reshape(-1, self.dim)[int(np.argmax(bad))]

    def require_inside(self, x, stencil=False):
        margin = 2.5 * self.fd_step if stencil else 0.0
        x = np.asarray(x, dtype=float)
        bad = self.domain.outside(x, margin=margin)
        if bad.any():
            what = "finite-difference stencil" if stencil else "point"
            raise ChartDomainError(
                f"{self.name}: {what} leaves chart domain at "
                f"{tuple(float(c) for c in self._first(x, bad))}")

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        h = np.asarray(self.metric_fn(x), dtype=float)
        if not np.isfinite(h).all():
            bad = ~np.isfinite(h).all(axis=(-2, -1))
            raise ChartDomainError(
                f"{self.name}: metric not finite at {tuple(self._first(x, bad))}")
        return 0.5 * (h + h.swapaxes(-1, -2))

    def metric_at(self, x):
        """Metric matrices and log|det h| via Cholesky factorization (a float
        for one point, an array over the point axes of a batch).

        Raises
        ------
        SignatureViolationError
            If a matrix is not positive-definite, naming the first such point.
        """
        x = np.asarray(x, dtype=float)
        self.require_inside(x)
        h = self.metric(x)
        try:
            chol = np.linalg.cholesky(h)
        except np.linalg.LinAlgError as exc:
            bad = ~(np.linalg.eigvalsh(h) > 0.0).all(axis=-1)
            raise SignatureViolationError(self._first(x, bad), str(exc)) from None
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        return h, (float(logdet) if x.ndim == 1 else logdet)

    def inverse_metric(self, x):
        return np.linalg.inv(self.metric(x))

    def norm(self, x, v):
        """Metric norm of contravariant vectors v at x."""
        h = self.metric(x)
        norm = np.sqrt(np.einsum("...a,...ab,...b->...", v, h, v))
        return float(norm) if norm.ndim == 0 else norm

    # -- metric derivatives --------------------------------------------------

    def d_metric(self, x):
        """d_c h_ab as an (..., n, n, n) array (index order c, a, b)."""
        x = np.asarray(x, dtype=float)
        if self.d_metric_fn is not None:
            return np.asarray(self.d_metric_fn(x), dtype=float)
        self.require_inside(x, stencil=True)
        return partials(self.metric, x, self.fd_step)

    def dd_metric(self, x):
        """d_c d_d h_ab as an (..., n, n, n, n) array, symmetric in (c, d)."""
        x = np.asarray(x, dtype=float)
        if self.dd_metric_fn is not None:
            return np.asarray(self.dd_metric_fn(x), dtype=float)
        self.require_inside(x, stencil=True)
        return second_partials(self.metric, x, self.fd_step)

    # -- connection and curvature ---------------------------------------------

    def christoffel(self, x):
        """Gamma^a_{bc} at x."""
        return christoffel_from(self.inverse_metric(x), self.d_metric(x))

    def d_christoffel(self, x):
        """d_c Gamma^a_{bd} indexed [..., c, a, b, d].

        Assembled by the chain rule from first and second metric derivatives,
        so its accuracy tracks the underlying derivative source.
        """
        return dchristoffel_from(self.inverse_metric(x), self.d_metric(x),
                                 self.dd_metric(x))

    def curvature_at(self, x):
        """Connection and curvature bundle at the points x.

        Uses analytic metric derivatives when supplied, else 4th-order central
        differences.
        """
        x = np.asarray(x, dtype=float)
        self.require_inside(x, stencil=self.d_metric_fn is None)
        h_inv = self.inverse_metric(x)
        dh, ddh = self.d_metric(x), self.dd_metric(x)
        gamma = christoffel_from(h_inv, dh)
        dgamma = dchristoffel_from(h_inv, dh, ddh)
        riemann = riemann_from(gamma, dgamma)
        ricci = np.einsum("...cacb->...ab", riemann)
        return CurvatureBundle(point=x, gamma=gamma, dgamma=dgamma,
                               riemann=riemann, ricci=ricci)

    def trust_radius(self, x=None):
        """Default expansion gate: half the injectivity-radius estimate."""
        r = self.injectivity_hint if self.injectivity_hint is not None else math.inf
        if x is not None:
            c = self.domain.clearance(x)
            r = min(r, c) if math.isfinite(c) else r
        return 0.5 * r if math.isfinite(r) else math.inf


class VectorField:
    """Chart-coordinate vector field with finite-difference derivatives.

    ``fn`` maps one coordinate array, shape (n,), to contravariant
    components.  Called on points of shape (..., n), the field evaluates
    ``fn`` point by point; that is the one loop over chart points that
    sampling a field, and its Jacobian and Hessian, need.  Partial
    derivatives come from 4th-order central differences with step ``step``
    (default: the manifold's fd_step at call time); covariant derivatives are
    assembled with independently computed Christoffel symbols.
    """

    def __init__(self, fn, step=None):
        self.fn = fn
        self.step = step

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.asarray(self.fn(x), dtype=float)
        vals = np.array([self.fn(p) for p in x.reshape(-1, x.shape[-1])], dtype=float)
        return vals.reshape(x.shape[:-1] + vals.shape[1:])

    def _step(self, manifold):
        return self.step if self.step is not None else manifold.fd_step

    def jacobian(self, x, step):
        """d_b v^a indexed [..., a, b]."""
        return np.ascontiguousarray(np.swapaxes(partials(self, x, step), -2, -1))

    def hessian(self, x, step):
        """d_b d_c v^a indexed [..., a, b, c] (symmetric in b, c)."""
        return np.ascontiguousarray(np.moveaxis(second_partials(self, x, step), -1, -3))


class _ConstantField(VectorField):
    """Promotion of a bare vector: chart-constant components, exact derivatives."""

    def __init__(self, components):
        self.components = np.asarray(components, dtype=float)
        if self.components.ndim != 1:
            raise TypeError("constant field components must form one vector")
        super().__init__(lambda x: self.components)

    def __call__(self, x):
        return np.broadcast_to(self.components,
                               np.shape(x)[:-1] + self.components.shape).copy()

    def jacobian(self, x, step):
        n = self.components.size
        return np.zeros(np.shape(x)[:-1] + (n, n))

    def hessian(self, x, step):
        n = self.components.size
        return np.zeros(np.shape(x)[:-1] + (n, n, n))


def constant_field(components):
    """VectorField with chart-constant components (bare-vector promotion)."""
    return _ConstantField(components)


def as_field(v):
    """A VectorField as given, or bare components promoted by constant_field."""
    return v if isinstance(v, VectorField) else constant_field(v)


def covariant_derivative(manifold, v, x, order=1, curvature=None):
    """First or second covariant derivative of a vector field at the points x.

    Returns ``D[..., a, b] = nabla_b v^a`` for order 1 and
    ``DD[..., a, b, c] = nabla_c nabla_b v^a`` for order 2 (derivative
    indices appended to the right, outermost derivative last).  A
    ``curvature`` bundle, when given, must be the one at x: its Gamma and
    dGamma enter.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    x = np.asarray(x, dtype=float)
    if not isinstance(v, VectorField):
        raise TypeError("v must be a VectorField (promote bare vectors with constant_field)")
    step = v._step(manifold)
    cb = curvature if curvature is not None else manifold.curvature_at(x)
    val = v(x)
    jac = v.jacobian(x, step)
    nabla = jac + np.einsum("...abc,...c->...ab", cb.gamma, val)
    if order == 1:
        return nabla
    hess = v.hessian(x, step)
    # d_c (nabla_b v^a) = d_c d_b v^a + (d_c Gamma^a_{bd}) v^d + Gamma^a_{bd} d_c v^d
    dnabla = (hess
              + np.einsum("...cabd,...d->...abc", cb.dgamma, val)
              + np.einsum("...abd,...dc->...abc", cb.gamma, jac))
    # nabla_c T^a_b = d_c T^a_b + Gamma^a_{cd} T^d_b - Gamma^d_{cb} T^a_d
    return (dnabla
            + np.einsum("...acd,...db->...abc", cb.gamma, nabla)
            - np.einsum("...dcb,...ad->...abc", cb.gamma, nabla))


# -- builtin manifolds ---------------------------------------------------------


# Builtin metric functions broadcast over leading point axes.  Powers go
# through np.float_power, which is libm pow, as Python's scalar ``**`` is;
# ndarray ``**`` squares by multiplication and takes other powers from a
# vector routine, and both round some values differently.


def _flat(dim):
    """Identity metric with zero derivatives, as broadcast views."""
    return tuple((lambda x, a=a: np.broadcast_to(a, np.shape(x)[:-1] + a.shape))
                 for a in (np.eye(dim), np.zeros((dim,) * 3), np.zeros((dim,) * 4)))


def euclidean(dim=2):
    """Flat R^n in Cartesian coordinates (n <= 4)."""
    if not 1 <= dim <= 4:
        raise ValueError("euclidean builtin supports 1 <= dim <= 4")
    h, dh, ddh = _flat(dim)
    return ManifoldSpec(dim, h, d_metric_fn=dh, dd_metric_fn=ddh, name=f"euclidean{dim}")


def sphere(radius=1.0, collar=0.1):
    """Round 2-sphere of given radius in (theta, phi) coordinates.

    The chart excludes a polar collar: theta in [collar, pi - collar].
    """
    r2 = float(radius) ** 2

    def h(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 0] = r2
        out[..., 1, 1] = r2 * np.float_power(np.sin(x[..., 0]), 2)
        return out

    def dh(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = r2 * np.sin(2.0 * x[..., 0])
        return out

    def ddh(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2))
        out[..., 0, 0, 1, 1] = 2.0 * r2 * np.cos(2.0 * x[..., 0])
        return out

    domain = ChartDomain.box((collar, -math.inf), (math.pi - collar, math.inf),
                             periodic=(False, True))
    return ManifoldSpec(2, h, d_metric_fn=dh, dd_metric_fn=ddh, domain=domain,
                        name=f"sphere(r={radius})",
                        injectivity_hint=math.pi * float(radius))


# math.hypot element by element: np.hypot rounds about one value in 200
# differently
_hypot = np.frompyfunc(math.hypot, 2, 1)


def sphere_normal(radius=1.0, extent=None):
    """Round 2-sphere in Riemannian normal coordinates about a point.

    h(Y) = P + (R sin(r/R)/r)^2 (I - P) with r = |Y| and P the radial
    projector; evaluated through sinc so the origin is regular.  Numerically
    identical to the pullback chart produced by ``normal_chart`` on the
    (theta, phi) sphere; shipped in closed form because lattice checks
    evaluate it densely.
    """
    R = float(radius)
    ext = 0.45 * math.pi * R if extent is None else float(extent)
    eye = np.eye(2)

    def h(y):
        r = np.asarray(_hypot(y[..., 0], y[..., 1]), dtype=float)
        f = np.float_power(np.sinc(r / (math.pi * R)), 2)[..., None, None]
        origin = (r < 1e-12)[..., None, None]
        P = y[..., :, None] * y[..., None, :] / np.where(origin, 1.0, (r * r)[..., None, None])
        return np.where(origin, eye, P + f * (eye - P))

    domain = ChartDomain.box((-ext, -ext), (ext, ext))
    return ManifoldSpec(2, h, fd_step=5e-3, domain=domain,
                        name=f"sphere_normal(r={radius})",
                        injectivity_hint=math.pi * R)


def poincare_half_plane(y_min=0.05):
    """Hyperbolic upper half-plane, metric (dx^2 + dy^2) / y^2."""

    def h(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0 / (x[..., 1] * x[..., 1])
        return out

    def dh(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        out[..., 1, 0, 0] = out[..., 1, 1, 1] = -2.0 / np.float_power(x[..., 1], 3)
        return out

    def ddh(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2))
        out[..., 1, 1, 0, 0] = out[..., 1, 1, 1, 1] = 6.0 / np.float_power(x[..., 1], 4)
        return out

    domain = ChartDomain.box((-math.inf, y_min), (math.inf, math.inf))
    return ManifoldSpec(2, h, d_metric_fn=dh, dd_metric_fn=ddh, domain=domain,
                        name="poincare_half_plane")


def flat_torus(dim=2, period=2.0 * math.pi):
    """Flat torus: identity metric with periodic identification."""
    periods = (period,) * dim if np.isscalar(period) else tuple(period)
    domain = ChartDomain.box((0.0,) * dim, periods, periodic=(True,) * dim)
    h, dh, ddh = _flat(dim)
    return ManifoldSpec(dim, h, d_metric_fn=dh, dd_metric_fn=ddh,
                        domain=domain, name=f"flat_torus{dim}",
                        injectivity_hint=0.5 * min(periods))


_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh",
                "tanh", "arcsin", "arccos", "arctan", "abs")}
_EXPR_NAMES["pi"] = math.pi
_EXPR_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
             ast.UAdd, ast.USub)


def _is_arithmetic(node, dim):
    """True when the expression tree uses only numeric literals, arithmetic,
    ``x0 .. x{dim-1}``, ``x[i]`` with a literal i, ``pi`` and calls of the
    ``_EXPR_NAMES`` functions."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, _EXPR_OPS) and _is_arithmetic(node.left, dim)
                and _is_arithmetic(node.right, dim))
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, _EXPR_OPS) and _is_arithmetic(node.operand, dim)
    if isinstance(node, ast.Name):
        return node.id == "pi" or node.id in {f"x{i}" for i in range(dim)}
    if isinstance(node, ast.Subscript):
        index = node.slice
        return (isinstance(node.value, ast.Name) and node.value.id == "x"
                and isinstance(index, ast.Constant) and type(index.value) is int
                and 0 <= index.value < dim)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and callable(_EXPR_NAMES.get(node.func.id))
                and not node.keywords
                and all(_is_arithmetic(arg, dim) for arg in node.args))
    return False


def _compile_entry(text, a, b, dim):
    where = f"metric entry [{a}][{b}] {text!r}"
    if not isinstance(text, str):
        raise ValueError(f"{where}: expected an expression string")
    try:
        tree = ast.parse(text, f"<metric[{a}][{b}]>", mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"{where}: {exc.msg}") from None
    if not _is_arithmetic(tree.body, dim):
        raise ValueError(f"{where}: only numbers, arithmetic, x0..x{dim - 1}, x[i], "
                         f"pi and {', '.join(n for n in _EXPR_NAMES if n != 'pi')} "
                         "are allowed")
    return compile(ast.fix_missing_locations(_PowerCalls().visit(tree)),
                   f"<metric[{a}][{b}]>", "eval")


def _pow(a, b):
    """``a ** b`` rounded by libm pow, as scalar ``**`` is, also for arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.float_power(a, b)
    return a ** b


class _PowerCalls(ast.NodeTransformer):
    """Rewrites ``a ** b`` as ``_pow(a, b)``, so an entry rounds the same over
    coordinate arrays as over scalars."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], [])
        return node


def from_expression(dim, entries, fd_step=1e-3, lower=None, upper=None,
                    periodic=None, name="expression"):
    """Manifold whose metric entries are numeric expression strings.

    ``entries[a][b]`` is evaluated over points of shape (..., n) with the
    coordinate arrays bound to ``x0 .. x{n-1}`` (and to ``x[0] .. x[n-1]``)
    in a restricted numpy namespace; constant entries broadcast, and any
    other name, attribute or call raises ValueError.  Metric derivatives fall
    back to finite differences.
    """
    compiled = [[_compile_entry(entries[a][b], a, b, dim)
                 for b in range(dim)] for a in range(dim)]
    names = dict(_EXPR_NAMES, _pow=_pow)
    keys = [f"x{i}" for i in range(dim)]

    def h(x):
        # entries are elementwise, so they run over the reversed point axes
        # of x.T, where one point's coordinates are numpy scalars
        coords = list(np.asarray(x, dtype=float).T)
        env = dict(names, x=coords, **dict(zip(keys, coords)))
        out = np.empty(np.shape(x)[:-1] + (dim, dim))
        out_t = out.T
        for a in range(dim):
            for b in range(dim):
                out_t[b, a] = eval(compiled[a][b], {"__builtins__": {}}, env)
        return out

    if lower is None and upper is None and periodic is None:
        domain = ChartDomain.unbounded(dim)
    else:
        domain = ChartDomain.box(lower if lower is not None else (-math.inf,) * dim,
                                 upper if upper is not None else (math.inf,) * dim,
                                 periodic)
    return ManifoldSpec(dim, h, fd_step=fd_step, domain=domain, name=name)


def builtin_manifold(spec):
    """Construct a builtin manifold from a config mapping.

    Recognized ``builtin`` ids: euclidean, sphere, poincare_half_plane,
    flat_torus; or an ``expression`` block for metric-from-expression.
    """
    spec = dict(spec)
    if "expression" in spec:
        e = dict(spec["expression"])
        return from_expression(int(e["dim"]), e["entries"],
                               fd_step=float(e.get("fd_step", 1e-3)),
                               lower=e.get("lower"), upper=e.get("upper"),
                               periodic=e.get("periodic"),
                               name=e.get("name", "expression"))
    kind = spec.pop("builtin")
    if kind == "euclidean":
        return euclidean(int(spec.get("dim", 2)))
    if kind == "sphere":
        return sphere(radius=float(spec.get("radius", 1.0)),
                      collar=float(spec.get("collar", 0.1)))
    if kind == "poincare_half_plane":
        return poincare_half_plane(y_min=float(spec.get("y_min", 0.05)))
    if kind == "flat_torus":
        return flat_torus(dim=int(spec.get("dim", 2)),
                          period=spec.get("period", 2.0 * math.pi))
    raise ValueError(f"unknown builtin manifold '{kind}'")
