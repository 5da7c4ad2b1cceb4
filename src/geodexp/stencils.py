"""Central finite differences: one stencil table, one periodic lattice, and
pointwise partial derivatives.

``D1``/``D2`` hold the central first/second derivative weights of accuracy
order 4 and 6 (Fornberg, Math. Comp. 51, 1988) as ``(offset, weight)``
pairs.  ``PeriodicLattice`` applies them with index wrap-around on a uniform
box lattice; Haar chart boxes and immersion parameter grids are both
instances.  ``partials``/``second_partials`` apply them at chart points, one
or a batch, of any array-valued function (metric derivatives, vector-field
Jacobians).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["D1", "D2", "PeriodicLattice", "partials", "second_partials"]

D1 = {
    4: ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)),
    6: ((-3, -1.0 / 60.0), (-2, 9.0 / 60.0), (-1, -45.0 / 60.0),
        (1, 45.0 / 60.0), (2, -9.0 / 60.0), (3, 1.0 / 60.0)),
}
D2 = {
    4: ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
        (1, 16.0 / 12.0), (2, -1.0 / 12.0)),
    6: ((-3, 2.0 / 180.0), (-2, -27.0 / 180.0), (-1, 270.0 / 180.0),
        (0, -490.0 / 180.0), (1, 270.0 / 180.0), (2, -27.0 / 180.0),
        (3, 2.0 / 180.0)),
}


def _moved(x, *moves):
    """Copy of x with ``x[..., axis] += delta`` for each ``(axis, delta)``."""
    xp = x.copy()
    for axis, delta in moves:
        xp.T[axis] += delta
    return xp


def partials(fn, x, step):
    """4th-order central d_c fn(x) for every coordinate c at the points x,
    shape (..., n); fn maps them to (..., *tail), and the derivative index
    follows the point axes: shape (..., n, *tail)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for c in range(x.shape[-1]):
        acc = 0.0
        for off, wgt in D1[4]:
            acc = acc + wgt * fn(_moved(x, (c, off * step)))
        cols.append(acc / step)
    return np.stack(cols, axis=x.ndim - 1)


def second_partials(fn, x, step):
    """4th-order central d_c d_d fn(x), symmetric in (c, d), at the points x:
    shape (..., n, n, *tail).  Diagonal entries use the D2 stencil, mixed
    ones the product of two D1 stencils."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = [[None] * n for _ in range(n)]
    for c in range(n):
        acc = 0.0
        for off, wgt in D2[4]:
            acc = acc + wgt * fn(_moved(x, (c, off * step)))
        out[c][c] = acc / (step * step)
    for c in range(n):
        for d in range(c + 1, n):
            acc = 0.0
            for offc, wc in D1[4]:
                for offd, wd in D1[4]:
                    acc = acc + wc * wd * fn(_moved(x, (c, offc * step),
                                                    (d, offd * step)))
            out[c][d] = out[d][c] = acc / (step * step)
    return np.stack([np.stack(row, axis=x.ndim - 1) for row in out], axis=x.ndim - 1)


class PeriodicLattice:
    """Uniform periodic lattice over a box (index arithmetic wraps).

    Axis i holds ``lower[i] + (k + offsets[i]) * periods[i] / shape[i]`` for
    k = 0 .. shape[i] - 1.  Fields are sampled as arrays of shape
    (*shape, ...tail); derivatives are central stencils of order
    ``fd_order`` (4 or 6).
    """

    def __init__(self, shape, periods=None, offsets=None, lower=None, fd_order=4):
        shape = (shape,) if np.isscalar(shape) else tuple(int(s) for s in shape)
        if fd_order not in D1:
            raise ValueError("fd_order must be 4 or 6")
        self.d = len(shape)
        self.shape = shape
        self.periods = (2.0 * math.pi,) * self.d if periods is None \
            else tuple(float(p) for p in periods)
        self.offsets = (0.0,) * self.d if offsets is None \
            else tuple(float(o) for o in offsets)
        self.lower = (0.0,) * self.d if lower is None \
            else tuple(float(lo) for lo in lower)
        self.fd_order = fd_order
        self.spacing = tuple(p / s for p, s in zip(self.periods, self.shape))
        self.axes = tuple(
            lo + (np.arange(s) + off) * dx
            for lo, s, off, dx in zip(self.lower, self.shape, self.offsets,
                                      self.spacing))

    @property
    def npoints(self):
        return int(np.prod(self.shape))

    @property
    def weight(self):
        """Per-point quadrature weight (product of spacings; the periodic
        trapezoid rule, exact for smooth periodic integrands)."""
        return float(np.prod(self.spacing))

    def coords(self):
        """Coordinate fields, shape (*shape, d)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def deriv(self, field, axis):
        """Periodic central first derivative along a lattice axis."""
        dx = self.spacing[axis]
        field = np.asarray(field, dtype=float)
        out = np.zeros_like(field)
        for off, wgt in D1[self.fd_order]:
            out += wgt * np.roll(field, -off, axis=axis)
        return out / dx

    def deriv2(self, field, axis_a, axis_b):
        """Periodic central second derivative (same or mixed axes)."""
        if axis_a == axis_b:
            dx = self.spacing[axis_a]
            field = np.asarray(field, dtype=float)
            out = np.zeros_like(field)
            for off, wgt in D2[self.fd_order]:
                out += wgt * np.roll(field, -off, axis=axis_a)
            return out / (dx * dx)
        return self.deriv(self.deriv(field, axis_a), axis_b)

    def gradient(self, field):
        """Stack of first derivatives, shape (*shape, d, ...field-tail)."""
        return np.stack([self.deriv(field, ax) for ax in range(self.d)], axis=self.d)

    def cov_vector(self, V, gamma):
        """nabla_b V^a of a lattice vector field -> [..., a, b], with the
        Christoffel field ``gamma[..., a, b, c]`` = Gamma^a_{bc}."""
        dV = self.gradient(V)               # (*s, b, a)
        return (np.einsum("...ba->...ab", dV)
                + np.einsum("...abc,...c->...ab", gamma, V))

    def cov2_vector_sym(self, V, gamma):
        """Symmetrized nabla_c nabla_b V^a -> [..., a, b, c]."""
        cov1 = self.cov_vector(V, gamma)    # (*s, a, b)
        dcov = self.gradient(cov1)          # (*s, c, a, b)
        out = (np.einsum("...cab->...abc", dcov)
               + np.einsum("...acd,...db->...abc", gamma, cov1)
               - np.einsum("...dcb,...ad->...abc", gamma, cov1))
        return 0.5 * (out + np.einsum("...acb->...abc", out))
