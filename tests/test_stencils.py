"""The shared finite-difference module reproduces the per-caller stencil loops
and lattice formulas it replaced, bit for bit."""

import math

import numpy as np
import pytest

from geodexp import geodesics as gd
from geodexp import haar
from geodexp import immersions as im
from geodexp import manifolds as mf
from geodexp import suites
from geodexp.config import default_config
from geodexp.stencils import partials, second_partials

# Reference weights, written out here so the tests do not read the table
# they check.
W1 = {4: ((-2, 1 / 12.), (-1, -8 / 12.), (1, 8 / 12.), (2, -1 / 12.)),
      6: ((-3, -1 / 60.), (-2, 9 / 60.), (-1, -45 / 60.), (1, 45 / 60.),
          (2, -9 / 60.), (3, 1 / 60.))}
W2 = {4: ((-2, -1 / 12.), (-1, 16 / 12.), (0, -30 / 12.), (1, 16 / 12.), (2, -1 / 12.)),
      6: ((-3, 2 / 180.), (-2, -27 / 180.), (-1, 270 / 180.), (0, -490 / 180.),
          (1, 270 / 180.), (2, -27 / 180.), (3, 2 / 180.))}


def _ref_jacobian(fn, x, s):
    """[a, b] = d_b fn^a, one coordinate column at a time."""
    n = x.size
    out = np.empty((n, n))
    for b in range(n):
        acc = 0.0
        for off, wgt in W1[4]:
            xp = x.copy()
            xp[b] += off * s
            acc = acc + wgt * fn(xp)
        out[:, b] = acc / s
    return out


def _ref_hessian(fn, x, s):
    """[a, b, c] = d_b d_c fn^a."""
    n = x.size
    out = np.empty((n, n, n))
    for b in range(n):
        acc = 0.0
        for off, wgt in W2[4]:
            xp = x.copy()
            xp[b] += off * s
            acc = acc + wgt * fn(xp)
        out[:, b, b] = acc / (s * s)
    for b in range(n):
        for c in range(b + 1, n):
            acc = 0.0
            for offb, wb in W1[4]:
                for offc, wc in W1[4]:
                    xp = x.copy()
                    xp[b] += offb * s
                    xp[c] += offc * s
                    acc = acc + wb * wc * fn(xp)
            out[:, b, c] = out[:, c, b] = acc / (s * s)
    return out


def _ref_d_metric(M, x, s):
    n = M.dim
    out = np.empty((n, n, n))
    for c in range(n):
        acc = np.zeros((n, n))
        for off, wgt in W1[4]:
            xp = x.copy()
            xp[c] += off * s
            acc += wgt * M.metric(xp)
        out[c] = acc / s
    return out


def _ref_dd_metric(M, x, s):
    n = M.dim
    out = np.empty((n, n, n, n))
    for c in range(n):
        acc = np.zeros((n, n))
        for off, wgt in W2[4]:
            xp = x.copy()
            xp[c] += off * s
            acc += wgt * M.metric(xp)
        out[c, c] = acc / (s * s)
    for c in range(n):
        for d in range(c + 1, n):
            acc = np.zeros((n, n))
            for offc, wc in W1[4]:
                for offd, wd in W1[4]:
                    xp = x.copy()
                    xp[c] += offc * s
                    xp[d] += offd * s
                    acc += wc * wd * M.metric(xp)
            out[c, d] = out[d, c] = acc / (s * s)
    return out


def _same(a, b):
    return np.array_equal(a, b) and a.flags["C_CONTIGUOUS"] and a.dtype == b.dtype


_EXPR3 = mf.from_expression(3, [["1 + x1**2", "0.1*x0", "0"],
                                ["0.1*x0", "2", "0.2*x2"],
                                ["0", "0.2*x2", "1 + x0**2"]], name="expr3")
_POINTS = [(mf.sphere_normal(1.0), np.array([0.1, -0.2])),
           (mf.from_expression(2, [["1", "0"], ["0", "sin(x0)**2"]]), np.array([1.1, 0.4])),
           (_EXPR3, np.array([0.3, -0.2, 0.5]))]


@pytest.mark.parametrize("M, x", _POINTS)
def test_metric_derivatives_match_reference_loops(M, x):
    for s in (M.fd_step, 0.5 * M.fd_step):
        assert _same(partials(M.metric, x, s), _ref_d_metric(M, x, s))
        assert _same(second_partials(M.metric, x, s), _ref_dd_metric(M, x, s))
    assert _same(M.d_metric(x), _ref_d_metric(M, x, M.fd_step))
    assert _same(M.dd_metric(x), _ref_dd_metric(M, x, M.fd_step))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_field_derivatives_match_reference_loops(n):
    F = mf.VectorField(lambda y: np.array([math.sin(y[i]) * (i + 1) + y[(i + 1) % n] ** 2
                                           for i in range(n)]))
    x = np.linspace(0.2, 0.7, n)
    assert _same(F.jacobian(x, 1e-3), _ref_jacobian(F, x, 1e-3))
    assert _same(F.hessian(x, 1e-3), _ref_hessian(F, x, 1e-3))


def test_normal_chart_metric_matches_reference_loop():
    M = mf.sphere(1.0)
    chart = gd.normal_chart(M, np.array([1.2, 0.3]), radius=0.2)
    y = np.array([0.03, -0.05])
    s = max(1e-4, 2e-3 * chart.radius)
    jac = _ref_jacobian(chart.from_normal, y, s)
    ref = jac.T @ M.metric(chart.from_normal(y)) @ jac
    assert _same(chart.metric(y), ref)


def _ref_roll(field, weights, axis, scale):
    out = np.zeros_like(field)
    for off, wgt in weights:
        out += wgt * np.roll(field, -off, axis=axis)
    return out / scale


@pytest.mark.parametrize("points", [8, 12, (8, 12)])
def test_field_grid_layout_matches_old_formulas(points):
    S = mf.sphere_normal(1.0)
    center, half = np.array([0.01, -0.02]), np.array([0.6, 0.5])
    g = haar.FieldGrid(S, center, half, points)
    pts = np.broadcast_to(np.asarray(points), (2,))
    spacing = tuple(2.0 * w / p for w, p in zip(half, pts))
    assert g.spacing == spacing
    assert g.weight == float(np.prod(spacing))
    for i in range(2):
        ref = center[i] - half[i] + (np.arange(pts[i]) + 0.5) * spacing[i]
        assert np.array_equal(g.axes[i], ref)
    V = np.sin(3.0 * g.coords())
    for axis in range(2):
        assert np.array_equal(g.deriv(V, axis), _ref_roll(V, W1[4], axis, spacing[axis]))


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("shape, kw", [((32,), {}),
                                       ((16, 24), {"offsets": (0.5, 0.0)}),
                                       ((20, 12), {"periods": (3.0, 5.0)})])
def test_parameter_grid_layout_matches_old_formulas(order, shape, kw):
    g = im.ParameterGrid(shape, fd_order=order, **kw)
    periods = kw.get("periods", (2.0 * math.pi,) * len(shape))
    offsets = kw.get("offsets", (0.0,) * len(shape))
    spacing = tuple(p / s for p, s in zip(periods, shape))
    assert g.spacing == spacing
    for i, s in enumerate(shape):
        assert np.array_equal(g.axes[i], (np.arange(s) + offsets[i]) * spacing[i])
    V = np.cos(2.0 * g.coords()) + 0.3
    for a in range(len(shape)):
        da = _ref_roll(V, W1[order], a, spacing[a])
        assert np.array_equal(g.deriv(V, a), da)
        for b in range(len(shape)):
            ref = (_ref_roll(V, W2[order], a, spacing[a] * spacing[a]) if a == b
                   else _ref_roll(da, W1[order], b, spacing[b]))
            assert np.array_equal(g.deriv2(V, a, b), ref)


def test_immersion_rejects_three_axis_grid():
    grid = im.ParameterGrid((8, 8, 8))
    with pytest.raises(ValueError):
        im.Immersion(grid, mf.euclidean(4), np.zeros((8, 8, 8, 4)))


def test_expand3_sweep_builds_no_background(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an expand3 sweep built a Background")

    monkeypatch.setattr(suites.dv, "Background", forbidden)
    rows, fit = suites.sweep(default_config(), "expand3_sphere")
    assert rows[-1][0] == "slope" and abs(fit.slope - 4.0) <= 0.3
