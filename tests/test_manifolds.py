import math

import numpy as np
import pytest
from pytest import approx

from geodexp import manifolds as mf
from geodexp.errors import ChartDomainError, SignatureViolationError


def test_metric_at_euclidean(euclid2):
    h, logdet = euclid2.metric_at(np.array([0.3, -0.7]))
    assert np.allclose(h, np.eye(2))
    assert logdet == 0.0


def test_metric_at_sphere(sphere):
    x = np.array([math.pi / 3, 0.2])
    h, logdet = sphere.metric_at(x)
    assert np.allclose(h, np.diag([1.0, 0.75]))
    assert logdet == approx(math.log(0.75))


def test_metric_at_poincare(poincare):
    h, _ = poincare.metric_at(np.array([0.0, 2.0]))
    assert np.allclose(h, np.diag([0.25, 0.25]))


def test_signature_violation_names_point():
    bad = mf.ManifoldSpec(2, lambda x: np.diag([1.0, -1.0]), name="bad")
    with pytest.raises(SignatureViolationError) as err:
        bad.metric_at(np.array([0.5, 0.25]))
    assert err.value.point == (0.5, 0.25)


def test_domain_error_outside_collar(sphere):
    with pytest.raises(ChartDomainError):
        sphere.metric_at(np.array([ 0.01, 0.0]))


def test_curvature_flat_space():
    for n in (2, 3):
        cb = mf.euclidean(n).curvature_at(np.zeros(n))
        assert np.abs(cb.gamma).max() == 0.0
        assert np.abs(cb.riemann).max() == 0.0


def test_curvature_sphere_examples(sphere):
    x = np.array([math.pi / 2, 0.3])
    cb = sphere.curvature_at(x)
    h = sphere.metric(x)
    assert np.abs(cb.ricci - h).max() < 1e-12
    assert cb.gamma[0, 1, 1] == approx(0.0, abs=1e-12)  # equator
    x2 = np.array([1.0, 0.3])
    cb2 = sphere.curvature_at(x2)
    assert cb2.gamma[0, 1, 1] == approx(-math.sin(1.0) * math.cos(1.0))


def test_curvature_poincare(poincare):
    x = np.array([0.4, 1.7])
    cb = poincare.curvature_at(x)
    assert np.abs(cb.ricci + poincare.metric(x)).max() < 1e-12


def test_curvature_bundle_invariants(sphere, poincare):
    for M, x in ((sphere, np.array([1.2, 0.5])), (poincare, np.array([0.3, 2.2]))):
        cb = M.curvature_at(x)
        h = M.metric(x)
        rl = cb.riemann_lower(h)
        tol = 10.0 * M.fd_step ** 2 * max(1.0, np.abs(rl).max())
        assert np.abs(cb.gamma - np.swapaxes(cb.gamma, 1, 2)).max() < 1e-12
        assert np.abs(rl + np.einsum("abdc->abcd", rl)).max() < tol
        assert np.abs(rl + np.einsum("bacd->abcd", rl)).max() < tol
        bianchi = (cb.riemann + np.einsum("acdb->abcd", cb.riemann)
                   + np.einsum("adbc->abcd", cb.riemann))
        assert np.abs(bianchi).max() < tol
        assert np.abs(cb.ricci - np.einsum("cacb->ab", cb.riemann)).max() < 1e-14


def test_curvature_bundle_dgamma_is_d_christoffel(sphere, poincare):
    polar = mf.from_expression(2, [["1", "0"], ["0", "x0**2"]], name="polar",
                               lower=(0.2, -10.0), upper=(5.0, 10.0))
    for M, x in ((sphere, np.array([1.2, 0.5])), (poincare, np.array([0.3, 2.2])),
                 (polar, np.array([1.5, 0.3]))):
        assert np.array_equal(M.curvature_at(x).dgamma, M.d_christoffel(x))


def test_metric_compatibility_all_builtins():
    # nabla_c h_ab assembled from Gamma vanishes at sampled points
    rng = np.random.Generator(np.random.PCG64(4))
    cases = [(mf.euclidean(2), (-1.0, 1.0)), (mf.sphere(1.0), (0.5, 1.5)),
             (mf.poincare_half_plane(), (0.5, 1.5)), (mf.flat_torus(2), (0.5, 1.5)),
             (mf.sphere_normal(1.0), (-0.5, 0.5))]
    for M, (lo, hi) in cases:
        for _ in range(3):
            x = rng.uniform(lo, hi, size=2)
            h = M.metric(x)
            dh = M.d_metric(x)
            gam = M.christoffel(x)
            nabla_h = (dh - np.einsum("dca,db->cab", gam, h)
                       - np.einsum("dcb,ad->cab", gam, h))
            assert np.abs(nabla_h).max() < 5e-8


def test_fd_convergence_factor():
    # pure finite-difference path against the analytic sphere derivatives;
    # steps large enough that truncation dominates roundoff
    ana = mf.sphere(1.0)
    x = np.array([1.1, 0.4])
    errs = []
    for step in (8e-2, 4e-2):
        fd = mf.ManifoldSpec(2, ana.metric_fn, fd_step=step, domain=ana.domain)
        err = np.abs(fd.curvature_at(x).riemann - ana.curvature_at(x).riemann).max()
        errs.append(err)
    assert errs[0] / errs[1] >= 12.0


def test_chart_covariance_under_rescaling(sphere):
    # x -> 2x with the correspondingly transformed metric reproduces tensors
    x = np.array([1.1, 0.4])
    scaled = mf.ManifoldSpec(2, lambda y: sphere.metric(y / 2.0) / 4.0,
                             fd_step=1e-3)
    cb = sphere.curvature_at(x)
    cbs = scaled.curvature_at(2.0 * x)
    # Gamma^a_{bc} maps to Gamma/2, R^a_{bcd} to R/4 under x -> 2x
    assert np.abs(2.0 * cbs.gamma - cb.gamma).max() < 1e-7
    assert np.abs(4.0 * cbs.riemann - cb.riemann).max() < 1e-6


def test_covariant_derivative_examples(euclid2, sphere):
    x = np.array([0.4, -0.2])
    const = mf.constant_field(np.array([1.0, 2.0]))
    assert np.abs(mf.covariant_derivative(euclid2, const, x, 1)).max() == 0.0

    rot = mf.VectorField(lambda p: np.array([-p[1], p[0]]), step=1e-4)
    grad = mf.covariant_derivative(euclid2, rot, x, 1)
    assert np.allclose(grad, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-9)
    assert np.trace(grad) == approx(0.0, abs=1e-9)

    xs = np.array([1.1, 0.4])
    vals = np.array([0.3, -0.5])
    grad_s = mf.covariant_derivative(sphere, mf.constant_field(vals), xs, 1)
    cb = sphere.curvature_at(xs)
    assert np.allclose(grad_s, np.einsum("abc,c->ab", cb.gamma, vals), atol=1e-12)


def test_second_covariant_derivative_ricci_identity(sphere):
    # [nabla_c, nabla_b] v^a = R^a_{dcb} v^d ties the second derivative
    # machinery to the independently assembled curvature
    x = np.array([1.0, 0.5])
    fld = mf.VectorField(lambda p: np.array([np.sin(p[1]), np.cos(p[0])]),
                         step=1e-4)
    dd = mf.covariant_derivative(sphere, fld, x, 2)
    comm = dd - np.swapaxes(dd, 1, 2)
    cb = sphere.curvature_at(x)
    expected = np.einsum("adcb,d->abc", cb.riemann, fld(x))
    assert np.abs(comm - expected).max() < 1e-10


def test_expression_manifold():
    M = mf.from_expression(2, [["1", "0"], ["0", "x0**2"]], name="polar",
                           lower=(0.2, -10.0), upper=(5.0, 10.0))
    x = np.array([1.5, 0.3])
    assert np.allclose(M.metric(x), np.diag([1.0, 2.25]))
    cb = M.curvature_at(x)   # flat space in polar coordinates
    assert np.abs(cb.riemann).max() < 1e-8
    assert cb.gamma[1, 0, 1] == approx(1.0 / 1.5, abs=1e-8)


def test_sphere_normal_matches_closed_form():
    S = mf.sphere_normal(1.0)
    y = np.array([0.25, -0.1])
    r = np.linalg.norm(y)
    P = np.outer(y, y) / r ** 2
    exact = P + (math.sin(r) ** 2 / r ** 2) * (np.eye(2) - P)
    assert np.abs(S.metric(y) - exact).max() < 1e-12
    cb = S.curvature_at(y)
    assert np.abs(cb.ricci - exact).max() < 1e-9


def test_builtin_manifold_from_config():
    M = mf.builtin_manifold({"builtin": "sphere", "radius": 2.0})
    assert M.metric(np.array([math.pi / 2, 0.0]))[1, 1] == approx(4.0)
    E = mf.builtin_manifold({"expression": {
        "dim": 2, "entries": [["1", "0"], ["0", "1"]]}})
    assert np.allclose(E.metric(np.zeros(2)), np.eye(2))
    with pytest.raises(ValueError):
        mf.builtin_manifold({"builtin": "nope"})


def test_expression_entries_are_vetted():
    escape = "().__class__.__base__.__subclasses__().__len__()*0+1"
    with pytest.raises(ValueError, match=r"metric entry \[0\]\[0\]"):
        mf.from_expression(2, [[escape, "0"], ["0", "1"]])
    for bad in ("x", "x[2]", "__import__('os')", "sin(x0, out=x)", "x0 if 1 else 2", "1 +", 1):
        with pytest.raises(ValueError, match=r"metric entry \[1\]\[1\]"):
            mf.from_expression(2, [["1", "0"], ["0", bad]])
    M = mf.from_expression(2, [["1 + x1**2", "0.1*x0"], ["0.1*x0", "sin(x0)**2"]])
    x = np.array([1.1, 0.4])
    assert np.array_equal(M.metric(x), [[1 + 0.4 ** 2, 0.1 * 1.1],
                                        [0.1 * 1.1, np.sin(1.1) ** 2]])


def _polar():
    return mf.from_expression(2, [["1", "0"], ["0", "x0**2"]],
                              lower=(0.5, -10.0), upper=(3.0, 10.0), name="polar")


def _expr3():
    return mf.from_expression(3, [["1 + x1**2", "0.1*x0", "0"],
                                  ["0.1*x0", "2", "0.2*x2"],
                                  ["0", "0.2*x2", "1 + x0**2"]], name="expr3")


# (manifold, low corner, high corner) of a box inside the chart domain,
# including the finite-difference stencil margin
_BATCH_CASES = {
    "euclidean3": (lambda: mf.euclidean(3), (-1.0,) * 3, (1.0,) * 3),
    "sphere": (lambda: mf.sphere(1.0), (0.3, -3.0), (2.8, 3.0)),
    "poincare": (lambda: mf.poincare_half_plane(), (-1.0, 0.3), (1.0, 2.0)),
    "flat_torus": (lambda: mf.flat_torus(2), (0.0, 0.0), (6.0, 6.0)),
    "sphere_normal": (lambda: mf.sphere_normal(1.0), (-1.0, -1.0), (1.0, 1.0)),
    "polar": (_polar, (0.8, -2.0), (2.5, 2.0)),
    "expr3": (_expr3, (-0.5,) * 3, (0.5,) * 3),
}


@pytest.mark.parametrize("name", sorted(_BATCH_CASES))
def test_batch_equals_stacked_points(name):
    make, lo, hi = _BATCH_CASES[name]
    M = make()
    X = np.random.default_rng(2024).uniform(lo, hi, size=(5, 7, M.dim))
    cb = M.curvature_at(X)
    h, logdet = M.metric_at(X)
    gamma = M.christoffel(X)
    for idx in np.ndindex(5, 7):
        one = M.curvature_at(X[idx])
        for field in ("point", "gamma", "dgamma", "riemann", "ricci"):
            assert np.array_equal(getattr(cb, field)[idx], getattr(one, field)), field
        h1, logdet1 = M.metric_at(X[idx])
        assert np.array_equal(h[idx], h1) and logdet[idx] == logdet1
        assert np.array_equal(gamma[idx], M.christoffel(X[idx]))
    n = M.dim
    assert one.gamma.shape == (n,) * 3 and one.dgamma.shape == (n,) * 4
    assert one.riemann.shape == (n,) * 4 and one.ricci.shape == (n, n)
    assert h1.shape == (n, n) and type(logdet1) is float
    assert cb.riemann.shape == (5, 7) + (n,) * 4 and logdet.shape == (5, 7)


def test_batch_domain_error_names_first_outside_point():
    M = mf.sphere(1.0, collar=0.1)
    X = np.random.default_rng(3).uniform((0.5, -1.0), (2.5, 1.0), size=(4, 6, 2))
    X[1, 2] = (0.05, 0.25)
    X[3, 0] = (3.1, 0.5)
    for call in (M.curvature_at, M.metric_at):
        with pytest.raises(ChartDomainError, match=r"at \(0\.05, 0\.25\)"):
            call(X)
    assert not M.domain.contains(X)
    assert M.domain.contains(X[0])
    P = _polar()
    X = np.full((3, 2), 1.5)
    X[2, 0] = 0.5 + 1e-3         # inside the domain, inside the stencil margin
    with pytest.raises(ChartDomainError, match=r"stencil leaves chart domain at \(0\.501, 1\.5\)"):
        P.curvature_at(X)


def test_expression_subscripts_bind_coordinates():
    by_name = mf.from_expression(2, [["1 + x1**2", "0.1*x0"], ["0.1*x0", "exp(x1)*x0"]])
    by_index = mf.from_expression(2, [["1 + x[1]**2", "0.1*x[0]"], ["0.1*x[0]", "exp(x[1])*x[0]"]])
    X = np.random.default_rng(5).uniform(0.2, 1.4, size=(3, 4, 2))
    assert np.array_equal(by_index.metric(X), by_name.metric(X))
    assert np.array_equal(by_index.metric(X[2, 1]), by_name.metric(X[2, 1]))
    assert np.array_equal(by_index.metric(X)[2, 1], by_index.metric(X[2, 1]))
