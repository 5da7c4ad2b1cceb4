import numpy as np
import pytest

from geodexp import deviations as dv
from geodexp import immersions as im
from geodexp import manifolds as mf


@pytest.fixture
def curvature_calls(monkeypatch):
    """Point shapes of every ManifoldSpec.curvature_at call the test makes."""
    calls = []
    curvature_at = mf.ManifoldSpec.curvature_at

    def counting(self, x):
        calls.append(np.shape(x))
        return curvature_at(self, x)

    monkeypatch.setattr(mf.ManifoldSpec, "curvature_at", counting)
    return calls


@pytest.fixture(scope="session")
def sphere():
    return mf.sphere(1.0)


@pytest.fixture(scope="session")
def poincare():
    return mf.poincare_half_plane()


@pytest.fixture(scope="session")
def euclid2():
    return mf.euclidean(2)


@pytest.fixture(scope="session")
def circle_bg():
    """Circle background shared by the deviation/measure tests."""
    return dv.Background(im.circle_immersion(1.0, 192, fd_order=6))


@pytest.fixture(scope="session")
def sphere_bg():
    return dv.Background(im.sphere_immersion(1.0, 48, collar=0.5, fd_order=6))


@pytest.fixture(scope="session")
def circle_fields():
    dev = dv.random_fourier_spec((2 * np.pi,), 2, max_mode=2, amplitude=0.12, seed=11)
    eta = dv.random_fourier_spec((2 * np.pi,), 1, max_mode=2, amplitude=0.12, seed=7)
    return dev, eta
