"""Geodesic-expansion calculus with brute-force numerical verification.

Modules mirror the pipeline: finite-difference stencils and the periodic
lattice (stencils), chart-level geometry (manifolds), exact and
truncated geodesics with their group operations (geodesics), Haar-measure
densities and lattice Jacobian checks (haar), discretized immersions with
extrinsic geometry (immersions), the diffeomorphism action on deviation
fields (deviations), and the functional measures, Faddeev-Popov determinant
and gauge-fixed integrand (measures).
"""

__version__ = "0.1.0"

from . import (convergence, deviations, geodesics, haar, immersions, manifolds, measures,
               stencils)
from .errors import GeodexpError

__all__ = [
    "__version__",
    "GeodexpError",
    "manifolds",
    "geodesics",
    "haar",
    "immersions",
    "deviations",
    "measures",
    "convergence",
    "stencils",
]
