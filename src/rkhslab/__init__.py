"""Numerical laboratory for minimum-norm kernel interpolation in spectral RKHSs.

Subpackages:

* :mod:`rkhslab.spectra` -- eigenvalue sequences, effective dimension,
  embedding index and norms from the decay law, predicted exponents.
* :mod:`rkhslab.kernels` -- explicit Mercer kernels (cosine basis, dot-product
  kernels on spheres via Gegenbauer polynomials, the ReLU tangent kernel).
* :mod:`rkhslab.operators` -- truncated covariance models, gamma-norms, and
  the variance functionals V, V1, V2 by two independent routes.
* :mod:`rkhslab.solvers` -- ridge regression and minimum-norm interpolation.
* :mod:`rkhslab.harness` -- seeded Monte Carlo experiments with CSV/JSON
  reports; CLI in :mod:`rkhslab.cli`.

The package's public names are exactly those in the ``__all__`` of these
modules, re-exported here.
"""

from .fitting import *
from .kernels import *
from .operators import *
from .solvers import *
from .spectra import *
from .harness import *

__version__ = "0.1.0"
