"""Kernel ridge regression and minimum-norm interpolation in dual form.

The fitted function is f(x) = sum_j alpha_j K(x, x_j) with
alpha = (K(X, X) + n lambda I)^{-1} Y; lambda = 0 gives the minimum-norm
interpolant.  Since the kernels here have explicit bases, the L2 coefficients
of the fit are available in closed form, which makes gamma-norm errors exact
Parseval sums rather than quadrature estimates.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from .kernels import SpectralKernel, _check_domain, gram_matrix
from .operators import gamma_norm_sq
from .spectra import _check_real, _check_reals

__all__ = [
    "SingularGram",
    "SampleSet",
    "DualSolution",
    "ridge_fit",
    "min_norm_fit",
    "predict",
    "estimator_l2_coefficients",
    "gamma_error_sq",
]

# jitter of the one retry of a singular lambda = 0 fit, times the largest Gram eigenvalue
RETRY_JITTER = 1e-12


class SingularGram(np.linalg.LinAlgError):
    """Gram matrix not factorizable at lambda = 0 (near-duplicate points)."""


@dataclass(frozen=True)
class SampleSet:
    """Points that pass the kernels' point check (else DomainError), one response per point."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = _check_domain(self.X)
        Y = _check_reals("response", np.atleast_1d(self.Y), "(-inf, inf)")
        if Y.shape != X.shape:
            raise ValueError(f"need one response per point: Y has shape {Y.shape}, X {X.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class DualSolution:
    """Dual coefficients of a fit; ``jitter_used`` > 0 flags a jittered fit, not an interpolant."""

    kernel: SpectralKernel
    X: np.ndarray
    alpha: np.ndarray
    jitter_used: float = 0.0


def ridge_fit(
    kernel: SpectralKernel, s: SampleSet, lam: float, jitter: float = 0.0
) -> DualSolution:
    """Solve (K(X, X) + n lambda I + jitter I) alpha = Y by Cholesky (LAPACK ``dposv``).

    A system that is not finite raises ``ValueError``.  At lambda = jitter = 0
    a failed factorization raises :class:`SingularGram`; the caller may retry
    with jitter (see :func:`min_norm_fit`).  Any other system that Cholesky
    rejects raises ``LinAlgError``, which the harness counts as a failed
    replicate.
    """
    lam = _check_real("lambda", lam, "[0, inf)")
    jitter = _check_real("jitter", jitter, "[0, inf)")
    A = gram_matrix(kernel, s.X)
    A.flat[:: s.n + 1] += s.n * lam + jitter
    # A is exactly symmetric, so A.T is the Fortran-ordered array LAPACK
    # factors in place, with no copy of the n x n matrix
    _, alpha, info = _lapack().dposv(
        np.asarray_chkfinite(A.T), np.asarray_chkfinite(s.Y), lower=1, overwrite_a=1
    )
    if info > 0:
        if lam == 0.0 and jitter == 0.0:
            raise SingularGram("singular Gram matrix at lambda = 0")
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return DualSolution(kernel=kernel, X=s.X, alpha=alpha, jitter_used=jitter)


def min_norm_fit(kernel: SpectralKernel, s: SampleSet) -> DualSolution:
    """Minimum-norm interpolant, with one jittered retry on a singular Gram matrix.

    The retry adds RETRY_JITTER times the largest Gram eigenvalue to the
    diagonal, and ``jitter_used`` flags its non-interpolant.  A retry that
    Cholesky still rejects raises ``LinAlgError``.
    """
    try:
        return ridge_fit(kernel, s, 0.0)
    except SingularGram:
        sigma_max = float(np.linalg.eigvalsh(gram_matrix(kernel, s.X))[-1])
        return ridge_fit(kernel, s, 0.0, jitter=RETRY_JITTER * sigma_max)


def predict(d: DualSolution, x) -> float | np.ndarray:
    """Evaluate f(x) = sum_j alpha_j K(x, x_j) = sum_i c_i e_i(x)."""
    return (d.kernel.basis_matrix(x) @ estimator_l2_coefficients(d)).reshape(np.shape(x))[()]


def estimator_l2_coefficients(d: DualSolution) -> np.ndarray:
    """L2 coefficients c_i = mu_i sum_j alpha_j e_i(x_j) of the fit."""
    E = d.kernel.basis_matrix(d.X)
    return d.kernel.spectrum.mu * (E.T @ d.alpha)


def gamma_error_sq(d: DualSolution, f_star_coeffs, gamma: float) -> float:
    """Squared gamma-norm error sum mu_i^(-gamma) (c_i - b_i)^2.

    ``f_star_coeffs`` are the leading L2 coefficients b_i of the target, at
    most as many as the truncation; the others are zero.  With none and
    gamma = 1 this is the fit's squared norm in the hypothesis space.
    """
    f_star = _check_reals("f* coefficient", f_star_coeffs, "(-inf, inf)")
    gamma_norm_sq(f_star, d.kernel.spectrum, gamma)  # checks the shape and the power-space norm
    c = estimator_l2_coefficients(d)
    c[: len(f_star)] -= f_star
    return gamma_norm_sq(c, d.kernel.spectrum, gamma)


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module alone (5 ms, 3 MB), not ``scipy.linalg`` (0.2 s, 27 MB)."""
    import scipy  # its _distributor_init makes scipy's bundled OpenBLAS loadable

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    found = PathFinder.find_spec("_flapack", [where])
    if found is None:
        raise ImportError(f"scipy's compiled LAPACK module _flapack is not in {where}")
    spec = spec_from_file_location("rkhslab._flapack", found.origin)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
