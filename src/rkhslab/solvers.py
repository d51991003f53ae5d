"""Kernel ridge regression and minimum-norm interpolation in dual form.

The fitted function is f(x) = sum_j alpha_j K(x, x_j) with
alpha = (K(X, X) + n lambda I)^{-1} Y; lambda = 0 gives the minimum-norm
interpolant.  Since the kernels here have explicit bases, the L2 coefficients
of the fit are available in closed form, which makes gamma-norm errors exact
Parseval sums rather than quadrature estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# about 0.3 s of the package import, kept: its in-place Cholesky is twice as fast as numpy's
from scipy.linalg import cho_factor, cho_solve

from .kernels import SpectralKernel, gram_matrix
from .operators import gamma_norm_sq

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
    """Paired inputs and responses."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_1d(np.asarray(self.X, dtype=float))
        Y = np.atleast_1d(np.asarray(self.Y, dtype=float))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if len(X) != len(Y):
            raise ValueError("X and Y must have the same length")
        if len(X) == 0:
            raise ValueError("need at least one sample")

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
    """Solve (K(X, X) + n lambda I + jitter I) alpha = Y by Cholesky.

    At lambda = jitter = 0 a failed factorization raises :class:`SingularGram`;
    the caller may retry with jitter (see :func:`min_norm_fit`).  Any other
    system that Cholesky rejects raises its ``LinAlgError``, which the
    harness counts as a failed replicate.
    """
    # a negated finite inclusion, so that NaN and inf fail it too
    if not (0 <= lam < np.inf and 0 <= jitter < np.inf):
        raise ValueError("lambda and jitter must be nonnegative")
    A = gram_matrix(kernel, s.X)
    A.flat[:: s.n + 1] += s.n * lam + jitter
    try:
        # A is exactly symmetric, so A.T is the Fortran-ordered array LAPACK
        # factors in place, with no copy of the n x n matrix
        alpha = cho_solve(cho_factor(A.T, lower=True, overwrite_a=True), s.Y)
    except np.linalg.LinAlgError:
        if lam == 0.0 and jitter == 0.0:
            raise SingularGram("singular Gram matrix at lambda = 0") from None
        raise
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
    scalar = np.isscalar(x)
    vals = d.kernel.basis_matrix(x) @ estimator_l2_coefficients(d)
    return float(vals[0]) if scalar else vals


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
    f_star = np.asarray(f_star_coeffs, dtype=float)
    # checks the target's length and that it lies in the power space
    gamma_norm_sq(f_star, d.kernel.spectrum, gamma)
    c = estimator_l2_coefficients(d)
    c[: len(f_star)] -= f_star
    return gamma_norm_sq(c, d.kernel.spectrum, gamma)
