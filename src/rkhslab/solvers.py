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
from scipy.linalg import cho_factor, cho_solve, eigh

from .kernels import SpectralKernel, gram_matrix
from .operators import (
    NotInPowerSpace,
    TruncatedOperatorModel,
    _coefficient_solution,
    gamma_norm_sq,
)

__all__ = [
    "SingularGram",
    "SampleSet",
    "DualSolution",
    "ridge_fit",
    "min_norm_fit",
    "predict",
    "estimator_l2_coefficients",
    "operator_rep_check",
    "gamma_error_sq",
    "rkhs_norm_sq",
]

# jitter of the one retry of a singular lambda = 0 fit, times the largest Gram eigenvalue
RETRY_JITTER = 1e-12


class SingularGram(np.linalg.LinAlgError):
    """Gram matrix not factorizable at lambda = 0 (near-duplicate points)."""

    def __init__(self, cond: float):
        super().__init__(f"singular Gram matrix, condition estimate {cond:.3e}")
        self.cond = cond


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
    """Dual coefficients of a fit, with the regularization actually used."""

    kernel: SpectralKernel
    X: np.ndarray
    alpha: np.ndarray
    lambda_used: float
    jitter_used: float = 0.0

    @property
    def interpolating(self) -> bool:
        return self.lambda_used == 0.0 and self.jitter_used == 0.0


def ridge_fit(
    kernel: SpectralKernel, s: SampleSet, lam: float, jitter: float = 0.0
) -> DualSolution:
    """Solve (K(X, X) + n lambda I + jitter I) alpha = Y.

    At lambda = jitter = 0 a failed Cholesky factorization raises
    :class:`SingularGram` with a condition-number diagnostic; the caller may
    retry with jitter (see :func:`min_norm_fit`).  A regularized system that
    Cholesky rejects is solved with eigenvalues clipped at eps times the largest.
    """
    # a negated inclusion, so that NaN fails it too
    if not (lam >= 0 and jitter >= 0):
        raise ValueError("lambda and jitter must be nonnegative")
    A = gram_matrix(kernel, s.X)
    A.flat[:: s.n + 1] += s.n * lam + jitter
    diag = A.diagonal().copy()
    try:
        # A is exactly symmetric, so A.T is the Fortran-ordered array LAPACK
        # factors in place, with no copy of the n x n matrix
        alpha = cho_solve(cho_factor(A.T, lower=True, overwrite_a=True), s.Y)
    except np.linalg.LinAlgError:
        # the factorization wrote over the diagonal and upper triangle of A
        # only; the eigensolvers below read the lower triangle
        np.fill_diagonal(A, diag)
        if lam == 0.0 and jitter == 0.0:
            w = np.linalg.eigvalsh(A)
            cond = np.inf if w[0] <= 0 else w[-1] / w[0]
            raise SingularGram(cond) from None
        w, Q = eigh(A)
        w = np.maximum(w, np.max(w) * np.finfo(float).eps)
        alpha = Q @ ((Q.T @ s.Y) / w)
    return DualSolution(kernel=kernel, X=s.X, alpha=alpha, lambda_used=lam, jitter_used=jitter)


def min_norm_fit(kernel: SpectralKernel, s: SampleSet) -> DualSolution:
    """Minimum-norm interpolant, with one jittered retry on a singular Gram matrix.

    The retry never raises :class:`SingularGram`: with jitter > 0,
    :func:`ridge_fit` falls back to its clipped eigendecomposition.  Its
    solution is not an interpolant, and ``jitter_used`` flags it.
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


def operator_rep_check(
    d: DualSolution, m: TruncatedOperatorModel, s: SampleSet, lam: float
) -> float:
    """Max coefficient discrepancy between the dual and operator representations.

    The fit's coordinates in the orthonormal basis (sqrt(mu_i) e_i) are
    computed once from alpha and once as (1/n) sum_i y_i (C_emp + lam)^{-1}
    psi(x_i); the two agree up to solver tolerance.
    """
    w_dual = m.psi.T @ d.alpha
    U, e, W = _coefficient_solution(m, lam)
    w_op = W.T @ (e * (U.T @ s.Y)) / m.n
    return float(np.max(np.abs(w_dual - w_op)))


def gamma_error_sq(d: DualSolution, f_star_coeffs, gamma: float) -> float:
    """Squared gamma-norm error sum mu_i^(-gamma) (c_i - b_i)^2.

    ``f_star_coeffs`` are the L2 coefficients of the target, padded with
    zeros up to the truncation length.
    """
    spec = d.kernel.spectrum
    b = np.zeros(spec.size)
    f_star = np.asarray(f_star_coeffs, dtype=float)
    if len(f_star) > spec.size:
        raise ValueError("target coefficients longer than the truncation")
    b[: len(f_star)] = f_star
    # validate the target is in the power space before differencing
    gamma_norm_sq(b, spec, gamma)
    c = estimator_l2_coefficients(d)
    return gamma_norm_sq(c - b, spec, gamma)


def rkhs_norm_sq(d: DualSolution) -> float:
    """|| f ||^2 in the hypothesis space, sum c_i^2 / mu_i = alpha^T K(X, X) alpha."""
    return gamma_norm_sq(estimator_l2_coefficients(d), d.kernel.spectrum, 1.0)
