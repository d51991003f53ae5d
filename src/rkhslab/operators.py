"""Truncated coefficient-space operator models and variance functionals.

Everything lives in the orthonormal coordinates (sqrt(mu_i) e_i) of the
hypothesis space, where the population covariance is diag(mu) and the
empirical covariance built from a sample X is the rank-n matrix
(1/n) sum_k psi(x_k) psi(x_k)^T with psi_i(x) = sqrt(mu_i) e_i(x).

The conditional-variance functional

    V(lambda) = (1/n^2) sum_i || D^{(1-gamma)/2} (C_emp + lambda)^{-1} psi(x_i) ||^2

is computed by two independent routes: in coefficient space from the SVD
of psi through the QR triangle of psi^T, computed once per model and shared
by every lambda >= 0, and from one LU inverse of the regularized n x n Gram
matrix, whose condition number is bounded through its trace, with the
fractional-power kernel.  Its population approximations V1 (empirical
points, population covariance) and V2 (fully averaged closed form) have
diagonal closed forms.  Each functional answers one (gamma, lambda) point.
:func:`envelope_shape` is the shape of the predicted small-lambda lower
bound on V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import SpectralKernel, _features, gram_matrix
from .spectra import Spectrum, _check_count, _check_real, _check_reals, _variance_terms
from .spectra import effective_dimension, embedding_norm

__all__ = [
    "NotInPowerSpace",
    "SingularOperator",
    "IllConditionedGram",
    "TruncatedOperatorModel",
    "ConcentrationReport",
    "build_operator_model",
    "gamma_norm_sq",
    "v_lambda_coefficient_route",
    "v_lambda_gram_route",
    "v1_lambda",
    "v2_lambda",
    "norm_eq_check",
    "operator_rep_check",
    "envelope_shape",
    "concentration_trial",
]

# relative singular-value cutoff for the lambda = 0 pseudo-inverse
RANK_CUTOFF = 1e-12
# largest condition number of G/n + lambda I the Gram route accepts; below the trace bound
# (tr(G)/n + lambda) / lambda the route trusts the solve without an eigensolve
COND_LIMIT = 1e14
# rows of W below this fraction of s[0] are re-orthogonalized; above, eps s[0] / s <= 2e-12
REORTH_CUTOFF = 1e-4


class NotInPowerSpace(ArithmeticError):
    """Coefficients carry mass where the power-space weight overflows."""


class SingularOperator(np.linalg.LinAlgError):
    """Empirical covariance not invertible on the needed subspace at lambda = 0."""


class IllConditionedGram(np.linalg.LinAlgError):
    """Regularized Gram matrix too ill-conditioned to trust the solve."""


@dataclass(frozen=True)
class TruncatedOperatorModel:
    """Coefficient map psi of a sample and, on first use, its SVD factors U, s, W."""

    kernel: SpectralKernel
    psi: np.ndarray  # n x M, rows are psi(x_k)

    @property
    def n(self) -> int:
        return len(self.psi)

    @property
    def mu(self) -> np.ndarray:
        return self.kernel.spectrum.mu

    @property
    def C_emp(self) -> np.ndarray:
        """Empirical covariance (1/n) sum psi psi^T, M x M, formed on each access."""
        return self.psi.T @ self.psi / self.n

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # psi = U W, shared by every lambda and gamma: psi^T = Q R and R = P diag(s) Vr give
        # U = Vr^T and W = Vr psi = diag(s) (Q P)^T without forming Q, and R is never squared
        R = np.linalg.qr(self.psi.T, mode="r")
        _, s, Vr = np.linalg.svd(R, full_matrices=False)
        W = Vr @ self.psi
        # a row far below s[0] errs by about eps s[0] along the leading rows, which would
        # dominate V near lambda = 0: project that off
        j = np.searchsorted(-s, -REORTH_CUTOFF * s[0])
        W[j:] -= (W[j:] @ W[:j].T / s[:j] ** 2) @ W[:j]
        return Vr.T, s, W

    @cached_property
    def _e_sq_sums(self) -> np.ndarray:
        # sum_i e_l(x_i)^2 = sum_i psi_{il}^2 / mu_l per mode l, shared by every lambda and gamma
        return np.einsum("kl,kl->l", self.psi, self.psi) / self.mu


def build_operator_model(kernel: SpectralKernel, X) -> TruncatedOperatorModel:
    """Assemble the rows psi(x_k) of the sample; the kernel rejects an empty or multi-axis X."""
    psi = _features(kernel, X, 1.0)
    return TruncatedOperatorModel(kernel=kernel, psi=psi)


def gamma_norm_sq(c, s: Spectrum, gamma: float) -> float:
    """Squared gamma-norm sum mu_i^(-gamma) c_i^2 of L2 coefficients c."""
    gamma = _check_real("gamma", gamma, "[0, 1]")
    c = _check_reals("coefficient", c, "(-inf, inf)", NotInPowerSpace)
    if c.ndim != 1 or len(c) > s.size:
        raise ValueError(f"need at most {s.size} coefficients on one axis (got shape {c.shape})")
    w = s.mu[: len(c)]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = w ** (-gamma) * c**2
        # an overflowing weight times a square that underflows to 0 is NaN: scale c first
        bad = ~np.isfinite(terms)
        terms[bad] = (np.abs(c[bad]) * w[bad] ** (-gamma / 2.0)) ** 2
    if not np.all(np.isfinite(terms)):
        raise NotInPowerSpace("nonzero coefficients where the weight overflows")
    return float(np.sum(terms))


def _coefficient_solution(m: TruncatedOperatorModel, lam: float):
    """Factors U, e, W of Z = W.T @ diag(e) @ U.T, columns z_i = (C_emp + lambda)^{-1} psi(x_i).

    With psi = U W, the rows of W orthogonal with norms s, e = 1 / (s^2/n + lambda) for every
    lambda >= 0; W is never divided by s, so Z stays finite at a zero singular value.
    """
    lam = _check_real("lambda", lam, "[0, inf)")
    U, svals, W = m._svd
    if lam == 0:
        # the inverse on the span of {psi(x_k)} needs n singular values above the cutoff
        rank = np.count_nonzero(svals > svals[0] * RANK_CUTOFF)
        if rank < m.n:
            raise SingularOperator(f"empirical rank {rank} < n = {m.n} at lambda = 0")
    return U, 1.0 / (svals**2 / m.n + lam), W


def v_lambda_coefficient_route(m: TruncatedOperatorModel, gamma: float, lam: float) -> float:
    """V(lambda) evaluated in coefficient space, from the model's one factorization."""
    gamma = _check_real("gamma", gamma, "[0, 1]")
    _, e, W = _coefficient_solution(m, lam)
    row_sq = np.einsum("kl,kl,k->l", W, W, e**2)  # sum of Z**2 over sample points, per mode
    return float(np.sum(m.mu ** (1.0 - gamma) * row_sq)) / m.n**2


def v_lambda_gram_route(kernel: SpectralKernel, X, gamma: float, lam: float) -> float:
    """V(lambda) through the n x n Gram matrix.

    With G = K(X, X) and A = G/n + lambda I, returns
    (1/n^2) tr(A^{-1} K2 A^{-1}) where K2 is the Gram matrix of the
    fractional-power kernel with exponent 2 - gamma, as the Frobenius product
    <A^{-1}, K2 A^{-1}> from one LU inverse of A.  G is positive semidefinite,
    so the condition number of A is at most (tr(G)/n + lambda) / lambda; only
    when that bound exceeds COND_LIMIT are A's eigenvalues computed to decide.
    Algebraically identical to the coefficient route in the truncated model.
    """
    lam = _check_real("lambda", lam, "[0, inf)")
    gamma = _check_real("gamma", gamma, "[0, 1]")
    A = gram_matrix(kernel, X)
    n = len(A)
    A /= n
    # the trace bound on the condition number, without dividing by lambda = 0
    bound_exceeded = np.trace(A) + lam > COND_LIMIT * lam
    A.flat[:: n + 1] += lam
    if bound_exceeded:
        w = np.linalg.eigvalsh(A)
        cond = np.inf if w[0] <= 0 else w[-1] / w[0]
        if cond > COND_LIMIT:
            raise IllConditionedGram(f"condition number estimate {cond:.3e}")
    A_inv = np.linalg.inv(A)
    K2 = gram_matrix(kernel, X, power=2.0 - gamma)
    return float(np.vdot(A_inv, K2 @ A_inv)) / n**2


def v1_lambda(m: TruncatedOperatorModel, gamma: float, lam: float) -> float:
    """Population-covariance approximation of V at the sampled points."""
    lam = _check_real("lambda", lam, "(0, inf)")
    gamma = _check_real("gamma", gamma, "[0, 1]")
    return float(np.sum(_variance_terms(m.mu, gamma, lam) * m._e_sq_sums)) / m.n**2


def v2_lambda(s: Spectrum, gamma: float, lam: float, n: int) -> float:
    """Closed form (1/n) sum mu_i^(2-gamma) / (mu_i + lambda)^2."""
    lam = _check_real("lambda", lam, "(0, inf)")
    _check_count("n", n)
    gamma = _check_real("gamma", gamma, "[0, 1]")
    return float(np.sum(_variance_terms(s.mu, gamma, lam))) / n


def envelope_shape(s: Spectrum, gamma: float, lam, n: int) -> float | np.ndarray:
    """lambda^-(gamma + 1/beta) log(1/lambda)^-zeta / n under the law (beta, zeta) of s."""
    lam = _check_reals("lambda", lam, "(0, inf)")
    _check_count("n", n)
    gamma = _check_real("gamma", gamma, "[0, 1]")
    log_factor = np.where(lam < 1.0, np.log(1.0 / lam), 1.0)  # the log factor is 1 at lambda >= 1
    with np.errstate(over="ignore", invalid="ignore"):  # a shape above the float range is inf
        shape = lam ** (-gamma - 1.0 / s.beta) * log_factor ** (-s.zeta) / n
        # one factor overflowing while the other underflows gives inf * 0: take logs instead
        logs = np.exp(-(gamma + 1.0 / s.beta) * np.log(lam) - s.zeta * np.log(log_factor)) / n
    return np.where(np.isfinite(shape), shape, logs)[()]


def norm_eq_check(kernel: SpectralKernel, f_coeffs_H, gamma: float) -> float:
    """Residual between the gamma-norm of [f] and || D^{(1-gamma)/2} f ||.

    ``f_coeffs_H`` are coordinates of f in the orthonormal basis
    (sqrt(mu_i) e_i); equality is exact in the truncated model for gamma < 1.
    """
    w = _check_reals("coefficient", f_coeffs_H, "(-inf, inf)")
    s = kernel.spectrum
    gamma_norm_sq(np.zeros(w.shape), s, gamma)  # checks gamma and the shape before the products
    lhs = np.sqrt(gamma_norm_sq(w * np.sqrt(s.mu[: len(w)]), s, gamma))
    rhs = float(np.linalg.norm(s.mu[: len(w)] ** ((1.0 - gamma) / 2.0) * w))
    return abs(lhs - rhs)


def operator_rep_check(
    d: "DualSolution", m: TruncatedOperatorModel, s: "SampleSet", lam: float
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


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical check of the operator-norm and |V1 - V2| concentration bounds."""

    m_alpha: float
    b_nu_lambda: float
    operator_norm_bound: float
    v1_v2_bound: float
    operator_norm_satisfied: float  # fraction of trials
    v1_v2_satisfied: float
    operator_norm_median: float
    v1_v2_median: float
    target_probability: float  # 1 - 2 exp(-tau)


def _operator_norm_statistic(m: TruncatedOperatorModel, lam: float) -> float:
    """|| (C + lam)^{-1/2} (C - C_emp) (C + lam)^{-1/2} || with diagonal C."""
    # scipy.sparse is imported here, its only use, to keep it out of the package import
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    mu = m.mu
    d = mu / (mu + lam)
    B = m.psi / np.sqrt(mu + lam)
    n = m.n

    def matvec(v):
        v = np.asarray(v).ravel()
        return d * v - B.T @ (B @ v) / n

    # Lanczos needs more than one mode; the dense norm also covers its non-convergence
    if len(mu) > 1:
        op = LinearOperator((len(mu), len(mu)), matvec=matvec, dtype=float)
        try:
            return float(abs(eigsh(op, k=1, which="LM", return_eigenvectors=False, tol=1e-8)[0]))
        except ArpackNoConvergence:
            pass
    A = np.diag(d) - B.T @ B / n
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def concentration_trial(
    kernel: SpectralKernel,
    n: int,
    lam: float,
    alpha: float,
    tau: float,
    trials: int,
    rng_seed: int,
    gamma: float = 0.0,
) -> ConcentrationReport:
    """Monte Carlo frequencies of the concentration bounds over draws of X.

    Per trial the report measures (a) the whitened operator-norm deviation of
    the empirical covariance against its high-probability bound and (b)
    |V1 - V2| against sqrt(tau) M_alpha^2 / (sqrt(2) n^{3/2} lam^{gamma+alpha}).
    """
    tau = _check_real("tau", tau, "[1, inf)")
    _check_count("trials", trials)
    spec = kernel.spectrum
    v2 = v2_lambda(spec, gamma, lam, n)  # checks lambda, n and gamma before they enter the bounds
    m_alpha = embedding_norm(kernel, alpha)
    n_eff = effective_dimension(spec, lam)
    mu1 = float(spec.mu[0])
    b_nu = float(np.log(2.0 * np.e * n_eff * (mu1 + lam) / mu1))
    op_bound = (
        4.0 * m_alpha**2 * tau * b_nu / (3.0 * n * lam**alpha)
        + np.sqrt(2.0 * m_alpha**2 * tau * b_nu / (n * lam**alpha))
    )
    v_bound = np.sqrt(tau) * m_alpha**2 / (np.sqrt(2.0) * n**1.5 * lam ** (gamma + alpha))

    rng = np.random.default_rng(rng_seed)
    op_stats, v_stats = np.empty(trials), np.empty(trials)
    for i in range(trials):
        m = build_operator_model(kernel, rng.random(n))
        op_stats[i] = _operator_norm_statistic(m, lam)
        v_stats[i] = abs(v1_lambda(m, gamma, lam) - v2)
    return ConcentrationReport(
        m_alpha=m_alpha,
        b_nu_lambda=b_nu,
        operator_norm_bound=float(op_bound),
        v1_v2_bound=float(v_bound),
        operator_norm_satisfied=float(np.mean(op_stats <= op_bound)),
        v1_v2_satisfied=float(np.mean(v_stats <= v_bound)),
        operator_norm_median=float(np.median(op_stats)),
        v1_v2_median=float(np.median(v_stats)),
        target_probability=float(1.0 - 2.0 * np.exp(-tau)),
    )
