"""Eigenvalue sequences with power-law-times-log decay and spectrum-only quantities.

A :class:`Spectrum` holds a truncated non-increasing sequence of positive
eigenvalues mu_i sandwiched between constant multiples of (i (log i)^zeta)^(-beta).
All quantities here depend on the eigenvalues alone: effective dimension,
embedding norms M_alpha in closed form (the eigenfunctions evaluated at
x = 0 for the 1-d bases, per-degree multiplicities on the sphere) and the
numerical embedding index, predicted error-growth exponents, and the
small-lambda envelope of the closed-form variance sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import quad

from .fitting import fit_loglog_slope

__all__ = [
    "DivergentEmbedding",
    "Spectrum",
    "EmbeddingReport",
    "ExponentReport",
    "EnvelopeCurve",
    "make_power_law_spectrum",
    "effective_dimension",
    "embedding_norm",
    "estimate_alpha_star",
    "theoretical_exponent",
    "v2_envelope",
]

# Relative shrink of partial-sum increments required to declare a series
# convergent (Cauchy-tail criterion).
CAUCHY_EPS = 1e-6
# bisection width of the numerical embedding index
ALPHA_STAR_TOL = 1e-4


class DivergentEmbedding(ArithmeticError):
    """The embedding-norm series fails the convergence test (alpha <= alpha*)."""


@dataclass(frozen=True)
class Spectrum:
    """Truncated eigenvalue sequence mu_1 >= mu_2 >= ... > 0.

    ``envelope`` records the constants (c1, c2) such that
    c1 * (i (log i)^zeta)^(-beta) <= mu_i <= c2 * (...) for i >= 2, as realized
    by the construction.  ``tail_mass`` estimates the discarded mass
    sum_{i > M} mu_i.
    """

    mu: np.ndarray
    beta: float
    zeta: float
    tail_mass: float = 0.0
    envelope: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or len(mu) == 0:
            raise ValueError("mu must be a non-empty 1-d array")
        if not np.all(mu > 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(mu) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        if self.tail_mass < 0:
            raise ValueError("tail_mass must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.mu)

    def trace(self) -> float:
        """Total mass including the estimated tail (finite for bounded kernels)."""
        return float(np.sum(self.mu) + self.tail_mass)


def make_power_law_spectrum(beta: float, zeta: float = 0.0, M: int = 10_000) -> Spectrum:
    """Build mu_1 = 1, mu_i = (i (log i)^zeta)^(-beta) for i >= 2.

    For zeta < 0 the raw profile is not monotone at small i; a running minimum
    enforces the non-increasing convention without changing the asymptotics.
    The discarded tail is estimated by integral comparison.
    """
    if beta <= 1:
        raise ValueError(f"beta must exceed 1 (got {beta}); the trace may diverge")
    if M < 2:
        raise ValueError(f"M must be at least 2 (got {M})")
    i = np.arange(2, M + 1, dtype=float)
    raw = (i * np.log(i) ** zeta) ** (-beta)
    mu = np.minimum.accumulate(np.concatenate(([1.0], raw)))
    ratios = mu[1:] / raw
    # tail integral on a finite interval via x = M / u
    tail, _ = quad(
        lambda u: (M / u * math.log(M / u) ** zeta) ** (-beta) * M / u**2, 0.0, 1.0
    )
    return Spectrum(
        mu=mu,
        beta=beta,
        zeta=zeta,
        tail_mass=tail,
        envelope=(float(ratios.min()), float(ratios.max())),
    )


def effective_dimension(s: Spectrum, lam: float) -> float:
    """Trace of (C + lambda)^(-1) C, i.e. sum mu_i / (mu_i + lambda)."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive (got {lam})")
    return float(np.sum(s.mu / (s.mu + lam)))


def _increment_ratio(terms: np.ndarray) -> float:
    """Ratio of consecutive dyadic partial-sum increments of a term sequence.

    For terms ~ i^(-p) the ratio approaches 2^(1-p): strictly below 1 exactly
    when the series converges.
    """
    m = len(terms)
    if m < 8:
        # too short to resolve divergence; a truncated sum this small is finite
        return 0.0
    s1 = float(np.sum(terms[m // 4 : m // 2]))
    s2 = float(np.sum(terms[m // 2 :]))
    if s1 == 0.0:
        return 0.0
    return s2 / s1


def _series_converges(terms: np.ndarray) -> bool:
    return _increment_ratio(terms) < 1.0 - CAUCHY_EPS


@dataclass(frozen=True)
class EmbeddingReport:
    """Sup-norm of the weighted eigenfunction square sum at a given power alpha."""

    alpha: float
    m_alpha: float
    method: str  # closed_form_cosine | closed_form_circle | closed_form_sphere

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _embedding_terms(kernel_spec, alpha: float):
    """Per-index terms of the embedding series and the method label.

    * a dot-product spectrum on the sphere gives sum_k a_k^alpha N(d, k);
    * a spectral kernel attains the sup at x = 0 for both of its bases: every
      cosine mode squares to its maximum there, and each circle sine mode,
      which vanishes at 0, pairs with a cosine mode of larger eigenvalue.
    """
    if hasattr(kernel_spec, "a") and hasattr(kernel_spec, "d"):
        terms = kernel_spec.a**alpha * kernel_spec.multiplicities()
        return terms, "closed_form_sphere"
    method = "closed_form_" + kernel_spec.basis.split("_")[0]  # cosine | circle
    e0_sq = kernel_spec.basis_matrix(0.0)[0] ** 2
    # the sine modes add nothing at 0; leaving them out indexes the tail test by frequency
    return (kernel_spec.spectrum.mu**alpha * e0_sq)[e0_sq > 0], method


def estimate_alpha_star(kernel_spec) -> float:
    """Numerical embedding index: bisect on alpha over series convergence.

    The infimum itself may or may not be attained; this returns the smallest
    alpha (within ``ALPHA_STAR_TOL``) at which the truncated series passes the
    Cauchy-tail test.
    """
    def converges(a: float) -> bool:
        return _series_converges(_embedding_terms(kernel_spec, a)[0])

    if not converges(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > ALPHA_STAR_TOL:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            hi = mid
        else:
            lo = mid
    # the index can never fall below 1/beta when the decay rate is known
    beta = getattr(getattr(kernel_spec, "spectrum", None), "beta", None)
    if beta is not None:
        hi = max(hi, 1.0 / beta)
    return hi


def embedding_norm(kernel_spec, alpha: float) -> EmbeddingReport:
    """Embedding operator norm M_alpha of the alpha-power space into sup norm.

    Raises :class:`DivergentEmbedding` when the defining series fails the
    convergence test, signalling alpha <= alpha*.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1] (got {alpha})")
    terms, method = _embedding_terms(kernel_spec, alpha)
    if not _series_converges(terms):
        raise DivergentEmbedding(
            f"embedding series diverges at alpha={alpha} "
            f"(increment ratio {_increment_ratio(terms):.6f})"
        )
    return EmbeddingReport(alpha=alpha, m_alpha=float(np.sqrt(np.sum(terms))), method=method)


@dataclass(frozen=True)
class ExponentReport:
    """Predicted growth exponent of the interpolation error in the gamma-norm."""

    exponent: float
    classification: str  # inconsistent | generalizes_poorly | no_divergence
    log_exponent: float  # exponent of the (log n) correction in the sharp bound

    CLASS_TOL = 1e-12


def theoretical_exponent(
    gamma: float, beta: float, zeta: float, alpha_star: float
) -> ExponentReport:
    """Exponent (gamma - 3(alpha* - 1/beta)) / (3 alpha* - 2/beta) with its regime."""
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1) (got {gamma})")
    if not 1 / beta - 1e-12 <= alpha_star <= 1 + 1e-12:
        raise ValueError(f"alpha_star must lie in [1/beta, 1] (got {alpha_star})")
    threshold = 3.0 * (alpha_star - 1.0 / beta)
    denom = 3.0 * alpha_star - 2.0 / beta
    exponent = (gamma - threshold) / denom
    if gamma > threshold + ExponentReport.CLASS_TOL:
        classification = "inconsistent"
    elif gamma >= threshold - ExponentReport.CLASS_TOL:
        classification = "generalizes_poorly"
    else:
        classification = "no_divergence"
    log_exponent = -(gamma + 1.0 / beta) / denom * (1.0 + 2.0 * zeta)
    return ExponentReport(exponent, classification, log_exponent)


@dataclass(frozen=True)
class EnvelopeCurve:
    """S(lambda) = sum mu_i^(2-gamma) / (mu_i + lambda)^2 over a lambda grid."""

    gamma: float
    lambda_grid: np.ndarray
    values: np.ndarray
    fitted_slope: float
    slope_stderr: float
    target_slope: float  # gamma + 1/beta

    def to_csv(self, path) -> None:
        _write_csv(path, "lambda,value", zip(self.lambda_grid, self.values))


def v2_envelope(s: Spectrum, gamma: float, lambda_grid) -> EnvelopeCurve:
    """Evaluate the closed-form variance sum on a grid and fit its decay rate.

    The fitted slope of log S against log(1/lambda) is compared against the
    predicted gamma + 1/beta.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    if lam.size == 0:
        raise ValueError("lambda grid must be non-empty")
    if np.any((lam <= 0) | (lam >= 0.5)):
        raise ValueError("lambda grid must lie inside (0, 1/2)")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1) (got {gamma})")
    values = np.array([np.sum(_variance_terms(s.mu, gamma, l)) for l in lam])
    if len(lam) >= 3:
        slope, stderr = fit_loglog_slope(1.0 / lam, values)
    else:
        slope, stderr = float("nan"), float("nan")
    return EnvelopeCurve(
        gamma=gamma,
        lambda_grid=lam,
        values=values,
        fitted_slope=slope,
        slope_stderr=stderr,
        target_slope=gamma + 1.0 / s.beta,
    )


def _variance_terms(mu: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Terms mu_i^(2-gamma) / (mu_i + lambda)^2 of the variance sum S(lambda)."""
    return mu ** (2.0 - gamma) / (mu + lam) ** 2


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row, each value formatted as %.17g."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
