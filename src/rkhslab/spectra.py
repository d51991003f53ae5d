"""Eigenvalue sequences with power-law-times-log decay and spectrum-only quantities.

A :class:`Spectrum` holds a truncated non-increasing sequence of positive
eigenvalues mu_i sandwiched between constant multiples of (i (log i)^zeta)^(-beta).
All quantities here depend on the eigenvalues and their declared decay law
alone: effective dimension, the embedding index alpha* = 1/beta and the
embedding norms M_alpha of the cosine-basis kernel (the eigenfunctions
evaluated at x = 0, with divergence decided by (beta, zeta)), and predicted
error-growth exponents.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import mpmath
import numpy as np

__all__ = [
    "DivergentEmbedding",
    "Spectrum",
    "ExponentReport",
    "make_power_law_spectrum",
    "effective_dimension",
    "embedding_index",
    "embedding_norm",
    "theoretical_exponent",
]

# working precision (decimal digits) of the closed-form spectrum tail
TAIL_DPS = 40


class DivergentEmbedding(ArithmeticError):
    """The embedding series diverges: alpha < alpha*, or alpha = alpha* with zeta <= 1."""


@dataclass(frozen=True)
class Spectrum:
    """Truncated eigenvalues mu_1 >= mu_2 >= ... > 0 with their declared decay law (beta, zeta)."""

    mu: np.ndarray
    beta: float
    zeta: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or len(mu) == 0:
            raise ValueError("mu must be a non-empty 1-d array")
        if not np.all(mu > 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(mu) > 0):
            raise ValueError("eigenvalues must be non-increasing")

    @property
    def size(self) -> int:
        return len(self.mu)

    def tail(self, p: float = 1.0) -> float:
        """Estimate of sum_{i > M} mu_i^p under the declared law, finite for beta p > 1."""
        if not self.beta * p > 1:  # a negated inclusion, so that NaN fails it too
            raise ValueError(f"the tail needs beta p > 1 (got beta = {self.beta}, p = {p})")
        return _tail_integral(self.beta * p, self.zeta, self.size)

    def trace(self) -> float:
        """Total mass including the estimated tail (finite for bounded kernels)."""
        return float(np.sum(self.mu) + self.tail())


def make_power_law_spectrum(beta: float, zeta: float = 0.0, M: int = 10_000) -> Spectrum:
    """Build mu_1 = 1, mu_i = (i (log i)^zeta)^(-beta) for i >= 2.

    For zeta < 0 the raw profile is not monotone at small i; a running minimum
    enforces the non-increasing convention without changing the asymptotics.
    The discarded tail is estimated from the law by :meth:`Spectrum.tail`.
    """
    if not beta > 1:  # a negated inclusion, so that NaN fails it too
        raise ValueError(f"beta must exceed 1 (got {beta}); the trace may diverge")
    if not np.isfinite(zeta):
        raise ValueError(f"zeta must be finite (got {zeta})")
    if not (isinstance(M, numbers.Integral) and not isinstance(M, bool) and M >= 2):
        raise ValueError(f"M must be an integer of at least 2 (got {M!r})")
    i = np.arange(2, M + 1, dtype=float)
    # an infinite term lies above mu_1 = 1, so the running minimum clips it
    with np.errstate(over="ignore", divide="ignore"):
        raw = (i * np.log(i) ** zeta) ** (-beta)
    mu = np.minimum.accumulate(np.concatenate(([1.0], raw)))
    if mu[-1] == 0:
        raise ValueError(f"mu_M underflows to 0 at beta = {beta}, zeta = {zeta}, M = {M}")
    return Spectrum(mu=mu, beta=beta, zeta=zeta)


def _tail_integral(beta: float, zeta: float, M: int) -> float:
    """Tail integral int_M^inf (x (ln x)^zeta)^(-beta) dx in closed form.

    The substitution u = (beta - 1) ln x turns it into the upper incomplete
    gamma function (beta - 1)^(beta zeta - 1) Gamma(1 - beta zeta, (beta - 1) ln M),
    which is M^(1 - beta) / (beta - 1) at zeta = 0.
    """
    # at the default 15 digits Gamma(a, x) loses every digit for steep tails
    # (beta = 10, zeta = 3, M = 10^7 comes out negative)
    with mpmath.workdps(TAIL_DPS):
        b, z = mpmath.mpf(beta), mpmath.mpf(zeta)
        return float((b - 1) ** (b * z - 1) * mpmath.gammainc(1 - b * z, (b - 1) * mpmath.log(M)))


def effective_dimension(s: Spectrum, lam: float) -> float:
    """Trace of (C + lambda)^(-1) C, i.e. sum mu_i / (mu_i + lambda)."""
    if not 0 < lam < np.inf:  # a negated finite inclusion, so that NaN and inf fail it too
        raise ValueError(f"lambda must be positive (got {lam})")
    return float(np.sum(s.mu / (s.mu + lam)))


def embedding_index(kernel) -> float:
    """Embedding index alpha* = 1/beta of a cosine-basis kernel.

    The basis is bounded by sqrt(2) and attains the bound at x = 0, so the
    embedding series sum_i mu_i^alpha e_i(x)^2 is bounded exactly when
    sum_i mu_i^alpha converges.  Under the declared law
    mu_i ~ (i (log i)^zeta)^(-beta) that happens for alpha > 1/beta.
    """
    return 1.0 / kernel.spectrum.beta


def embedding_norm(kernel, alpha: float) -> float:
    """Embedding norm M_alpha of the alpha-power space into the sup norm.

    M_alpha^2 = sum_i mu_i^alpha e_i(0)^2, the supremum over x of the
    weighted square sum, over the truncated spectrum.  Whether the untruncated
    series converges is decided from the (beta, zeta) declared on the
    :class:`Spectrum`, not from the eigenvalues it stores: it converges for
    alpha > alpha* = 1/beta, and at alpha = alpha* exactly when zeta > 1,
    since sum 1/(i (log i)^zeta) converges only then.  Otherwise this raises
    :class:`DivergentEmbedding`.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1] (got {alpha})")
    a_star, zeta = embedding_index(kernel), kernel.spectrum.zeta
    if alpha < a_star or (alpha == a_star and zeta <= 1):
        raise DivergentEmbedding(
            f"embedding series diverges at alpha = {alpha} (alpha* = {a_star}, zeta = {zeta})"
        )
    e0_sq = kernel.basis_matrix(0.0)[0] ** 2
    return float(np.sqrt(np.sum(kernel.spectrum.mu**alpha * e0_sq)))


@dataclass(frozen=True)
class ExponentReport:
    """Predicted growth exponent of the interpolation error in the gamma-norm."""

    exponent: float
    classification: str  # inconsistent | generalizes_poorly | no_divergence

    CLASS_TOL = 1e-12


def theoretical_exponent(gamma: float, beta: float, alpha_star: float) -> ExponentReport:
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
    return ExponentReport(exponent, classification)


def _variance_terms(mu: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Terms mu_i^(2-gamma) / (mu_i + lambda)^2 of the variance sum S(lambda)."""
    return mu ** (2.0 - gamma) / (mu + lam) ** 2

