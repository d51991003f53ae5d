"""Eigenvalue sequences with power-law-times-log decay and spectrum-only quantities.

A :class:`Spectrum` holds a truncated non-increasing sequence of positive
eigenvalues mu_i sandwiched between constant multiples of (i (log i)^zeta)^(-beta).
All quantities here depend on the eigenvalues alone: effective dimension,
embedding norms M_alpha in closed form (the eigenfunctions evaluated at
x = 0 for the 1-d cosine basis, per-degree multiplicities on the sphere) and the
numerical embedding index, and predicted error-growth exponents.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import mpmath
import numpy as np

__all__ = [
    "DivergentEmbedding",
    "Spectrum",
    "EmbeddingReport",
    "ExponentReport",
    "make_power_law_spectrum",
    "effective_dimension",
    "embedding_norm",
    "estimate_alpha_star",
    "theoretical_exponent",
]

# Shrink of the extrapolated dyadic block ratio below 1 required to declare a
# series convergent, at block length q = 1; the margin relaxes as q^(-3/2),
# more slowly than the O(q^-2) extrapolation error.
TAIL_MARGIN = 0.02
# bisection width of the numerical embedding index
ALPHA_STAR_TOL = 1e-4
# working precision (decimal digits) of the closed-form spectrum tail
TAIL_DPS = 40


class DivergentEmbedding(ArithmeticError):
    """The embedding-norm series fails the convergence test (alpha <= alpha*)."""


@dataclass(frozen=True)
class Spectrum:
    """Truncated eigenvalues mu_1 >= mu_2 >= ... > 0; ``tail_mass`` estimates sum_{i > M} mu_i."""

    mu: np.ndarray
    beta: float
    zeta: float
    tail_mass: float = 0.0

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
    The discarded tail is estimated by integral comparison (:func:`_tail_mass`).
    """
    if beta <= 1:
        raise ValueError(f"beta must exceed 1 (got {beta}); the trace may diverge")
    if M < 2:
        raise ValueError(f"M must be at least 2 (got {M})")
    i = np.arange(2, M + 1, dtype=float)
    raw = (i * np.log(i) ** zeta) ** (-beta)
    mu = np.minimum.accumulate(np.concatenate(([1.0], raw)))
    return Spectrum(mu=mu, beta=beta, zeta=zeta, tail_mass=_tail_mass(beta, zeta, M))


def _tail_mass(beta: float, zeta: float, M: int) -> float:
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
    if lam <= 0:
        raise ValueError(f"lambda must be positive (got {lam})")
    return float(np.sum(s.mu / (s.mu + lam)))


def _increment_ratio(terms: np.ndarray) -> float:
    """Dyadic block-sum ratio of a term sequence, extrapolated in block length.

    For terms ~ (i + c)^(-p) the ratio R(q) of the sums over [2q, 4q) and
    [q, 2q) is 2^(1-p) + O(c/q): the index offset c alone moves a divergent
    p = 1 tail to either side of 1.  One Richardson step over the blocks
    [q, 2q), [2q, 4q), [4q, 8q), q = m // 8, returns 2 R(2q) - R(q), which
    cancels the O(1/q) term and leaves O(q^-2).
    """
    q = len(terms) // 8
    s0, s1, s2 = (float(np.sum(terms[a : 2 * a])) for a in (q, 2 * q, 4 * q))
    if s0 == 0.0 or s1 == 0.0:
        return 0.0
    return 2.0 * s2 / s1 - s1 / s0


def _series_converges(terms: np.ndarray) -> bool:
    q = len(terms) // 8
    if q == 0:
        # too short to resolve divergence; a truncated sum this small is finite
        return True
    return _increment_ratio(terms) < 1.0 - TAIL_MARGIN * q**-1.5


@dataclass(frozen=True)
class EmbeddingReport:
    """Sup-norm of the weighted eigenfunction square sum at a given power alpha."""

    alpha: float
    m_alpha: float
    method: str  # closed_form_cosine | closed_form_sphere

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _embedding_terms(kernel_spec, alpha: float):
    """Per-index terms of the embedding series and the method label.

    * a dot-product spectrum on the sphere gives sum_k a_k^alpha N(d, k);
    * a spectral kernel attains the sup at x = 0, where every cosine mode
      squares to its maximum.
    """
    if hasattr(kernel_spec, "a") and hasattr(kernel_spec, "d"):
        terms = kernel_spec.a**alpha * kernel_spec.multiplicities()
        return terms, "closed_form_sphere"
    e0_sq = kernel_spec.basis_matrix(0.0)[0] ** 2
    return kernel_spec.spectrum.mu**alpha * e0_sq, "closed_form_cosine"


def estimate_alpha_star(kernel_spec) -> float:
    """Numerical embedding index: bisect on alpha over series convergence.

    The infimum itself may or may not be attained; this returns the smallest
    alpha (within ``ALPHA_STAR_TOL``) at which the truncated series passes the
    extrapolated dyadic tail test.
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


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row, each value formatted as %.17g."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
