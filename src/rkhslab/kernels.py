"""Kernels with explicit Mercer decompositions.

Two families are provided:

* :class:`SpectralKernel` -- a 1-d kernel K(x, y) = sum_i mu_i e_i(x) e_i(y)
  in the cosine basis e_1 = 1, e_{k+1} = sqrt(2) cos(k pi x), orthonormal on
  [0, 1] under Lebesgue measure.  It is uniformly bounded by sqrt(2), which
  pins the embedding index at 1/beta.  The basis matrix is one batched
  matrix product with inner dimension 2: angle addition turns each block of
  harmonics into the row (cos a theta, sin a theta) times a small per-point
  sin/cos table, so sines and cosines are taken only on those tables.  Scaled
  by sqrt(mu^p), the basis matrix holds the features of the kernel with
  eigenvalues mu^p: a kernel matrix is one product of two such matrices, and
  a Gram matrix one symmetric product P P^T.
* :class:`DotProductSpectrum` -- a kernel on the sphere S^d depending only on
  t = <x, x'>, diagonalized per degree with multiplicities N(d, k) and
  Gegenbauer polynomials normalized to P_k(1) = 1.

The shallow ReLU tangent-kernel profile is included as the canonical
dot-product example, together with quadrature projection of an arbitrary
profile onto its per-degree eigenvalues.  Results take their inputs' shapes:
``kernel_eval(k, x, y)`` has shape ``np.shape(x) + np.shape(y)``, the sphere
evaluators the shape of t (inner products ``X @ X.T`` give a Gram matrix),
and a 0-d result is a numpy float, which is a ``float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, _check_count, _check_real, _check_reals

__all__ = [
    "DomainError",
    "QuadratureError",
    "SpectralKernel",
    "DotProductSpectrum",
    "multiplicity",
    "kernel_eval",
    "gram_matrix",
    "dot_product_kernel_eval",
    "ntk_eval",
    "project_dot_product_spectrum",
]

# floating-point clamp window for |t| slightly above 1
T_CLAMP = 1e-12
# quadrature projection: smallest starting order, and the relative change of
# the coefficients within at most QUAD_MAX_DOUBLINGS order doublings
QUAD_MIN_ORDER = 64
QUAD_RTOL = 1e-6
QUAD_MAX_DOUBLINGS = 8
# columns per block of the angle-addition basis evaluation
HARMONIC_BLOCK = 64


class DomainError(ValueError):
    """A point lies outside the kernel's domain, or a point set is empty or not 1-d."""


class QuadratureError(RuntimeError):
    """Quadrature projection failed to converge under order doubling."""


def _check_domain(x) -> np.ndarray:
    """The one gate for sample points: a number or a non-empty 1-d array in [0, 1], no NaN."""
    x = np.atleast_1d(x)
    if x.ndim != 1 or len(x) == 0:
        raise DomainError(f"need at least one sample point on one axis (got shape {x.shape})")
    return _check_reals("point", x, "[0, 1]", DomainError)


@dataclass(frozen=True)
class SpectralKernel:
    """Kernel defined by a spectrum and the cosine basis of L2[0, 1]."""

    spectrum: Spectrum

    @property
    def size(self) -> int:
        return self.spectrum.size

    def basis_matrix(self, x) -> np.ndarray:
        """Evaluate all basis functions: rows are points, columns indices."""
        x = _check_domain(x)
        E = np.empty((len(x), self.size))
        E[:, 0] = 1.0
        _harmonics(np.pi * x, E[:, 1:])
        return E


def _harmonics(theta: np.ndarray, out: np.ndarray):
    """Write sqrt2 cos(k theta), k = 1, 2, ..., into the columns of ``out``.

    Angle addition, cos((a + j) t) = cos(a t) cos(j t) - sin(a t) sin(j t),
    makes a block of B harmonics k = a + j, j = 1..B, at one point the row
    (cos a t, sin a t) times a 2 x B table of sqrt2 cos(j t), -sqrt2 sin(j t).
    Over all points and block starts a = 0, B, 2B, ... that is one batched
    ``matmul`` with inner dimension 2, written through a view of ``out``;
    a second small one fills a ragged last block.  Sines and cosines are
    taken only on the n x B table and the n x ceil(K / B) block starts.
    The rounding of theta dominates the error, as for direct evaluation.
    """
    n, K = out.shape
    if K == 0:
        return
    B = min(HARMONIC_BLOCK, K)
    # table[i, :, j - 1] = sqrt2 (cos j t_i, -sin j t_i)
    table = np.empty((n, 2, B))
    c, s = table[:, 0], table[:, 1]
    np.outer(theta, np.arange(1, B + 1), out=c)
    np.sin(c, out=s)
    np.cos(c, out=c)
    c *= math.sqrt(2.0)
    s *= -math.sqrt(2.0)
    # starts[i, b] = (cos a t_i, sin a t_i) for a = b B
    starts = np.empty((n, -(-K // B), 2))
    a = starts[:, :, 0]
    np.outer(theta, np.arange(0, K, B), out=a)
    np.sin(a, out=starts[:, :, 1])
    np.cos(a, out=a)
    full, tail = divmod(K, B)
    # splitting the unit-stride last axis keeps this a view of ``out``
    blocks = out[:, : full * B].reshape(n, full, B)
    np.matmul(starts[:, :full], table, out=blocks)
    if tail:
        last = out[:, full * B :].reshape(n, 1, tail)
        np.matmul(starts[:, full:], table[:, :, :tail], out=last)


def _features(k: SpectralKernel, x, power: float) -> np.ndarray:
    """Rows sqrt(mu^power) e(x): the feature maps of the kernel with eigenvalues mu^power."""
    power = _check_real("power", power, "[0, inf)")
    P = k.basis_matrix(x)
    P *= np.sqrt(k.spectrum.mu**power)
    return P


def kernel_eval(k: SpectralKernel, x, y, power: float = 1.0) -> float | np.ndarray:
    """Truncated Mercer sum sum_i mu_i^power e_i(x) e_i(y), power >= 0; symmetric in (x, y)."""
    vals = _features(k, x, power) @ _features(k, y, power).T
    return vals.reshape(np.shape(x) + np.shape(y))[()]


def gram_matrix(k: SpectralKernel, X, power: float = 1.0) -> np.ndarray:
    """Gram matrix of the (fractional-power) kernel over a point set."""
    P = _features(k, X, power)
    # one buffer on both sides makes numpy call BLAS syrk: half the flops of
    # a general product, and an exactly symmetric result
    return P @ P.T


def multiplicity(d: int, k: int) -> int:
    """Dimension N(d, k) of the degree-k spherical harmonic space on S^d."""
    _check_count("d", d)
    _check_count("k", k, 0)
    n = math.comb(k + d, k)
    if k >= 2:
        n -= math.comb(k - 2 + d, k - 2)
    return n


def _check_t(t) -> np.ndarray:
    return np.clip(_check_reals("t", t, f"[{-1 - T_CLAMP}, {1 + T_CLAMP}]", DomainError), -1, 1)


def _gegenbauer(k_max: int, d: int, t: np.ndarray):
    """Yield P_0..P_{k_max} at t one at a time, holding two, normalized so P_k(1) = 1.

    The three-term recurrence of the ultraspherical polynomials with parameter
    nu = (d - 1) / 2, divided through by their values at 1:
    P_k = (2 (k - 1 + nu) t P_{k-1} - (k - 1) P_{k-2}) / (k - 1 + 2 nu)
    from P_0 = 1, P_1 = t.  At nu = 0 this is the Chebyshev recurrence.
    The callers have checked d >= 1 and k_max >= 0 by the count rule.
    """
    nu = 0.5 * (d - 1)
    prev, cur = np.ones_like(t), t
    yield from (prev, cur)[: k_max + 1]
    for k in range(2, k_max + 1):
        prev, cur = cur, (2.0 * (k - 1 + nu) * t * cur - (k - 1) * prev) / (k - 1 + 2.0 * nu)
        yield cur


@dataclass(frozen=True)
class DotProductSpectrum:
    """Per-degree eigenvalues a_k of a dot-product kernel on S^d."""

    d: int
    a: np.ndarray

    def __post_init__(self):
        _check_count("d", self.d)
        a = _check_reals("per-degree eigenvalue", self.a, "[0, inf)")
        object.__setattr__(self, "a", a)
        if a.ndim != 1 or len(a) == 0:
            raise ValueError("a must be a non-empty 1-d array")


def dot_product_kernel_eval(s: DotProductSpectrum, t) -> float | np.ndarray:
    """K(t) = sum_k a_k N(d, k) P_k(t) for t = <x, x'>, summed as the recurrence runs."""
    t = _check_t(t)
    K = np.zeros_like(t)
    for k, P in enumerate(_gegenbauer(len(s.a) - 1, s.d, t)):
        K += (s.a[k] * multiplicity(s.d, k)) * P
    return K[()]


def ntk_eval(t) -> float | np.ndarray:
    """Shallow ReLU tangent-kernel profile (2/pi) t (pi - arccos t) + (1/pi) sqrt(1 - t^2)."""
    t = _check_t(t)
    return ((2.0 / np.pi) * t * (np.pi - np.arccos(t)) + np.sqrt(1.0 - t**2) / np.pi)[()]


def project_dot_product_spectrum(g, d: int, k_max: int) -> DotProductSpectrum:
    """Recover per-degree eigenvalues a_k of a scalar profile g on [-1, 1].

    Uses Gauss-Jacobi quadrature with the sphere weight omega(t) = (1 - t^2)^(d/2 - 1).
    By the Funk-Hecke identity int P_k^2 omega = int omega / N(d, k), so
    a_k = int g P_k omega / (N(d, k) int P_k^2 omega) = int g P_k omega / int omega,
    and the rule's weights sum to int omega.  The order starts at
    max(2 (k_max + 1), ``QUAD_MIN_ORDER``) and is doubled until the
    coefficients stabilize to ``QUAD_RTOL``.
    """
    # scipy.special is imported here, its only use, to keep it out of the package import
    from scipy.special import roots_jacobi

    _check_count("d", d)  # before the quadrature, whose Jacobi weight needs d >= 1
    _check_count("k_max", k_max, 0)
    quad_order = max(2 * (k_max + 1), QUAD_MIN_ORDER)

    def coeffs(order: int) -> np.ndarray:
        x, w = roots_jacobi(order, d / 2 - 1, d / 2 - 1)
        wg = w * _check_reals("profile value", g(x), "(-inf, inf)")
        return np.array([P @ wg for P in _gegenbauer(k_max, d, x)]) / np.sum(w)

    a = coeffs(quad_order)
    for _ in range(QUAD_MAX_DOUBLINGS):
        quad_order *= 2
        a_next = coeffs(quad_order)
        change = np.max(np.abs(a_next - a)) / max(np.max(np.abs(a_next)), np.finfo(float).tiny)
        a = a_next
        if change < QUAD_RTOL:
            break
    else:
        raise QuadratureError(
            f"projection did not stabilize to {QUAD_RTOL} "
            f"after {QUAD_MAX_DOUBLINGS} order doublings"
        )

    if np.any(a < -1e-10):
        raise ValueError(
            f"profile is not positive definite: min coefficient {a.min():.3e}"
        )
    # a coefficient that is zero in exact arithmetic comes out as rounding
    # noise of either sign; the check above bounds it
    return DotProductSpectrum(d=d, a=np.maximum(a, 0.0))
