"""Tour of spectral ingredients: decay profiles, effective dimension,
embedding norms, and the predicted error-growth exponent.

Run with: python3 demos/spectrum_and_embedding.py
"""

import numpy as np

from rkhslab import (
    SpectralKernel,
    effective_dimension,
    embedding_index,
    embedding_norm,
    fit_loglog_slope,
    make_power_law_spectrum,
    theoretical_exponent,
)

# A spectrum mu_i ~ (i (log i)^zeta)^(-beta).  beta > 1 keeps the trace
# finite; zeta tilts the profile by a log factor.
spec = make_power_law_spectrum(beta=2.0, zeta=0.0, M=50_000)
print(f"first eigenvalues: {spec.mu[:5]}")
print(f"trace: {spec.trace():.4f}, tail mass beyond M: {spec.tail():.2e}")

# The effective dimension N(lambda) = sum mu_i / (mu_i + lambda) grows like
# lambda^(-1/beta) as lambda -> 0.
grid = np.geomspace(1e-6, 1e-1, 20)
n_eff = np.array([effective_dimension(spec, l) for l in grid])
slope, _ = fit_loglog_slope(1.0 / grid, n_eff)
print(f"\neffective-dimension growth: lambda^-{slope:.3f} (theory 1/beta = 0.5)")

# Embedding norms M_alpha^2 = sup_x sum mu_i^alpha e_i(x)^2 for the cosine
# basis on [0, 1], attained at x = 0.  The untruncated sum is finite exactly
# when alpha exceeds the embedding index alpha* = 1/beta (or equals it with
# zeta > 1).
kernel = SpectralKernel(spec)
for alpha in (0.6, 0.8, 1.0):
    print(f"M_{alpha} = {embedding_norm(kernel, alpha):.4f}")

a_star = embedding_index(kernel)
print(f"\nembedding index alpha* = 1/beta = {a_star:.4f}")

# The predicted growth exponent of the interpolation error in the
# gamma-norm, together with its qualitative classification.
for gamma in (0.0, 0.25, 0.5):
    rep = theoretical_exponent(gamma, 2.0, a_star)
    print(
        f"gamma = {gamma}: error ~ n^{rep.exponent:.2f}  -> {rep.classification}"
    )
