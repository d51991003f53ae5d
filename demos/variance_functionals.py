"""Conditional-variance functionals of ridge regression along a lambda path.

V(lambda) measures the noise sensitivity of the regularized solution at a
fixed design X.  It is computed by two independent routes (coefficient
space and the n x n Gram matrix), then compared with its population
approximations V1 and V2 and the small-lambda envelope.

Run with: python3 demos/variance_functionals.py
"""

import numpy as np

from rkhslab import (
    SpectralKernel,
    build_operator_model,
    envelope_shape,
    make_power_law_spectrum,
    v1_lambda,
    v2_lambda,
    v_lambda_coefficient_route,
    v_lambda_gram_route,
)

beta, gamma, n = 2.0, 0.5, 64
kernel = SpectralKernel(make_power_law_spectrum(beta, 0.0, 2048))
rng = np.random.default_rng(0)
X = rng.random(n)
model = build_operator_model(kernel, X)

grid = np.geomspace(1e-4, 0.4, 12)
V = np.array([v_lambda_coefficient_route(model, gamma, lam) for lam in grid])

print("lambda        V (coeff)     V (gram)      V1            V2")
for lam, v in zip(grid, V):
    v_gram = v_lambda_gram_route(kernel, X, gamma, lam)
    v1 = v1_lambda(model, gamma, lam)
    v2 = v2_lambda(kernel.spectrum, gamma, lam, n)
    print(f"{lam:.3e}   {v:.6e}  {v_gram:.6e}  {v1:.6e}  {v2:.6e}")

# V is non-increasing in lambda, and for small lambda it tracks the
# envelope lambda^-(gamma + 1/beta) / n up to constants.
assert np.all(np.diff(V) <= 1e-10)
ratio = V / envelope_shape(kernel.spectrum, gamma, grid, n)
print(f"\nV / envelope stays within [{ratio.min():.3f}, {ratio.max():.3f}]")
