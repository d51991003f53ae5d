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
    make_power_law_spectrum,
    v_lambda_gram_route,
    variance_curve,
)

beta, gamma, n = 2.0, 0.5, 64
kernel = SpectralKernel(make_power_law_spectrum(beta, 0.0, 2048))
rng = np.random.default_rng(0)
X = rng.random(n)
model = build_operator_model(kernel, X)

grid = np.geomspace(1e-4, 0.4, 12)
curve = variance_curve(model, gamma, grid)

print("lambda        V (coeff)     V (gram)      V1            V2")
for lam, v, v1, v2 in zip(grid, curve.v, curve.v1, curve.v2):
    v_gram = v_lambda_gram_route(kernel, X, gamma, lam)
    print(f"{lam:.3e}   {v:.6e}  {v_gram:.6e}  {v1:.6e}  {v2:.6e}")

# V is non-increasing in lambda, and for small lambda it tracks the
# envelope lambda^-(gamma + 1/beta) / n up to constants.
assert np.all(np.diff(curve.v) <= 1e-10)
env = curve.envelope(beta, 0.0, n)
ratio = curve.v / env
print(f"\nV / envelope stays within [{ratio.min():.3f}, {ratio.max():.3f}]")
