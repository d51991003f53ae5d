"""Growth of the gamma-norm error of minimum-norm interpolation.

Fits noise-only data with exact interpolants over an increasing grid of
sample sizes and compares the fitted growth exponent of the mean squared
gamma-norm error with the predicted one.  A small desk-scale configuration
keeps the runtime to a few seconds; scale up n_grid / replicates /
truncation for sharper estimates.

Run with: python3 demos/interpolation_error_growth.py
"""

import tempfile

from rkhslab import ExperimentConfig, run_inconsistency_experiment

with tempfile.TemporaryDirectory() as out:
    cfg = ExperimentConfig(
        beta=2.0,
        gamma=0.5,
        sigma=1.0,
        truncation=1024,
        n_grid=(32, 64, 128, 256),
        replicates=20,
        seed=0,
        output_dir=out,
    )
    # the returned dict is what the run wrote to summary.json
    summary = run_inconsistency_experiment(cfg)

    print("n      mean error    stderr")
    for n, m, se in zip(summary["n_values"], summary["mean_errors"], summary["stderr_errors"]):
        print(f"{n:5d}  {m:.4e}  {se:.2e}")

    print(f"\nfitted slope: {summary['fitted_slope']:.2f}")
    print(
        f"theoretical exponent: {summary['theoretical_exponent']:.2f} "
        f"({summary['classification']})"
    )
    print(f"runtime: {summary['runtime_seconds']:.1f}s; outputs written under {out}")

# The same experiment is available from the command line:
#   rkhslab inconsistency --config config.json --out results/
# with config.json holding the ExperimentConfig fields as a JSON object.
