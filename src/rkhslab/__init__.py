"""Numerical laboratory for minimum-norm kernel interpolation in spectral RKHSs.

Subpackages:

* :mod:`rkhslab.spectra` -- eigenvalue sequences, effective dimension,
  embedding norms/index, predicted exponents, variance-sum envelopes.
* :mod:`rkhslab.kernels` -- explicit Mercer kernels (cosine basis, dot-product
  kernels on spheres via Gegenbauer polynomials, the ReLU tangent kernel).
* :mod:`rkhslab.operators` -- truncated covariance models, gamma-norms, and
  the variance functionals V, V1, V2 by two independent routes.
* :mod:`rkhslab.solvers` -- ridge regression and minimum-norm interpolation.
* :mod:`rkhslab.harness` -- seeded Monte Carlo experiments with CSV/JSON
  reports; CLI in :mod:`rkhslab.cli`.
"""

from .fitting import fit_loglog_slope
from .kernels import (
    DomainError,
    DotProductSpectrum,
    QuadratureError,
    SpectralKernel,
    dot_product_kernel_eval,
    fractional_power_kernel_eval,
    gegenbauer_p,
    gram_matrix,
    kernel_eval,
    multiplicity,
    ntk_eval,
    project_dot_product_spectrum,
)
from .operators import (
    ConcentrationReport,
    IllConditionedGram,
    NotInPowerSpace,
    SingularOperator,
    TruncatedOperatorModel,
    VarianceCurve,
    build_operator_model,
    concentration_trial,
    gamma_norm_sq,
    norm_eq_check,
    v1_lambda,
    v2_lambda,
    v_lambda_coefficient_route,
    v_lambda_gram_route,
    variance_curve,
)
from .solvers import (
    DualSolution,
    SampleSet,
    SingularGram,
    estimator_l2_coefficients,
    gamma_error_sq,
    min_norm_fit,
    operator_rep_check,
    predict,
    ridge_fit,
    rkhs_norm_sq,
)
from .spectra import (
    DivergentEmbedding,
    EmbeddingReport,
    EnvelopeCurve,
    ExponentReport,
    Spectrum,
    effective_dimension,
    embedding_norm,
    estimate_alpha_star,
    make_power_law_spectrum,
    theoretical_exponent,
    v2_envelope,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    make_responses,
    replicate_rng,
    run_inconsistency_experiment,
    run_variance_experiment,
    sample_inputs,
)

__version__ = "0.1.0"
