"""Workloads of the rkhslab benchmark: the experiment each one runs and why.

A workload is a list of *units*.  A unit is one fixed set of experiment calls
described by a plain-dict config; the benchmark times units and reports
the time per unit.  Each child process of a run walks its own stream of
seeded units, whose experiment seeds are generated from the workload seed.
Unit 0 is the same in every stream, so it repeats across processes and
checks that the outputs are deterministic; later units differ per stream, so
a run samples many draws and a rare slow draw (a jitter retry at n=1024) is
one unit of many, not the whole run.  A measured run also starts with the
reference unit (fixed seed, checked against a stored reference).

This module is stdlib only: the parent process imports it without loading
numpy, so the BLAS thread variable can still be set for each child.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Config seed of the reference unit, whose outputs are stored in references/.
REFERENCE_SEED = 0
REFERENCES = Path(__file__).resolve().parent / "references"


@dataclass(frozen=True)
class Workload:
    """How one workload is run.  harness_threads x blas_threads <= 2 cores."""

    name: str
    kind: str  # inconsistency_pair | variance
    blas_threads: int
    harness_threads: int
    trace_units: int  # seeded units timed in each child of a traced run
    params: dict


WORKLOADS = {
    # The acceptance-criterion-8 pair: run_inconsistency_experiment at
    # gamma=0.5 and then gamma=0 with the same seed, so the same designs are
    # fitted twice.  Kernels and solvers do almost all the work and operators
    # none; two harness threads with one BLAS thread exercise the replicate
    # pool.  Two replicates keep a unit near 1.2 s so a run times ~40 units.
    "interp_growth": Workload(
        name="interp_growth",
        kind="inconsistency_pair",
        blas_threads=1,
        harness_threads=2,
        trace_units=6,
        params=dict(
            beta=2.0,
            gammas=(0.5, 0.0),
            truncation=4096,
            n_grid=(64, 128, 256, 512, 1024),
            replicates=2,
        ),
    ),
    # run_variance_experiment at M=4096: the M x M coefficient route (one
    # Cholesky per lambda) dominates and kernels take under 10%; the eager
    # M x M C_emp of build_operator_model comes next, and it sets the peak
    # memory.  A faster V route or a lazy C_emp shows here and not on
    # interp_growth, which calls no operator.  One harness thread with two
    # BLAS threads, because two replicates in parallel were no faster and
    # doubled the memory.
    "variance_path": Workload(
        name="variance_path",
        kind="variance",
        blas_threads=2,
        harness_threads=1,
        trace_units=1,
        params=dict(
            beta=2.0,
            gamma=0.5,
            truncation=4096,
            n_grid=(64, 256, 1024),
            lambda_grid=(1e-3, 1e-2, 1e-1),
            replicates=1,
        ),
    ),
}

# Tiny configs run once during set-up in every child, after the imports, so
# that lazy imports and first-call costs of every layer are paid before timing.
WARM_UP = (
    dict(
        kind="inconsistency",
        beta=2.0,
        gamma=0.5,
        truncation=64,
        n_grid=(4, 8, 16),
        replicates=1,
        seed=0,
        threads=1,
    ),
    dict(
        kind="variance",
        beta=2.0,
        gamma=0.5,
        truncation=64,
        n_grid=(4, 8, 16),
        lambda_grid=(1e-2, 1e-1),
        replicates=1,
        seed=0,
        threads=1,
    ),
)


def unit_key(stream: int, j: int) -> str:
    """Name of seeded unit ``j`` of a stream; unit 0 is shared by all streams."""
    return "0" if j == 0 else f"{stream}/{j}"


def reference_path(w: Workload) -> Path:
    """Stored reference outputs; they depend on the BLAS thread count."""
    return REFERENCES / f"{w.name}.blas{w.blas_threads}.json"


def config_seed(workload_seed: int, key: str) -> int:
    """Experiment seed of a seeded unit, generated from the workload seed."""
    return random.Random(f"{workload_seed}/{key}").randrange(1, 2**31)


def unit_config(w: Workload, seed: int) -> dict:
    """The plain-dict config of one unit of ``w`` at an experiment seed."""
    return dict(w.params, kind=w.kind, seed=seed, threads=w.harness_threads)


def unit_items(cfg: dict) -> int:
    """Replicate fits a unit attempts (per n, and per gamma); failures count against it."""
    if cfg["kind"] == "inconsistency_pair":
        return len(cfg["gammas"]) * cfg["replicates"] * len(cfg["n_grid"])
    return cfg["replicates"] * len(cfg["n_grid"])


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def expected_calls(cfg: dict) -> dict:
    """Calls of each traced function made by one unit or warm-up config.

    Assumes no jitter retry and no failure; ``adjust_expected`` adds those.
    """
    kind = cfg["kind"]
    if kind == "inconsistency_pair":
        total: dict = {}
        for gamma in cfg["gammas"]:
            _add(total, expected_calls(dict(cfg, kind="inconsistency", gamma=gamma)))
        return total
    if kind == "inconsistency":
        fits = cfg["replicates"] * len(cfg["n_grid"])
        return {
            "harness.run_inconsistency_experiment": 1,
            "spectra.make_power_law_spectrum": 1,
            "solvers.min_norm_fit": fits,
            "solvers.ridge_fit": fits,
            "kernels.gram_matrix": fits,
            "solvers.gamma_error_sq": fits,
            "solvers.estimator_l2_coefficients": fits,
            "kernels.basis_matrix": 2 * fits,
        }
    if kind == "variance":
        draws = cfg["replicates"] * len(cfg["n_grid"])
        evals = draws * len(cfg["lambda_grid"])
        return {
            "harness.run_variance_experiment": 1,
            "spectra.make_power_law_spectrum": 1,
            "operators.build_operator_model": draws,
            "operators.v_lambda_coefficient_route": evals,
            "operators.v_lambda_gram_route": evals,
            "operators.v1_lambda": evals,
            "operators.v2_lambda": evals,
            "kernels.gram_matrix": 2 * evals,
            "kernels.basis_matrix": draws + 2 * evals,
        }
    raise ValueError(f"unknown config kind {kind!r}")


def plan_calls(configs) -> dict:
    """Summed expected calls of a sequence of configs."""
    total: dict = {}
    for cfg in configs:
        _add(total, expected_calls(cfg))
    return total


def adjust_expected(expected: dict, jitter_retries: int, retry_fits: int, failed_fits: int) -> dict:
    """Expected calls once jitter retries and failed minimum-norm fits are known.

    Each retry is one more ridge_fit, whose Gram matrix needs a basis matrix;
    a fit that retries also builds one Gram matrix for its largest
    eigenvalue; a fit that fails computes no L2 coefficients.
    """
    out = dict(expected)
    extra_gram = jitter_retries + retry_fits
    _add(
        out,
        {
            "solvers.ridge_fit": jitter_retries,
            "kernels.gram_matrix": extra_gram,
            "kernels.basis_matrix": extra_gram - failed_fits,
            "solvers.estimator_l2_coefficients": -failed_fits,
            "solvers.gamma_error_sq": -failed_fits,
        },
    )
    return out
