"""Experiment runner: sampling, noise, replicates, exponent fits, reports.

Two experiments are provided, both on inputs drawn uniformly on [0, 1].
The variance experiment evaluates V (both routes), V1, V2 and the predicted
small-lambda envelope over replicate draws of X for each sample size.  The
inconsistency experiment fits minimum-norm interpolants to noisy samples of
the target f* = b1 e_1 (zero by default) over a grid of sample sizes,
measures the gamma-norm error exactly via coefficients, and compares the
fitted growth exponent of the mean error with the predicted one.

Both experiments run their replicates through one table ``{n: {r: result}}``
in which a numerically failed replicate is absent; per-n statistics, failure
counts and ``errors.csv`` rows are all read from it.  Every random stream is
a pure function of (seed, n, replicate), so a fixed config reproduces every
CSV byte for byte, and ``summary.json`` apart from its ``runtime_seconds``.
Each run also writes ``plot.py``, the fixed script :data:`PLOT_SCRIPT`, which
plots every CSV in its directory.
"""

from __future__ import annotations

import json
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .fitting import fit_loglog_slope
from .kernels import SpectralKernel
from .operators import (
    NotInPowerSpace,
    _envelope_shape,
    build_operator_model,
    v_lambda_gram_route,
    variance_curve,
)
from .solvers import SampleSet, gamma_error_sq, min_norm_fit
from .spectra import embedding_index, make_power_law_spectrum, theoretical_exponent

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "sample_inputs",
    "make_responses",
    "replicate_rng",
    "run_variance_experiment",
    "run_inconsistency_experiment",
]

MAX_FAILURE_FRACTION = 0.2
# squared errors scale with sigma^2 and overflow for larger noise levels
MAX_SIGMA = 1e100


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """An int or float within the float range; JSON true and false are not numbers."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    beta: float
    gamma: float
    sigma: float = 1.0
    zeta: float = 0.0
    truncation: int = 4096
    n_grid: tuple[int, ...] = (64, 128, 256, 512, 1024)
    replicates: int = 50
    lambda_grid: tuple[float, ...] = ()
    seed: int = 0
    f_star_b1: float = 0.0  # target f* = f_star_b1 e_1; 0 is the zero target
    output_dir: str = "."

    def __post_init__(self):
        for name in ("beta", "gamma", "sigma", "zeta", "f_star_b1"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        for name in ("truncation", "replicates", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        if not all(_is_int(n) and n >= 1 for n in self.n_grid):
            raise ConfigError("sample sizes must be positive integers")
        if not all(_is_number(l) and l > 0 for l in self.lambda_grid):
            raise ConfigError("lambda grid entries must be positive numbers")
        if self.beta <= 1:
            raise ConfigError("beta must exceed 1")
        if not 0 <= self.gamma < 1:
            raise ConfigError("gamma must lie in [0, 1)")
        if not 0 < self.sigma <= MAX_SIGMA:
            raise ConfigError(f"sigma must lie in (0, {MAX_SIGMA:g}]")
        if self.truncation < 2:
            raise ConfigError("truncation must be at least 2")
        if len(self.n_grid) == 0 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be non-empty and strictly increasing")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("n_grid", "lambda_grid"):
            if key in raw:
                if not isinstance(raw[key], list):
                    raise ConfigError(f"{key} must be a list")
                raw[key] = tuple(raw[key])
        try:
            return cls(**raw)
        except TypeError as err:
            raise ConfigError(str(err)) from err

    def build_kernel(self) -> SpectralKernel:
        try:
            spec = make_power_law_spectrum(self.beta, self.zeta, self.truncation)
            return SpectralKernel(spectrum=spec)
        except (ValueError, ArithmeticError) as err:
            raise ConfigError(f"cannot build the kernel: {err}") from err

    def f_star_coeffs(self) -> np.ndarray:
        """L2 coefficients of the target f* = b1 e_1, where e_1 = 1."""
        return np.array([self.f_star_b1])


@dataclass
class ExperimentResult:
    """Aggregated errors, fitted exponent, and the theoretical comparison."""

    n_values: list[int]
    mean_errors: list[float]
    stderr_errors: list[float]
    median_errors: list[float]
    q10_errors: list[float]
    q90_errors: list[float]
    success_counts: list[int]
    failure_counts: list[int]
    fitted_slope: float | None
    slope_stderr: float | None
    theoretical_exponent: float
    classification: str
    runtime_seconds: float
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def replicate_rng(seed: int, n: int, replicate: int) -> np.random.Generator:
    """Independent stream derived deterministically from (seed, n, replicate)."""
    return np.random.default_rng(np.random.SeedSequence([seed, n, replicate]))


def sample_inputs(domain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly on [0, 1]; ``domain`` must be "unit_interval"."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if domain != "unit_interval":
        raise ValueError(f"unknown domain {domain!r}")
    return rng.random(n)


def make_responses(X, f_star_values, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """y_i = f*(x_i) + sigma xi_i with standard Gaussian noise."""
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    f = np.zeros(len(X)) if f_star_values is None else np.asarray(f_star_values, dtype=float)
    return f + sigma * rng.standard_normal(len(X))


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row, each value formatted as %.17g."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot every CSV in this directory on log-log axes, one PNG per file (matplotlib)."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

for path in sorted(Path(__file__).resolve().parent.glob("*.csv")):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    x_name, *columns = reader.fieldnames
    x = [float(r[x_name]) for r in rows]
    for c in columns:
        plt.loglog(x, [abs(float(r[c])) or float("nan") for r in rows], label=c)
    plt.xlabel(x_name)
    plt.legend()
    plt.title(path.name)
    plt.savefig(path.with_suffix(".png"), dpi=120)
    plt.clf()
'''


def _map_replicates(one, cfg: ExperimentConfig, threads: int) -> dict[int, dict[int, object]]:
    """``one(n, r)`` for every (n, replicate) on ``threads`` workers, as ``{n: {r: result}}``.

    n runs in grid order and r ascending.  A job whose solve fails
    numerically is left out, so an n's failures are the replicates missing
    from its table; any other error propagates.
    """
    failed = (np.linalg.LinAlgError, NotInPowerSpace)
    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        futs = {n: {r: pool.submit(one, n, r) for r in range(cfg.replicates)} for n in cfg.n_grid}
    return {
        n: {r: f.result() for r, f in row.items() if not isinstance(f.exception(), failed)}
        for n, row in futs.items()
    }


def run_variance_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Evaluate the variance functionals over replicates and sample sizes.

    Writes per-n curve files with replicate means of V (both routes), V1, V2
    and the envelope shape, plus ``curve.csv`` for the largest n, a
    ``summary.json`` with the |V - V1| contraction across n, and ``plot.py``.
    """
    if len(cfg.lambda_grid) == 0:
        raise ConfigError("variance experiment needs a lambda grid")
    if any(l >= 0.5 for l in cfg.lambda_grid):
        raise ConfigError("lambda grid must lie inside (0, 1/2)")
    t0 = time.time()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernel = cfg.build_kernel()
    lam = np.asarray(cfg.lambda_grid, dtype=float)

    def one(n: int, r: int):
        X = sample_inputs("unit_interval", n, replicate_rng(cfg.seed, n, r))
        curve = variance_curve(build_operator_model(kernel, X), cfg.gamma, lam)
        v_gram = np.array([v_lambda_gram_route(kernel, X, cfg.gamma, l) for l in lam])
        return curve.v, v_gram, curve.v1, curve.v2

    table = _map_replicates(one, cfg, threads)
    summary = {"per_n": {}, "config": asdict(cfg)}
    for n, by_r in table.items():
        reps = list(by_r.values())
        per_n = {"successes": len(reps), "failures": cfg.replicates - len(reps)}
        summary["per_n"][str(n)] = per_n
        if not reps:
            continue
        stacks = [np.mean([rep[k] for rep in reps], axis=0) for k in range(4)]
        name = f"curve_n{n}.csv"
        envelope = _envelope_shape(lam, cfg.gamma, cfg.beta, cfg.zeta, n)
        _write_csv(out / name, "lambda,v_coeff,v_gram,v1,v2,envelope", zip(lam, *stacks, envelope))
        rel = [
            np.median(np.abs(rep[0] - rep[2]) / np.maximum(rep[2], np.finfo(float).tiny))
            for rep in reps
        ]
        per_n["median_rel_v_minus_v1"] = float(np.median(rel))
    # canonical file for the largest sample size
    if table[cfg.n_grid[-1]]:
        largest = out / f"curve_n{cfg.n_grid[-1]}.csv"
        (out / "curve.csv").write_bytes(largest.read_bytes())
    summary["runtime_seconds"] = time.time() - t0
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    (out / "plot.py").write_text(PLOT_SCRIPT, encoding="utf-8")
    return summary


def _error_stats(vals: np.ndarray) -> list[float]:
    """Mean, standard error, median, 10% and 90% quantiles; NaN without values."""
    if len(vals) == 0:
        return [float("nan")] * 5
    stderr = np.std(vals, ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    quantiles = (np.quantile(vals, 0.1), np.quantile(vals, 0.9))
    return [float(x) for x in (np.mean(vals), stderr, np.median(vals), *quantiles)]


def run_inconsistency_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Minimum-norm interpolation error growth across sample sizes.

    Per (n, replicate): draw X and noisy Y, fit the interpolant, record the
    exact squared gamma-norm error.  The slope of log(mean error) against
    log n is compared with the predicted exponent.
    """
    t0 = time.time()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernel = cfg.build_kernel()
    pred = theoretical_exponent(cfg.gamma, cfg.beta, embedding_index(kernel))
    f_coeffs = cfg.f_star_coeffs()

    def one(n: int, r: int) -> float:
        rng = replicate_rng(cfg.seed, n, r)
        X = sample_inputs("unit_interval", n, rng)
        Y = make_responses(X, np.full(n, f_coeffs[0]), cfg.sigma, rng)
        fit = min_norm_fit(kernel, SampleSet(X, Y))
        return gamma_error_sq(fit, f_coeffs, cfg.gamma)

    table = _map_replicates(one, cfg, threads)

    per_n = [np.array(list(by_r.values())) for by_r in table.values()]
    means, stderrs, medians, q10, q90 = (list(col) for col in zip(*map(_error_stats, per_n)))
    succ = [len(vals) for vals in per_n]
    fail = [cfg.replicates - len(vals) for vals in per_n]

    too_many_failures = any(
        f > MAX_FAILURE_FRACTION * cfg.replicates for f in fail
    )
    slope = stderr = None
    if len(cfg.n_grid) >= 3 and not too_many_failures and all(0 < m < np.inf for m in means):
        slope, stderr = fit_loglog_slope(np.array(cfg.n_grid, float), np.array(means))

    result = ExperimentResult(
        n_values=list(cfg.n_grid),
        mean_errors=means,
        stderr_errors=stderrs,
        median_errors=medians,
        q10_errors=q10,
        q90_errors=q90,
        success_counts=succ,
        failure_counts=fail,
        fitted_slope=slope,
        slope_stderr=stderr,
        theoretical_exponent=pred.exponent,
        classification=pred.classification,
        runtime_seconds=time.time() - t0,
        config=asdict(cfg),
    )
    rows = ((n, r, e) for n, by_r in table.items() for r, e in by_r.items())
    _write_csv(out / "errors.csv", "n,replicate,gamma_error_sq", rows)
    (out / "summary.json").write_text(result.to_json(), encoding="utf-8")
    (out / "plot.py").write_text(PLOT_SCRIPT, encoding="utf-8")
    return result
