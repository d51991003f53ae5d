"""Experiment runner: sampling, noise, replicates, exponent fits, reports.

Two experiments are provided, both on inputs drawn uniformly on [0, 1].
The variance experiment evaluates V (both routes), V1, V2 and the predicted
small-lambda envelope over replicate draws of X for each sample size.  The
inconsistency experiment fits minimum-norm interpolants to noisy samples of
the target f* = b1 e_1 (zero by default) over a grid of sample sizes,
measures the gamma-norm error exactly via coefficients, and compares the
fitted growth exponent of the mean error with the predicted one.  An
:class:`ExperimentConfig` builds its kernel when it is made, so a config whose
spectrum cannot be built raises :class:`ConfigError` before anything is written.

Both experiments run their replicates through one table ``{n: {r: result}}``
in which a numerically failed replicate is absent; per-n statistics, failure
counts and ``errors.csv`` rows are all read from it.  Every random stream is
a pure function of (seed, n, replicate), so a fixed config reproduces every
CSV byte for byte, and ``summary.json`` apart from its ``runtime_seconds``.
Each experiment returns the dict that its ``summary.json`` holds, and writes
``plot.py``, the fixed script :data:`PLOT_SCRIPT`, which plots what it lists.
A run makes its output directory before its first replicate.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .fitting import fit_loglog_slope
from .kernels import SpectralKernel
from .operators import (
    NotInPowerSpace,
    build_operator_model,
    envelope_shape,
    v1_lambda,
    v2_lambda,
    v_lambda_coefficient_route,
    v_lambda_gram_route,
)
from .solvers import SampleSet, gamma_error_sq, min_norm_fit
from .spectra import _check_count, _check_real, _check_reals, _is_int, embedding_index
from .spectra import make_power_law_spectrum, theoretical_exponent

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "sample_inputs",
    "make_responses",
    "replicate_rng",
    "run_variance_experiment",
    "run_inconsistency_experiment",
]

MAX_FAILURE_FRACTION = 0.2
# bound on sigma and |f_star_b1|: errors grow as their squares, which np.std squares again
MAX_AMPLITUDE = 1e50
# the interval of every real config field
_REAL_FIELDS = {
    "beta": "(1, inf)",
    "gamma": "[0, 1)",
    "sigma": f"(0, {MAX_AMPLITUDE:g}]",
    "zeta": "(-inf, inf)",
    "f_star_b1": f"[-{MAX_AMPLITUDE:g}, {MAX_AMPLITUDE:g}]",
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run, stored as plain Python values (JSON)."""

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
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        try:  # a config reports every ValueError below, the rules' included, as a ConfigError
            for name, interval in _REAL_FIELDS.items():
                object.__setattr__(self, name, _check_real(name, getattr(self, name), interval))
            for name, low in (("truncation", 2), ("replicates", 1), ("seed", 0)):
                object.__setattr__(self, name, _check_count(name, getattr(self, name), low))
            grids = (("n_grid", _check_count, 1), ("lambda_grid", _check_real, "(0, 0.5)"))
            for name, entry, bound in grids:
                grid = getattr(self, name)  # a list, tuple, range or 1-d array
                grid = grid.tolist() if isinstance(grid, np.ndarray) else grid  # 2-d: nested lists
                if not isinstance(grid, (list, tuple, range)):
                    raise ConfigError(f"{name} must be a 1-d sequence of numbers")
                checked = tuple(entry(f"every {name} entry", v, bound) for v in grid)
                object.__setattr__(self, name, checked)
            spec = make_power_law_spectrum(self.beta, self.zeta, self.truncation)
        except (ValueError, ArithmeticError) as err:
            raise ConfigError(str(err)) from err
        if len(self.n_grid) == 0 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be non-empty and strictly increasing")
        if (n := self.n_grid[-1]) * self.truncation * 8 > np.iinfo(np.intp).max:  # numpy's limit
            raise ConfigError(f"an n x truncation float64 basis is too big for numpy at n = {n}")
        object.__setattr__(self, "_kernel", SpectralKernel(spectrum=spec))

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """The config in the JSON object at ``path``, with the ``overrides`` that are not None."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:  # ValueError: not JSON, not UTF-8, a too long int
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw.update((k, v) for k, v in overrides.items() if v is not None)
        if unknown := sorted(set(raw) - set(cls.__dataclass_fields__)):
            raise ConfigError(f"unknown config keys: {unknown}")
        try:
            return cls(**raw)
        except TypeError as err:
            raise ConfigError(str(err)) from err

    def build_kernel(self) -> SpectralKernel:
        """The kernel of (beta, zeta, truncation), built once when the config was made."""
        return self._kernel


def replicate_rng(seed: int, n: int, replicate: int) -> np.random.Generator:
    """Independent stream derived deterministically from (seed, n, replicate)."""
    return np.random.default_rng(np.random.SeedSequence([seed, n, replicate]))


def sample_inputs(domain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly on [0, 1]; ``domain`` must be "unit_interval"."""
    _check_count("n", n)
    if domain != "unit_interval":
        raise ValueError(f"unknown domain {domain!r}")
    return rng.random(n)


def make_responses(X, f_star_values, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """y_i = f*(x_i) + sigma xi_i, Gaussian xi; f_star_values is None (f* = 0) or one per point."""
    sigma = _check_real("sigma", sigma, "(0, inf)")
    f = np.zeros(len(X)) if f_star_values is None else f_star_values
    f = _check_reals("f* value", f, "(-inf, inf)")
    if f.shape != (len(X),):
        raise ValueError(f"need one f* value per point: shape {f.shape} for X of shape {(len(X),)}")
    return f + sigma * rng.standard_normal(len(X))


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row, each value formatted as %.17g."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot the run that summary.json in this directory describes, on log-log axes (matplotlib)."""
import csv
import json
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
summary = json.loads((here / "summary.json").read_text())
figures = []  # (name, x label, x, {label: y})
if "per_n" in summary:  # variance run: the curve of every n with a successful replicate
    for n, counts in summary["per_n"].items():
        if counts["successes"] > 0:
            with open(here / f"curve_n{n}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            columns = {c: [float(r[c]) for r in rows] for c in rows[0]}
            figures.append((f"curve_n{n}", "lambda", columns.pop("lambda"), columns))
else:  # inconsistency run: per-n error statistics; the slope is fitted to the mean
    stats = ("mean_errors", "median_errors", "q10_errors", "q90_errors")
    figures.append(("errors", "n", summary["n_values"], {k: summary[k] for k in stats}))
for name, x_name, x, series in figures:
    for label, y in series.items():
        plt.loglog(x, y, label=label)
    plt.xlabel(x_name)
    plt.legend()
    plt.title(name)
    plt.savefig(here / f"{name}.png", dpi=120)
    plt.clf()
'''


def _write_summary(out: Path, summary: dict, t0: float) -> dict:
    """Write ``summary`` plus ``runtime_seconds`` and ``plot.py``; return what the file holds."""
    summary["runtime_seconds"] = time.time() - t0
    text = json.dumps(summary, sort_keys=True, indent=2)
    (out / "summary.json").write_text(text, encoding="utf-8")
    (out / "plot.py").write_text(PLOT_SCRIPT, encoding="utf-8")
    return json.loads(text)


def _map_replicates(one, cfg: ExperimentConfig, threads: int) -> dict[int, dict[int, object]]:
    """``one(n, r)`` for every (n, replicate) on ``threads`` workers, as ``{n: {r: result}}``.

    n runs in grid order and r ascending, on every CPU at ``threads = 0``, once the
    output directory is made.  A job whose solve fails numerically is left out, so
    an n's failures are the replicates missing from its table; any other error propagates.
    """
    if not (_is_int(threads) and threads >= 0):
        raise ConfigError(f"threads must be 0 (the CPU count) or positive (got {threads})")
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in the path
        not_dir = isinstance(err, (FileExistsError, NotADirectoryError))  # a file or dangling link
        why = "it or a parent is not a directory" if not_dir else err
        raise ConfigError(f"cannot make output_dir {cfg.output_dir}: {why}") from err
    failed = (np.linalg.LinAlgError, NotInPowerSpace)
    with ThreadPoolExecutor(max_workers=threads or os.cpu_count() or 1) as pool:
        futs = {n: {r: pool.submit(one, n, r) for r in range(cfg.replicates)} for n in cfg.n_grid}
    return {
        n: {r: f.result() for r, f in row.items() if not isinstance(f.exception(), failed)}
        for n, row in futs.items()
    }


def run_variance_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Evaluate the variance functionals over replicates and sample sizes.

    Writes per-n curve files with replicate means of V (both routes), V1, V2
    and the envelope shape, a ``summary.json`` with the |V - V1| contraction
    across n, and ``plot.py``.
    """
    if len(cfg.lambda_grid) == 0:
        raise ConfigError("variance experiment needs a lambda grid")
    t0 = time.time()
    out = Path(cfg.output_dir)
    kernel = cfg.build_kernel()

    def one(n: int, r: int) -> np.ndarray:
        X = sample_inputs("unit_interval", n, replicate_rng(cfg.seed, n, r))
        m = build_operator_model(kernel, X)
        v = [v_lambda_coefficient_route(m, cfg.gamma, l) for l in cfg.lambda_grid]
        v1 = [v1_lambda(m, cfg.gamma, l) for l in cfg.lambda_grid]
        del m  # free its factors, the replicate's largest arrays, before the Gram route
        v2 = [v2_lambda(kernel.spectrum, cfg.gamma, l, n) for l in cfg.lambda_grid]
        v_gram = [v_lambda_gram_route(kernel, X, cfg.gamma, l) for l in cfg.lambda_grid]
        return np.column_stack([v, v_gram, v1, v2])

    table = _map_replicates(one, cfg, threads)
    summary = {"per_n": {}, "config": asdict(cfg)}
    for n, by_r in table.items():
        per_n = {"successes": len(by_r), "failures": cfg.replicates - len(by_r)}
        summary["per_n"][str(n)] = per_n
        if not by_r:
            continue
        reps = np.array(list(by_r.values()))  # replicate x lambda x column
        envelope = envelope_shape(kernel.spectrum, cfg.gamma, cfg.lambda_grid, n)
        rows = zip(cfg.lambda_grid, *reps.mean(axis=0).T, envelope)
        _write_csv(out / f"curve_n{n}.csv", "lambda,v_coeff,v_gram,v1,v2,envelope", rows)
        v, v1 = reps[..., 0], reps[..., 2]
        rel = np.median(np.abs(v - v1) / np.maximum(v1, np.finfo(float).tiny), axis=1)
        per_n["median_rel_v_minus_v1"] = float(np.median(rel))
    return _write_summary(out, summary, t0)


def _error_stats(vals: np.ndarray) -> list[float | None]:
    """Mean, standard error, median, 10% and 90% quantiles; None (JSON null) without values."""
    if len(vals) == 0:
        return [None] * 5
    stderr = np.std(vals, ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    quantiles = (np.quantile(vals, 0.1), np.quantile(vals, 0.9))
    return [float(x) for x in (np.mean(vals), stderr, np.median(vals), *quantiles)]


def run_inconsistency_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Minimum-norm interpolation error growth across sample sizes.

    Per (n, replicate): draw X and noisy Y, fit the interpolant, record the
    exact squared gamma-norm error.  The slope of log(mean error) against
    log n is compared with the predicted exponent.  Only the CLI rejects n >= M
    (the truncation); run here, such an n gives errors that are not interpolation errors.
    """
    t0 = time.time()
    out = Path(cfg.output_dir)
    kernel = cfg.build_kernel()
    pred = theoretical_exponent(cfg.gamma, cfg.beta, embedding_index(kernel))

    def one(n: int, r: int) -> float:
        rng = replicate_rng(cfg.seed, n, r)
        X = sample_inputs("unit_interval", n, rng)
        Y = make_responses(X, np.full(n, cfg.f_star_b1), cfg.sigma, rng)
        fit = min_norm_fit(kernel, SampleSet(X, Y))
        return gamma_error_sq(fit, [cfg.f_star_b1], cfg.gamma)

    table = _map_replicates(one, cfg, threads)
    per_n = [np.array(list(by_r.values())) for by_r in table.values()]
    means, stderrs, medians, q10, q90 = (list(col) for col in zip(*map(_error_stats, per_n)))
    succ = [len(vals) for vals in per_n]
    fail = [cfg.replicates - len(vals) for vals in per_n]

    too_many_failures = any(f > MAX_FAILURE_FRACTION * cfg.replicates for f in fail)
    slope = stderr = None
    if len(cfg.n_grid) >= 3 and not too_many_failures:
        with contextlib.suppress(ValueError):  # the fit rejects a mean of 0 or inf
            slope, stderr = fit_loglog_slope(cfg.n_grid, means)

    summary = {
        "n_values": list(cfg.n_grid),
        "mean_errors": means,
        "stderr_errors": stderrs,
        "median_errors": medians,
        "q10_errors": q10,
        "q90_errors": q90,
        "success_counts": succ,
        "failure_counts": fail,
        "fitted_slope": slope,
        "slope_stderr": stderr,
        "theoretical_exponent": pred.exponent,
        "classification": pred.classification,
        "config": asdict(cfg),
    }
    rows = ((n, r, e) for n, by_r in table.items() for r, e in by_r.items())
    _write_csv(out / "errors.csv", "n,replicate,gamma_error_sq", rows)
    return _write_summary(out, summary, t0)
