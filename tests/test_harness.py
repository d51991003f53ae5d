import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkhslab import (
    ConfigError,
    ExperimentConfig,
    SampleSet,
    fit_loglog_slope,
    gamma_error_sq,
    make_responses,
    min_norm_fit,
    replicate_rng,
    run_inconsistency_experiment,
    run_variance_experiment,
    sample_inputs,
)
from rkhslab.cli import main as cli_main
from rules import array_rule, real_rule


class TestSampleInputs:
    def test_deterministic(self):
        a = sample_inputs("unit_interval", 10, replicate_rng(0, 10, 0))
        b = sample_inputs("unit_interval", 10, replicate_rng(0, 10, 0))
        assert np.array_equal(a, b)

    def test_streams_differ_across_replicates(self):
        a = sample_inputs("unit_interval", 10, replicate_rng(0, 10, 0))
        b = sample_inputs("unit_interval", 10, replicate_rng(0, 10, 1))
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        x = sample_inputs("unit_interval", 100_000, replicate_rng(1, 100_000, 0))
        assert abs(x.mean() - 0.5) <= 0.005

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            sample_inputs("torus", 5, replicate_rng(0, 5, 0))

    def test_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match=r"n must be an integer of at least 1 \(got 0\)"):
            sample_inputs("unit_interval", 0, replicate_rng(0, 0, 0))

    @pytest.mark.parametrize("n", [3.5, 3.0, True])
    def test_rejects_a_non_integer_n(self, n):
        # numpy raised TypeError for a float or a bool
        with pytest.raises(ValueError, match=rf"n must be an integer of at least 1 \(got {n}\)"):
            sample_inputs("unit_interval", n, replicate_rng(0, 3, 0))


class TestMakeResponses:
    def test_tiny_noise(self):
        rng = replicate_rng(3, 4, 0)
        y = make_responses(np.zeros(4), None, 1e-12, rng)
        assert np.max(np.abs(y)) <= 1e-10

    def test_noise_variance(self):
        rng = replicate_rng(4, 100_000, 0)
        y = make_responses(np.zeros(100_000), None, 2.0, rng)
        assert y.var() == pytest.approx(4.0, rel=0.02)

    def test_signal_plus_noise(self):
        rng = replicate_rng(5, 3, 0)
        f = np.array([1.0, 2.0, 3.0])
        y = make_responses(np.zeros(3), f, 1e-12, rng)
        assert np.allclose(y, f, atol=1e-10)

    # any other shape would broadcast against the noise or fail inside numpy, naming neither shape
    @pytest.mark.parametrize(
        "f, shape",
        [([[1.0, 2.0]], "(1, 2)"), ([1.0, 2.0, 3.0], "(3,)"), (1.0, "()")],
        ids=["row", "too_many", "number"],
    )
    def test_rejects_f_star_values_that_are_not_one_per_point(self, f, shape):
        message = f"shape {shape} for X of shape (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_responses(np.zeros(2), f, 1.0, replicate_rng(0, 2, 0))

    def test_rejects_nonpositive_sigma(self):
        # NaN and infinite noise levels would give all-NaN or infinite responses;
        # a one-element array was taken as its entry
        for sigma in (0.0, -1.0, float("nan"), float("inf"), float("-inf"), np.array([1.0])):
            with pytest.raises(ValueError, match=real_rule("sigma", "(0, inf)", sigma)):
                make_responses(np.zeros(2), None, sigma, replicate_rng(0, 2, 0))


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig(beta=2.0, gamma=0.5)
        assert cfg.n_grid == (64, 128, 256, 512, 1024)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=1.0, gamma=0.5),
            dict(beta=2.0, gamma=1.0),
            dict(beta=2.0, gamma=-0.1),
            dict(beta=2.0, gamma=0.5, sigma=0.0),
            dict(beta=2.0, gamma=0.5, n_grid=()),
            dict(beta=2.0, gamma=0.5, n_grid=(64, 64)),
            dict(beta=2.0, gamma=0.5, n_grid=(128, 64)),
            dict(beta=2.0, gamma=0.5, replicates=0),
            dict(beta=2.0, gamma=0.5, f_star_b1=float("inf")),
            dict(beta=2.0, gamma=0.5, lambda_grid=(0.0,)),
            dict(beta=2.0, gamma=0.5, lambda_grid=(0.5,)),
            dict(beta=100.0, gamma=0.5),  # mu_M = 4096^-100 underflows
            dict(beta=2.0, gamma=0.5, output_dir=3),
            dict(beta=2.0, gamma=0.5, seed=-1),
            dict(beta=2.0, gamma=0.5, sigma=1e51),
            dict(beta=2.0, gamma=0.5, f_star_b1=1e51),
            dict(beta=2.0, gamma=0.5, f_star_b1=-1e51),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, low", [("truncation", 2), ("replicates", 1), ("seed", 0), ("n_grid", 1)]
    )
    def test_rejects_a_count_field_by_the_count_rule(self, field, low):
        # each field had its own message, and a bool n_grid entry was "not a finite number"
        name = "every n_grid entry" if field == "n_grid" else field
        for bad in (low - 1, 2.5, 2.0, True):
            message = re.escape(f"{name} must be an integer of at least {low} (got {bad!r})")
            value = (bad,) if field == "n_grid" else bad
            with pytest.raises(ConfigError, match=message):
                ExperimentConfig(beta=2.0, gamma=0.5, **{field: value})

    @pytest.mark.parametrize(
        "field, interval, outside",
        [
            ("beta", "(1, inf)", 1.0),
            ("gamma", "[0, 1)", 1.0),
            ("sigma", "(0, 1e+50]", 0.0),
            ("zeta", "(-inf, inf)", -float("inf")),
            ("f_star_b1", "[-1e+50, 1e+50]", -1e51),
            ("lambda_grid", "(0, 0.5)", 0.5),
        ],
    )
    def test_rejects_a_real_field_by_the_real_rule(self, field, interval, outside):
        # each field had its own message, and a bool, a string or a list was "not a finite number"
        name = "every lambda_grid entry" if field == "lambda_grid" else field
        for bad in (outside, float("nan"), float("inf"), True, "0.3", [0.3]):
            value = (bad,) if field == "lambda_grid" else bad
            with pytest.raises(ConfigError, match=real_rule(name, interval, bad)):
                ExperimentConfig(**{"beta": 2.0, "gamma": 0.5, field: value})

    def test_real_fields_are_stored_as_plain_numbers(self):
        # a numpy scalar becomes a Python float, and an integer stays an int
        cfg = ExperimentConfig(beta=np.float32(2.0), gamma=0, zeta=np.int64(1))
        assert (type(cfg.beta), type(cfg.gamma), type(cfg.zeta)) == (float, int, int)
        assert (cfg.beta, cfg.gamma, cfg.zeta) == (2.0, 0, 1)

    def test_underflowing_spectrum_error_names_beta(self):
        with pytest.raises(ConfigError, match="beta = 100.0"):
            ExperimentConfig(beta=100.0, gamma=0.5)

    @pytest.mark.parametrize("experiment", ["inconsistency", "variance"])
    def test_builds_the_spectrum_once_when_made(self, tmp_path, monkeypatch, experiment):
        import rkhslab.harness as harness

        calls = []
        original = harness.make_power_law_spectrum

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "make_power_law_spectrum", spy)
        make_config, run = {
            "inconsistency": (small_inconsistency_config, run_inconsistency_experiment),
            "variance": (small_variance_config, run_variance_experiment),
        }[experiment]
        cfg = make_config(tmp_path)
        assert calls == [(2.0, 0.0, 256)]
        run(cfg)
        assert calls == [(2.0, 0.0, 256)]
        assert cfg.build_kernel() is cfg.build_kernel()

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 2.0, "gamma": 0.5, "n_grid": [8, 16, 32]}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.n_grid == (8, 16, 32)

    def test_from_json_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 2.0, "gamma": 0.5, "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(tmp_path / "absent.json")

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_from_json_array(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[2.0, 0.5]")
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ExperimentConfig.from_json(path)

    # a file that is not UTF-8, and an integer literal longer than Python reads from text
    @pytest.mark.parametrize(
        "content",
        [b'{"beta": 2.0, "gamma": 0.5, "x": "\xff"}', b'{"seed": 1' + b"0" * 5000 + b"}"],
        ids=["not_utf8", "long_int"],
    )
    def test_from_json_unreadable_content(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_json(path)

    # a grid is a list, tuple, range or 1-d array of numbers; nothing else is a grid
    @pytest.mark.parametrize(
        "key, grid",
        [
            ("n_grid", 64),
            ("lambda_grid", 0.1),
            ("n_grid", None),
            ("n_grid", "8"),
            ("n_grid", {8, 16}),
            ("lambda_grid", {"a": 0.1}),
            ("n_grid", [[8, 16]]),
            ("n_grid", np.array([[8, 16]])),
            ("n_grid", np.array(8)),
        ],
        ids=["number", "lambda_number", "none", "string", "set", "mapping", "nested", "2d", "0d"],
    )
    def test_rejects_a_grid_that_is_not_a_1d_sequence_of_numbers(self, tmp_path, key, grid):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(beta=2.0, gamma=0.5, **{key: grid}, output_dir=str(out))
        assert not out.exists()

    def test_list_grids_are_stored_as_tuples(self):
        listed = ExperimentConfig(beta=2.0, gamma=0.5, n_grid=[8, 16], lambda_grid=[0.1])
        twin = ExperimentConfig(beta=2.0, gamma=0.5, n_grid=(8, 16), lambda_grid=(0.1,))
        assert listed == twin
        assert hash(listed) == hash(twin)
        assert listed.n_grid == (8, 16) and listed.lambda_grid == (0.1,)


class TestFitLoglogSlope:
    def test_exact_square(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, stderr = fit_loglog_slope(x, x**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_constant(self):
        x = np.array([1.0, 2.0, 4.0])
        slope, _ = fit_loglog_slope(x, np.full(3, 5.0))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        x = np.geomspace(1.0, 100.0, 30)
        y = x**1.5 * (1.0 + 0.01 * rng.standard_normal(30))
        slope, _ = fit_loglog_slope(x, y)
        assert slope == pytest.approx(1.5, abs=0.1)

    def test_rejects_short_or_degenerate(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -1.0, 2.0])

    @pytest.mark.parametrize(
        "xs, ys, name, bad",
        [
            ([1.0, 2.0, 3.0], [1.0, np.nan, 2.0], "y", np.nan),
            ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0], "x", np.inf),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 2.0], "y", np.inf),
            ([np.nan, 2.0, 3.0], [1.0, 2.0, 3.0], "x", np.nan),
        ],
    )
    def test_rejects_non_finite_points(self, xs, ys, name, bad, capfd):
        with pytest.raises(ValueError, match=array_rule(name, "(0, inf)", np.float64(bad))):
            fit_loglog_slope(xs, ys)
        # rejected before LAPACK sees the point, which would print to stderr
        assert capfd.readouterr().err == ""

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    def test_three_points_have_a_stderr(self):
        _, stderr = fit_loglog_slope([1.0, 2.0, 4.0], [1.0, 3.0, 4.0])
        assert stderr > 0


def small_variance_config(out, seed=0):
    return ExperimentConfig(
        beta=2.0,
        gamma=0.0,
        truncation=256,
        n_grid=(16, 32, 64),
        replicates=4,
        lambda_grid=(1e-3, 1e-2, 1e-1),
        seed=seed,
        output_dir=str(out),
    )


class TestVarianceExperiment:
    def test_outputs_and_monotonicity(self, tmp_path):
        cfg = small_variance_config(tmp_path)
        summary = run_variance_experiment(cfg)
        for n in cfg.n_grid:
            lines = (tmp_path / f"curve_n{n}.csv").read_text().splitlines()
            assert lines[0] == "lambda,v_coeff,v_gram,v1,v2,envelope"
            v = np.array([float(l.split(",")[1]) for l in lines[1:]])
            assert np.all(np.diff(v) <= 1e-10)
        assert (tmp_path / "plot.py").exists()
        assert set(summary["per_n"]) == {"16", "32", "64"}

    def test_v_v1_contraction_in_n(self, tmp_path):
        cfg = small_variance_config(tmp_path)
        summary = run_variance_experiment(cfg)
        rel = [summary["per_n"][str(n)]["median_rel_v_minus_v1"] for n in cfg.n_grid]
        assert rel[-1] < rel[0]

    def test_deterministic_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_variance_experiment(small_variance_config(out1, seed=7))
        run_variance_experiment(small_variance_config(out2, seed=7))
        for name in ("curve_n16.csv", "curve_n64.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_match_serial(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_variance_experiment(small_variance_config(out1, seed=3), threads=1)
        run_variance_experiment(small_variance_config(out2, seed=3), threads=4)
        assert (out1 / "curve_n64.csv").read_bytes() == (out2 / "curve_n64.csv").read_bytes()

    def test_rejects_missing_or_large_lambda(self, tmp_path):
        import dataclasses

        cfg = small_variance_config(tmp_path)
        with pytest.raises(ConfigError):
            run_variance_experiment(dataclasses.replace(cfg, lambda_grid=()))
        with pytest.raises(ConfigError):
            run_variance_experiment(dataclasses.replace(cfg, lambda_grid=(0.6,)))


def small_inconsistency_config(out, seed=0):
    return ExperimentConfig(
        beta=2.0,
        gamma=0.5,
        truncation=256,
        n_grid=(8, 16, 32),
        replicates=4,
        seed=seed,
        output_dir=str(out),
    )


class TestInconsistencyExperiment:
    def test_outputs(self, tmp_path):
        cfg = small_inconsistency_config(tmp_path)
        result = run_inconsistency_experiment(cfg)
        assert result["success_counts"] == [4, 4, 4]
        assert result["fitted_slope"] is not None
        assert result["theoretical_exponent"] == pytest.approx(1.0)
        assert result["classification"] == "inconsistent"
        lines = (tmp_path / "errors.csv").read_text().splitlines()
        assert lines[0] == "n,replicate,gamma_error_sq"
        assert len(lines) == 1 + 3 * 4
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["config"]["beta"] == 2.0

    def test_deterministic_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_inconsistency_experiment(small_inconsistency_config(out1, seed=5))
        run_inconsistency_experiment(small_inconsistency_config(out2, seed=5))
        assert (out1 / "errors.csv").read_bytes() == (out2 / "errors.csv").read_bytes()

    def test_no_slope_with_short_grid(self, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(small_inconsistency_config(tmp_path), n_grid=(8, 16))
        result = run_inconsistency_experiment(cfg)
        assert result["fitted_slope"] is None

    def test_single_mode_target(self, tmp_path):
        import dataclasses

        zero = small_inconsistency_config(tmp_path / "zero")
        mode = dataclasses.replace(zero, output_dir=str(tmp_path / "mode"), f_star_b1=1.7)
        zero_errors = run_inconsistency_experiment(zero)["mean_errors"]
        result = run_inconsistency_experiment(mode)
        assert all(np.isfinite(result["mean_errors"]))
        assert result["mean_errors"] != zero_errors

    def test_single_mode_builds_two_basis_matrices_per_fit(self, tmp_path, monkeypatch):
        import dataclasses

        from rkhslab import SpectralKernel

        calls = []
        original = SpectralKernel.basis_matrix

        def counting(self, x):
            calls.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(SpectralKernel, "basis_matrix", counting)
        cfg = dataclasses.replace(small_inconsistency_config(tmp_path), f_star_b1=1.7)
        result = run_inconsistency_experiment(cfg)
        assert result["success_counts"] == [4, 4, 4]
        # one Gram matrix for the fit, one basis matrix for its L2 coefficients
        assert sorted(calls) == sorted(2 * [n for n in cfg.n_grid for _ in range(4)])

    def test_zero_coefficient_under_an_overflowing_weight(self, tmp_path):
        # mu_64 = 64^-172 is subnormal, so mu_64^-0.999 overflows where the fit's
        # squared coefficient underflows to 0
        cfg = ExperimentConfig(
            beta=172.0,
            gamma=0.999,
            truncation=64,
            n_grid=(4, 8, 16),
            replicates=3,
            output_dir=str(tmp_path),
        )
        assert run_inconsistency_experiment(cfg)["success_counts"] == [3, 3, 3]

    def test_amplitudes_at_the_bound_give_finite_statistics(self, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(small_inconsistency_config(tmp_path), sigma=1e50, f_star_b1=-1e50)
        result = run_inconsistency_experiment(cfg)
        assert result["failure_counts"] == [0, 0, 0]
        stats = ("mean_errors", "stderr_errors", "median_errors", "q10_errors", "q90_errors")
        assert np.all(np.isfinite([result[k] for k in stats]))

    def test_zero_amplitude_mode_matches_zero_target(self, tmp_path):
        # the default f_star_b1 = 0 is f* = 0: each error is the fit's own gamma-norm
        cfg = small_inconsistency_config(tmp_path)
        assert cfg.f_star_b1 == 0.0
        run_inconsistency_experiment(cfg)
        rows = np.loadtxt(tmp_path / "errors.csv", delimiter=",", skiprows=1)
        assert len(rows) == 12
        for n, r, err in rows[::4].tolist():
            rng = replicate_rng(cfg.seed, int(n), int(r))
            X = sample_inputs("unit_interval", int(n), rng)
            Y = make_responses(X, None, cfg.sigma, rng)
            fit = min_norm_fit(cfg.build_kernel(), SampleSet(X, Y))
            assert err == pytest.approx(gamma_error_sq(fit, np.zeros(0), cfg.gamma), rel=1e-12)



def output_files(out: Path) -> dict:
    """Every file in ``out`` by name, ``summary.json`` without its run time and output directory."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    lines = files["summary.json"].splitlines()
    drop = (b'"runtime_seconds"', b'"output_dir"')
    files["summary.json"] = [l for l in lines if not any(key in l for key in drop)]
    return files


BOTH_EXPERIMENTS = pytest.mark.parametrize(
    "run, config",
    [
        (run_variance_experiment, small_variance_config),
        (run_inconsistency_experiment, small_inconsistency_config),
    ],
    ids=["variance", "inconsistency"],
)


@BOTH_EXPERIMENTS
def test_every_output_file_is_independent_of_the_thread_count(tmp_path, run, config):
    # 0 selects the CPU count
    for threads in (1, 2, 0):
        out = tmp_path / f"threads{threads}"
        summary = run(config(out, seed=9), threads=threads)
        assert summary == json.loads((out / "summary.json").read_text())
    assert output_files(tmp_path / "threads1") == output_files(tmp_path / "threads2")
    assert output_files(tmp_path / "threads1") == output_files(tmp_path / "threads0")


TINY_CONFIG = dict(
    beta=2.0, gamma=0.5, truncation=64, n_grid=(4, 8, 16), replicates=2, lambda_grid=(0.01, 0.1)
)


# a value of each kind that numpy or range gives, and its twin in tuples of Python numbers
@pytest.mark.parametrize(
    "key, value, plain",
    [
        ("n_grid", np.array([4, 8, 16]), (4, 8, 16)),
        ("n_grid", range(4, 17, 4), (4, 8, 12, 16)),
        ("lambda_grid", np.array([0.01, 0.1]), (0.01, 0.1)),
        ("seed", np.int64(3), 3),
        ("truncation", np.int64(64), 64),
        ("replicates", np.int64(2), 2),
        ("beta", np.int64(2), 2),
        ("beta", np.float32(2.2), float(np.float32(2.2))),
    ],
    ids=[
        "n_array", "n_range", "lambda_array", "seed", "truncation", "replicates", "beta",
        "beta_float32",
    ],
)
@pytest.mark.parametrize(
    "run",
    [run_variance_experiment, run_inconsistency_experiment],
    ids=["variance", "inconsistency"],
)
def test_numpy_values_and_ranges_write_the_outputs_of_their_python_twin(
    tmp_path, run, key, value, plain
):
    for name, v in (("given", value), ("twin", plain)):
        run(ExperimentConfig(**{**TINY_CONFIG, key: v}, output_dir=str(tmp_path / name)))
    given = output_files(tmp_path / "given")
    assert {"summary.json", "plot.py"} <= set(given)
    assert given == output_files(tmp_path / "twin")


@BOTH_EXPERIMENTS
def test_negative_thread_count_is_rejected(tmp_path, run, config):
    cfg = config(tmp_path / "run", seed=9)
    with pytest.raises(ConfigError, match=r"threads must be 0 \(the CPU count\) or positive"):
        run(cfg, threads=-3)
    assert not Path(cfg.output_dir).exists()


@BOTH_EXPERIMENTS
@pytest.mark.parametrize("threads", [2.5, True])
def test_a_non_integer_thread_count_is_rejected(tmp_path, run, config, threads):
    # 2.5 started three workers and True one
    cfg = config(tmp_path / "run", seed=9)
    with pytest.raises(ConfigError, match=r"threads must be 0 \(the CPU count\) or positive"):
        run(cfg, threads=threads)
    assert not Path(cfg.output_dir).exists()


@BOTH_EXPERIMENTS
@pytest.mark.parametrize("below", ["F", "F/sub", "dangling", "dangling/sub"])
def test_an_output_path_below_a_file_fails_before_any_job(
    tmp_path, monkeypatch, run, config, below
):
    import rkhslab.harness as harness

    (tmp_path / "F").write_text("a file")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    jobs = []
    monkeypatch.setattr(harness, "replicate_rng", lambda *args: jobs.append(args))
    with pytest.raises(ConfigError, match="is not a directory"):
        run(config(tmp_path / below))
    assert jobs == []
    assert (tmp_path / "F").read_text() == "a file"


def deny_mkdir(monkeypatch):
    """Make every ``Path.mkdir`` raise PermissionError, as a read-only parent does for non-root."""

    def mkdir(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", mkdir)


@BOTH_EXPERIMENTS
@pytest.mark.parametrize("cause", ["permission_denied", "nul_byte"])
def test_an_output_directory_that_cannot_be_made_fails_before_any_job(
    tmp_path, monkeypatch, run, config, cause
):
    import rkhslab.harness as harness

    jobs = []
    monkeypatch.setattr(harness, "replicate_rng", lambda *args: jobs.append(args))
    out = str(tmp_path / "run")
    if cause == "permission_denied":
        deny_mkdir(monkeypatch)
    else:  # os.mkdir raises ValueError for it, not OSError
        out += "\0"
    with pytest.raises(ConfigError, match="cannot make output_dir .*(Permission denied|null byte)"):
        run(config(out))
    assert jobs == []


def fail_one_replicate(monkeypatch, name, cfg, n, r):
    """Make ``harness.<name>`` raise LinAlgError on replicate (n, r) alone.

    The job is recognised by its inputs X, drawn as the harness draws them.
    """
    import rkhslab.harness as harness

    bad = sample_inputs("unit_interval", n, replicate_rng(cfg.seed, n, r))
    original = getattr(harness, name)

    def failing(kernel, arg, *rest):
        X = arg.X if isinstance(arg, SampleSet) else arg
        if np.array_equal(X, bad):
            raise np.linalg.LinAlgError("forced")
        return original(kernel, arg, *rest)

    monkeypatch.setattr(harness, name, failing)


class TestPartialFailure:
    def test_inconsistency_keeps_the_other_replicates(self, tmp_path, monkeypatch):
        import dataclasses

        clean = small_inconsistency_config(tmp_path / "clean")
        clean_result = run_inconsistency_experiment(clean)
        cfg = dataclasses.replace(clean, output_dir=str(tmp_path / "partial"))
        fail_one_replicate(monkeypatch, "min_norm_fit", cfg, 16, 2)
        result = run_inconsistency_experiment(cfg)
        assert result["success_counts"] == [4, 3, 4]
        assert result["failure_counts"] == [0, 1, 0]
        # the other rows keep their order, their r labels and their values
        lines = (tmp_path / "partial" / "errors.csv").read_text().splitlines()
        clean_lines = (tmp_path / "clean" / "errors.csv").read_text().splitlines()
        assert lines == [l for l in clean_lines if not l.startswith("16,2,")]
        errors = np.loadtxt(tmp_path / "partial" / "errors.csv", delimiter=",", skiprows=1)
        survivors = errors[errors[:, 0] == 16, 2]
        assert result["mean_errors"][1] == pytest.approx(np.mean(survivors), rel=1e-12)
        assert result["mean_errors"][::2] == clean_result["mean_errors"][::2]

    def test_an_n_without_successes_writes_null_statistics(self, tmp_path, monkeypatch):
        import rkhslab.harness as harness

        original = harness.min_norm_fit

        def failing_at_16(kernel, s):
            if s.n == 16:
                raise np.linalg.LinAlgError("forced")
            return original(kernel, s)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        monkeypatch.setattr(harness, "min_norm_fit", failing_at_16)
        result = run_inconsistency_experiment(small_inconsistency_config(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert summary == result
        assert summary["failure_counts"] == [0, 4, 0]
        stats = ("mean_errors", "stderr_errors", "median_errors", "q10_errors", "q90_errors")
        assert [summary[k][1] for k in stats] == [None] * 5
        assert all(summary[k][0] is not None and summary[k][2] is not None for k in stats)
        assert summary["fitted_slope"] is None

    def test_variance_curve_is_the_mean_of_the_survivors(self, tmp_path, monkeypatch):
        import dataclasses

        from rkhslab import (
            build_operator_model,
            v1_lambda,
            v2_lambda,
            v_lambda_coefficient_route,
            v_lambda_gram_route,
        )

        clean = small_variance_config(tmp_path / "clean")
        run_variance_experiment(clean)
        cfg = dataclasses.replace(clean, output_dir=str(tmp_path / "partial"))
        fail_one_replicate(monkeypatch, "v_lambda_gram_route", cfg, 32, 1)
        summary = run_variance_experiment(cfg)
        assert {n: c["failures"] for n, c in summary["per_n"].items()} == {
            "16": 0,
            "32": 1,
            "64": 0,
        }
        for n in (16, 64):
            name = f"curve_n{n}.csv"
            assert (tmp_path / "partial" / name).read_bytes() == (
                tmp_path / "clean" / name
            ).read_bytes()
        kernel, lam = cfg.build_kernel(), np.array(cfg.lambda_grid)
        reps = []
        for r in (0, 2, 3):
            X = sample_inputs("unit_interval", 32, replicate_rng(cfg.seed, 32, r))
            m = build_operator_model(kernel, X)
            v = [v_lambda_coefficient_route(m, cfg.gamma, l) for l in lam]
            v1 = [v1_lambda(m, cfg.gamma, l) for l in lam]
            v2 = [v2_lambda(kernel.spectrum, cfg.gamma, l, 32) for l in lam]
            v_gram = [v_lambda_gram_route(kernel, X, cfg.gamma, l) for l in lam]
            reps.append(np.column_stack([v, v_gram, v1, v2]))
        got = np.loadtxt(tmp_path / "partial" / "curve_n32.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(got[:, 1:5], np.mean(reps, axis=0), rtol=1e-12)


class StandInPyplot(types.ModuleType):
    """``matplotlib.pyplot`` that records its calls instead of drawing."""

    def __init__(self):
        super().__init__("matplotlib.pyplot")
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


@pytest.fixture
def pyplot(monkeypatch):
    stand_in = StandInPyplot()
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = stand_in
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", stand_in)
    return stand_in


def run_plot_script(out: Path, pyplot) -> list:
    """Run ``out/plot.py``; returns the stand-in's (name, args, kwargs) calls."""
    pyplot.calls.clear()
    runpy.run_path(str(out / "plot.py"), run_name="__main__")
    return pyplot.calls


class TestPlotScript:
    def test_inconsistency_plots_the_per_n_error_statistics(self, tmp_path, pyplot):
        result = run_inconsistency_experiment(small_inconsistency_config(tmp_path))
        calls = run_plot_script(tmp_path, pyplot)
        lines = {kw["label"]: args for name, args, kw in calls if name == "loglog"}
        assert lines == {
            "mean_errors": (result["n_values"], result["mean_errors"]),
            "median_errors": (result["n_values"], result["median_errors"]),
            "q10_errors": (result["n_values"], result["q10_errors"]),
            "q90_errors": (result["n_values"], result["q90_errors"]),
        }
        saved = [args for name, args, _ in calls if name == "savefig"]
        assert saved == [(tmp_path / "errors.png",)]

    def test_variance_plots_the_curves_of_this_run_only(self, tmp_path, pyplot, monkeypatch):
        import rkhslab.harness as harness

        cfg = small_variance_config(tmp_path)
        run_variance_experiment(cfg)
        (tmp_path / "curve_n8.csv").write_text("lambda,v_coeff\n0.1,1\n")  # another n_grid
        original = harness.v_lambda_gram_route

        def fails_at_32(kernel, X, *rest):
            if len(X) == 32:
                raise np.linalg.LinAlgError("forced")
            return original(kernel, X, *rest)

        # every replicate at n = 32 fails, so curve_n32.csv is the stale one of the first run
        monkeypatch.setattr(harness, "v_lambda_gram_route", fails_at_32)
        run_variance_experiment(cfg)
        calls = run_plot_script(tmp_path, pyplot)
        saved = sorted(args[0].name for name, args, _ in calls if name == "savefig")
        assert saved == ["curve_n16.png", "curve_n64.png"]
        curve = np.loadtxt(tmp_path / "curve_n64.csv", delimiter=",", skiprows=1)
        drawn = [(kw["label"], args) for name, args, kw in calls if name == "loglog"][-5:]
        assert [label for label, _ in drawn] == ["v_coeff", "v_gram", "v1", "v2", "envelope"]
        for j, (_, (x, y)) in enumerate(drawn, start=1):
            assert x == curve[:, 0].tolist() and y == curve[:, j].tolist()


def test_both_experiments_write_the_fixed_plot_script(tmp_path):
    from rkhslab.harness import PLOT_SCRIPT

    run_variance_experiment(small_variance_config(tmp_path / "v"))
    run_inconsistency_experiment(small_inconsistency_config(tmp_path / "i"))
    for out in ("v", "i"):
        assert (tmp_path / out / "plot.py").read_bytes() == PLOT_SCRIPT.encode()
    # matplotlib is not a dependency: TestPlotScript runs the script under a stand-in
    compile(PLOT_SCRIPT, "plot.py", "exec")


IMPORT_CHECK = """
import sys, tempfile
import rkhslab

common = dict(beta=2.0, gamma=0.5, truncation=32, n_grid=(4, 8), replicates=1)
print(" ".join(sorted(sys.modules)))
with tempfile.TemporaryDirectory() as out:
    rkhslab.run_variance_experiment(
        rkhslab.ExperimentConfig(**common, lambda_grid=(0.1,), output_dir=out + "/v")
    )
    rkhslab.run_inconsistency_experiment(rkhslab.ExperimentConfig(**common, output_dir=out + "/i"))
print(" ".join(sorted(sys.modules)))
"""


def test_experiments_load_no_heavy_scipy_subpackages():
    # the experiments load no scipy subpackage: the dual solve of the inconsistency
    # experiment loads scipy's compiled LAPACK module alone, not scipy.linalg; the script
    # prints the loaded modules after the import and after a run of each experiment
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    imported, loaded = (set(line.split()) for line in proc.stdout.splitlines())
    assert "rkhslab" in imported
    assert not [m for m in imported if m.partition(".")[0] == "scipy"]
    for pkg in ("scipy.linalg", "scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse"):
        assert pkg not in loaded, f"{pkg} imported by the package or the experiments"
    # mpmath serves Spectrum.tail alone, which neither experiment calls
    assert "mpmath" not in loaded


class TestCli:
    def write_config(self, tmp_path, extra=None):
        cfg = {
            "beta": 2.0,
            "gamma": 0.5,
            "truncation": 128,
            "n_grid": [8, 16, 32],
            "replicates": 2,
        }
        cfg.update(extra or {})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_inconsistency_success(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli_main(
            ["inconsistency", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert code == 0
        assert "fitted slope" in capsys.readouterr().out
        assert (tmp_path / "run" / "errors.csv").exists()

    def test_variance_success(self, tmp_path):
        path = self.write_config(tmp_path, {"lambda_grid": [1e-2, 1e-1]})
        code = cli_main(
            ["variance", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert code == 0
        assert (tmp_path / "run" / "curve_n32.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"beta": 0.5, "gamma": 0.5}))
        assert cli_main(["inconsistency", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_output_path_below_a_file_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli_main(["inconsistency", "--config", str(path), "--out", str(path / "sub")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert path.is_file()

    def test_negative_threads_is_a_usage_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "run"
        args = ["inconsistency", "--config", str(path), "--out", str(out), "--threads", "-3"]
        assert cli_main(args) == 2
        assert "config error: threads must be 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["inconsistency", "variance"])
    def test_output_directory_that_cannot_be_made_exit_code(
        self, tmp_path, monkeypatch, capsys, command
    ):
        path = self.write_config(tmp_path, {"lambda_grid": [1e-2]})
        deny_mkdir(monkeypatch)
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config error: cannot make output_dir" in capsys.readouterr().err

    def test_threads_leave_the_csvs_unchanged(self, tmp_path):
        path = self.write_config(tmp_path)
        runs = {tmp_path / "default": [], tmp_path / "threads2": ["--threads", "2"]}
        for out, extra in runs.items():
            args = ["inconsistency", "--config", str(path), "--out", str(out)]
            assert cli_main(args + extra) == 0
        csvs = [{p.name: p.read_bytes() for p in out.glob("*.csv")} for out in runs]
        assert csvs[0] == csvs[1] and "errors.csv" in csvs[0]

    def test_seed_override_changes_outputs(self, tmp_path):
        path = self.write_config(tmp_path)
        for seed, name in ((1, "r1"), (2, "r2")):
            assert (
                cli_main(
                    [
                        "inconsistency",
                        "--config",
                        str(path),
                        "--seed",
                        str(seed),
                        "--out",
                        str(tmp_path / name),
                    ]
                )
                == 0
            )
        a = (tmp_path / "r1" / "errors.csv").read_bytes()
        b = (tmp_path / "r2" / "errors.csv").read_bytes()
        assert a != b

    def test_overrides_build_the_spectrum_once(self, tmp_path, monkeypatch):
        import rkhslab.harness as harness

        calls = []
        original = harness.make_power_law_spectrum

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "make_power_law_spectrum", spy)
        path = self.write_config(tmp_path)
        out = tmp_path / "run"
        code = cli_main(["inconsistency", "--config", str(path), "--seed", "4", "--out", str(out)])
        assert code == 0
        assert calls == [(2.0, 0.0, 128)]
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["seed"], config["output_dir"]) == (4, str(out))

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        import rkhslab.harness as harness

        def always_fail(kernel, s):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(harness, "min_norm_fit", always_fail)
        path = self.write_config(tmp_path)
        code = cli_main(
            ["inconsistency", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert code == 3

    def test_variance_failure_exit_code(self, tmp_path, monkeypatch):
        import rkhslab.harness as harness

        def always_fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(harness, "v_lambda_gram_route", always_fail)
        path = self.write_config(tmp_path, {"lambda_grid": [1e-2]})
        code = cli_main(["variance", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert [c["failures"] for c in summary["per_n"].values()] == [2, 2, 2]

    @pytest.mark.parametrize("extra", [{"basis": "cosine_unit_interval"}, {"f_star": "zero"}])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, extra):
        path = self.write_config(tmp_path, extra)
        code = cli_main(["inconsistency", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("inconsistency", {"truncation": 1}),
            ("variance", {"truncation": 1, "lambda_grid": [1e-2]}),
            ("inconsistency", {"n_grid": [8.5, 16]}),
            ("variance", {"n_grid": [8.5, 16], "lambda_grid": [1e-2]}),
            ("inconsistency", {"truncation": 32, "n_grid": [8, 16, 32]}),
            ("variance", {"beta": 200.0, "lambda_grid": [1e-2]}),  # 128^-200 underflows
            ("inconsistency", {"n_grid": "abc"}),
            ("variance", {"lambda_grid": {"a": 0.1}}),
            # the 10^30 x 8 basis matrix lies past numpy's array size limit: this exited 1
            # with a traceback from rng.random, after making the output directory
            ("variance", {"truncation": 8, "n_grid": [10**30], "lambda_grid": [0.1]}),
        ],
    )
    def test_invalid_config_exit_code(self, tmp_path, capsys, command, extra):
        path = self.write_config(tmp_path, extra)
        code = cli_main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


# any JSON value, NaN and infinities included (Python's json reads them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
NON_INTEGERS = JSON_VALUES.filter(lambda v: not isinstance(v, int) or isinstance(v, bool))
# sizes that set the work (truncation, n_grid entries, replicates) are drawn
# small or of a non-integer type, so that a run stays fast
SMALL_SIZES = st.integers(-2, 40) | st.floats(-2.0, 40.0) | NON_INTEGERS
FIELD_VALUES = {
    "beta": st.floats(0.5, 4.0) | JSON_VALUES,
    "gamma": st.floats(-0.5, 1.5) | JSON_VALUES,
    "sigma": st.floats(0.0, 2.0) | JSON_VALUES,
    "zeta": st.floats(-2.0, 2.0) | JSON_VALUES,
    "truncation": st.integers(-2, 48) | NON_INTEGERS,
    "n_grid": st.lists(SMALL_SIZES, max_size=4) | NON_INTEGERS,
    "replicates": st.integers(-1, 3) | NON_INTEGERS,
    "lambda_grid": st.lists(st.floats(-0.1, 0.6) | JSON_VALUES, max_size=3) | JSON_VALUES,
    "seed": JSON_VALUES,
    "f_star_b1": st.floats(-3.0, 3.0) | JSON_VALUES,
    "output_dir": JSON_VALUES,
}
# a small valid config, then up to three fields replaced or dropped and
# possibly an unknown key, so that every exit path is reached
VALID_CONFIGS = st.fixed_dictionaries(
    {
        "beta": st.floats(1.1, 4.0),
        "gamma": st.floats(0.0, 0.99),
        "truncation": st.integers(2, 48),
        "n_grid": st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted),
        "replicates": st.integers(1, 3),
        "lambda_grid": st.lists(st.floats(1e-6, 0.49), min_size=1, max_size=3),
    },
    optional={"sigma": st.floats(0.01, 2.0), "seed": st.integers(0, 2**40)},
)
FIELD_EDITS = st.lists(
    st.sampled_from(sorted(FIELD_VALUES)).flatmap(
        lambda k: st.tuples(st.just(k), st.none() | FIELD_VALUES[k].map(lambda v: [v]))
    ),
    max_size=3,
)
SMALL_CONFIG = {
    "beta": 2.0,
    "gamma": 0.5,
    "truncation": 4,
    "n_grid": [1, 2],
    "replicates": 1,
    "lambda_grid": [0.1],
}
UNKNOWN_KEYS = st.dictionaries(
    st.text(max_size=4).filter(lambda k: k not in FIELD_VALUES), JSON_VALUES, max_size=1
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["variance", "inconsistency"]),
    config=VALID_CONFIGS,
    edits=FIELD_EDITS,
    unknown=UNKNOWN_KEYS,
)
# mu_M = 2^-1075 underflows to 0
@example("variance", dict(SMALL_CONFIG, beta=1075.0, truncation=2), [], {})
# mu_2 = (2 (log 2)^971)^-2 overflows; the running minimum makes it 1
@example("inconsistency", dict(SMALL_CONFIG, truncation=2, n_grid=[1]), [("zeta", [971.0])], {})
# log(1e6)^266 overflows in the envelope shape
@example(
    "variance",
    dict(SMALL_CONFIG, beta=1.125, lambda_grid=[1e-6]),
    [("zeta", [-266.0])],
    {},
)
def test_cli_fuzzed_config_never_raises(command, config, edits, unknown):
    for key, value in edits:  # None drops the key, [v] sets it to v
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value[0]
    with tempfile.TemporaryDirectory() as tmp:
        path, run = Path(tmp) / "cfg.json", Path(tmp) / "run"
        path.write_text(json.dumps({**config, **unknown}))
        code = cli_main([command, "--config", str(path), "--out", str(run)])
        assert code in (0, 2, 3)
        assert code != 2 or not run.exists()  # an invalid config writes nothing
