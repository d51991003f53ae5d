import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_rejects_nonpositive_sigma(self):
        # NaN and infinite noise levels would give all-NaN or infinite responses
        for sigma in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="sigma must be positive"):
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
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

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
        "xs, ys",
        [
            ([1.0, 2.0, 3.0], [1.0, np.nan, 2.0]),
            ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 2.0]),
            ([np.nan, 2.0, 3.0], [1.0, 2.0, 3.0]),
        ],
    )
    def test_rejects_non_finite_points(self, xs, ys, capfd):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_loglog_slope(xs, ys)
        # rejected before LAPACK sees the point, which would print to stderr
        assert capfd.readouterr().err == ""

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
        assert (tmp_path / "curve.csv").read_bytes() == (
            tmp_path / f"curve_n{cfg.n_grid[-1]}.csv"
        ).read_bytes()
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
        for name in ("curve.csv", "curve_n16.csv", "curve_n64.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_match_serial(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_variance_experiment(small_variance_config(out1, seed=3), threads=1)
        run_variance_experiment(small_variance_config(out2, seed=3), threads=4)
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

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
        assert result.success_counts == [4, 4, 4]
        assert result.fitted_slope is not None
        assert result.theoretical_exponent == pytest.approx(1.0)
        assert result.classification == "inconsistent"
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
        assert result.fitted_slope is None

    def test_single_mode_target(self, tmp_path):
        import dataclasses

        zero = small_inconsistency_config(tmp_path / "zero")
        mode = dataclasses.replace(zero, output_dir=str(tmp_path / "mode"), f_star_b1=1.7)
        zero_errors = run_inconsistency_experiment(zero).mean_errors
        result = run_inconsistency_experiment(mode)
        assert all(np.isfinite(result.mean_errors))
        assert result.mean_errors != zero_errors

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
        assert result.success_counts == [4, 4, 4]
        # one Gram matrix for the fit, one basis matrix for its L2 coefficients
        assert sorted(calls) == sorted(2 * [n for n in cfg.n_grid for _ in range(4)])

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
        assert result.success_counts == [4, 3, 4]
        assert result.failure_counts == [0, 1, 0]
        # the other rows keep their order, their r labels and their values
        lines = (tmp_path / "partial" / "errors.csv").read_text().splitlines()
        clean_lines = (tmp_path / "clean" / "errors.csv").read_text().splitlines()
        assert lines == [l for l in clean_lines if not l.startswith("16,2,")]
        errors = np.loadtxt(tmp_path / "partial" / "errors.csv", delimiter=",", skiprows=1)
        survivors = errors[errors[:, 0] == 16, 2]
        assert result.mean_errors[1] == pytest.approx(np.mean(survivors), rel=1e-12)
        assert result.mean_errors[::2] == clean_result.mean_errors[::2]

    def test_variance_curve_is_the_mean_of_the_survivors(self, tmp_path, monkeypatch):
        import dataclasses

        from rkhslab import build_operator_model, v_lambda_gram_route, variance_curve

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
            curve = variance_curve(build_operator_model(kernel, X), cfg.gamma, lam)
            v_gram = [v_lambda_gram_route(kernel, X, cfg.gamma, l) for l in lam]
            reps.append(np.column_stack([curve.v, v_gram, curve.v1, curve.v2]))
        got = np.loadtxt(tmp_path / "partial" / "curve_n32.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(got[:, 1:5], np.mean(reps, axis=0), rtol=1e-12)


def test_both_experiments_write_the_fixed_plot_script(tmp_path):
    from rkhslab.harness import PLOT_SCRIPT

    run_variance_experiment(small_variance_config(tmp_path / "v"))
    run_inconsistency_experiment(small_inconsistency_config(tmp_path / "i"))
    for out in ("v", "i"):
        assert (tmp_path / out / "plot.py").read_bytes() == PLOT_SCRIPT.encode()
    # matplotlib is not a dependency, so the script is compiled, not run
    compile(PLOT_SCRIPT, "plot.py", "exec")


IMPORT_CHECK = """
import sys, tempfile
import rkhslab

common = dict(beta=2.0, gamma=0.5, truncation=32, n_grid=(4, 8), replicates=1)
with tempfile.TemporaryDirectory() as out:
    rkhslab.run_inconsistency_experiment(rkhslab.ExperimentConfig(**common, output_dir=out + "/i"))
    rkhslab.run_variance_experiment(
        rkhslab.ExperimentConfig(**common, lambda_grid=(0.1,), output_dir=out + "/v")
    )
print(" ".join(sorted(sys.modules)))
"""


def test_experiments_load_no_heavy_scipy_subpackages():
    # scipy.linalg is the only scipy subpackage the experiments need
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    for pkg in ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse"):
        assert pkg not in loaded, f"{pkg} imported by the package or the experiments"
    assert {"rkhslab", "scipy.linalg", "mpmath"} <= loaded


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
        assert (tmp_path / "run" / "curve.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"beta": 0.5, "gamma": 0.5}))
        assert cli_main(["inconsistency", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_threads_is_a_usage_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["inconsistency", "--config", str(path), "--threads", "-3"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

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
def test_cli_fuzzed_config_never_raises(command, config, edits, unknown):
    for key, value in edits:  # None drops the key, [v] sets it to v
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**config, **unknown}))
        code = cli_main([command, "--config", str(path), "--out", str(Path(tmp) / "run")])
    assert code in (0, 2, 3)
