"""End-to-end acceptance checks.

Each test prints one pass/fail line for its criterion, with the measured
quantity and the tolerance it is held to.
"""

import time

import numpy as np
import pytest

from rkhslab import (
    ExperimentConfig,
    SpectralKernel,
    Spectrum,
    build_operator_model,
    concentration_trial,
    effective_dimension,
    fit_loglog_slope,
    make_power_law_spectrum,
    norm_eq_check,
    ntk_eval,
    project_dot_product_spectrum,
    run_inconsistency_experiment,
    run_variance_experiment,
    v2_lambda,
    v_lambda_coefficient_route,
    v_lambda_gram_route,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_v2_matches_direct_sum():
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 200))
        mu = np.sort(rng.random(size))[::-1] + 1e-6
        s = Spectrum(mu, beta=2.0, zeta=0.0)
        gamma = float(rng.random())
        lam = float(10.0 ** rng.uniform(-6, 0))
        n = int(rng.integers(1, 100))
        oracle = sum(m ** (2.0 - gamma) / (m + lam) ** 2 for m in mu) / n
        rel = abs(v2_lambda(s, gamma, lam, n) - oracle) / oracle
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max relative error {worst:.2e} <= 1e-12 over 100 instances, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_route_equivalence():
    t0 = time.time()
    worst = 0.0
    for beta in (1.5, 2.0, 3.0):
        k = SpectralKernel(make_power_law_spectrum(beta, 0.0, 4096))
        X = np.random.default_rng(int(10 * beta)).random(32)
        m = build_operator_model(k, X)
        for lam in (1e-4, 1e-2, 1e-1):
            for g in (0.0, 0.25, 0.5):
                vc = v_lambda_coefficient_route(m, g, lam)
                vg = v_lambda_gram_route(k, X, g, lam)
                worst = max(worst, abs(vc - vg) / abs(vg))
    elapsed = time.time() - t0
    report(
        2,
        worst <= 1e-6 and elapsed < 30.0,
        f"max relative route gap {worst:.2e} <= 1e-6 over 27 combinations, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_03_v_monotone_in_lambda():
    rng = np.random.default_rng(1)
    grid = np.geomspace(1e-5, 0.4, 15)
    worst = -np.inf
    for beta in (1.5, 2.0, 3.0):
        k = SpectralKernel(make_power_law_spectrum(beta, 0.0, 512))
        for gamma in (0.0, 0.5):
            m = build_operator_model(k, rng.random(16))
            v = [v_lambda_coefficient_route(m, gamma, lam) for lam in grid]
            worst = max(worst, float(np.max(np.diff(v))))
    report(
        3,
        worst <= 1e-10,
        f"max increase along lambda grids {worst:.2e} <= 1e-10",
    )


def test_criterion_04_norm_equality():
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 128))
    rng = np.random.default_rng(2)
    worst = 0.0
    for gamma in (0.0, 0.3, 0.7):
        for _ in range(100):
            f = rng.standard_normal(128)
            worst = max(worst, norm_eq_check(k, f, gamma))
    report(4, worst <= 1e-10, f"max residual {worst:.2e} <= 1e-10, 300 random f")


def test_criterion_05_operator_representation():
    from rkhslab import SampleSet, operator_rep_check, ridge_fit

    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 1024))
    rng = np.random.default_rng(3)
    s = SampleSet(rng.random(16), rng.standard_normal(16))
    d = ridge_fit(k, s, 1e-3)
    m = build_operator_model(k, s.X)
    resid = operator_rep_check(d, m, s, 1e-3)
    report(5, resid <= 1e-8, f"two-route residual {resid:.2e} <= 1e-8, n=16 M=1024")


def test_criterion_06_lower_bound_envelope_slope():
    t0 = time.time()
    s = make_power_law_spectrum(2.0, 0.0, 100_000)
    grid = np.geomspace(1e-6, 1e-1, 25)
    details = []
    ok = True
    for gamma in (0.0, 0.5):
        vals = np.array([v2_lambda(s, gamma, l, 1) for l in grid])
        slope, _ = fit_loglog_slope(1.0 / grid, vals)
        target = gamma + 0.5
        ok = ok and abs(slope - target) <= 0.05
        details.append(f"gamma={gamma}: slope {slope:.3f} vs {target} +- 0.05")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(6, ok, "; ".join(details) + f", {elapsed:.1f}s < 10s")


def test_criterion_07_concentration_frequency():
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 2048))
    rep = concentration_trial(
        k, n=256, lam=0.01, alpha=0.75, tau=3.0, trials=200, rng_seed=0
    )
    report(
        7,
        rep.v1_v2_satisfied >= 0.88,
        f"|V1 - V2| bound satisfied in {rep.v1_v2_satisfied:.3f} of 200 trials "
        f">= 0.88 (target probability {rep.target_probability:.4f})",
    )


def test_criterion_08_inconsistency_growth(tmp_path):
    t0 = time.time()
    base = dict(
        beta=2.0,
        zeta=0.0,
        sigma=1.0,
        truncation=4096,
        n_grid=(64, 128, 256, 512, 1024),
        replicates=50,
        seed=0,
    )
    res_half = run_inconsistency_experiment(
        ExperimentConfig(gamma=0.5, output_dir=str(tmp_path / "g05"), **base)
    )
    res_zero = run_inconsistency_experiment(
        ExperimentConfig(gamma=0.0, output_dir=str(tmp_path / "g00"), **base)
    )
    elapsed = time.time() - t0
    ok = (
        res_half["fitted_slope"] is not None
        and res_half["fitted_slope"] >= res_half["theoretical_exponent"] - 0.3
        and res_zero["fitted_slope"] is not None
        and res_zero["fitted_slope"] >= -0.15
        and elapsed < 300.0
    )
    report(
        8,
        ok,
        f"gamma=0.5 slope {res_half['fitted_slope']:.2f} >= 0.7 "
        f"(theory {res_half['theoretical_exponent']}); "
        f"gamma=0 slope {res_zero['fitted_slope']:.2f} >= -0.15; {elapsed:.0f}s < 300s",
    )


def test_criterion_09_appendix_propositions():
    rng = np.random.default_rng(4)
    t = rng.exponential(1.0, 1000)
    lam = rng.exponential(0.5, 1000) + 1e-6
    gamma = rng.random(1000)
    f_bound_ok = bool(np.all(t**gamma / (t + lam) <= lam ** (gamma - 1.0) + 1e-12))
    details = [f"f_gamma bound on 1000 triples: {f_bound_ok}"]
    ok = f_bound_ok
    grid = np.geomspace(1e-6, 1e-1, 20)
    for beta in (1.5, 2.0, 3.0):
        s = make_power_law_spectrum(beta, 0.0, 100_000)
        vals = np.array([effective_dimension(s, l) for l in grid])
        slope, _ = fit_loglog_slope(1.0 / grid, vals)
        alpha = 1.0 / beta + 0.05
        ok = ok and slope <= alpha + 0.05
        details.append(f"beta={beta}: N(lambda) slope {slope:.3f} <= {alpha + 0.05:.3f}")
    report(9, ok, "; ".join(details))


def test_criterion_10_ntk_spectrum_decay():
    t0 = time.time()
    s = project_dot_product_spectrum(ntk_eval, 2, 48)
    k = np.arange(4, 41)
    a = s.a[4:41]
    keep = a > 1e-12 * s.a.max()
    slope, _ = fit_loglog_slope(k[keep].astype(float), a[keep])
    elapsed = time.time() - t0
    report(
        10,
        abs(slope + 3.0) <= 0.3 and elapsed < 5.0,
        f"d=2 coefficient slope {slope:.3f} within -3 +- 0.3, {elapsed:.1f}s < 5s",
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    def cfg(out):
        return ExperimentConfig(
            beta=2.0,
            gamma=0.0,
            truncation=512,
            n_grid=(16, 32, 64),
            replicates=5,
            lambda_grid=(1e-3, 1e-2, 1e-1),
            seed=42,
            output_dir=str(out),
        )

    run_variance_experiment(cfg(tmp_path / "a"))
    run_variance_experiment(cfg(tmp_path / "b"))
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("curve_n16.csv", "curve_n32.csv", "curve_n64.csv")
    )
    report(11, same, "variance CSVs byte-identical across two seeded runs")
