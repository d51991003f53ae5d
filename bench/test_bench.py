"""Tests of the benchmark's own code: self time, output checks, work formulas.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench``.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import rkhslab
import spans
import workloads
from rkhslab import (
    ExperimentConfig,
    SampleSet,
    SpectralKernel,
    build_operator_model,
    make_power_law_spectrum,
    ridge_fit,
    run_inconsistency_experiment,
    v_lambda_coefficient_route,
)

ROOT = Path(__file__).resolve().parent.parent


def span(name, sid, parent, thread, start, end):
    return spans.Span(name, sid, parent, thread, "measure", start, end)


# --- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    ss = [span("a", 0, None, 1, 0.0, 10.0), span("b", 1, 0, 1, 2.0, 5.0), span("c", 2, 1, 1, 3.0, 4.0)]
    assert spans.self_times(ss) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_self_time_counts_overlapping_pool_threads_once():
    # an experiment on thread 1 waits for two pool threads whose fits overlap
    ss = [
        span("exp", 0, None, 1, 0.0, 10.0),
        span("fit", 1, 0, 2, 1.0, 6.0),
        span("fit", 2, 0, 3, 2.0, 8.0),
        span("gram", 3, 1, 2, 1.0, 3.0),
        span("gram", 4, 2, 3, 2.0, 5.0),
    ]
    st = spans.self_times(ss)
    assert st["exp"] == pytest.approx(3.0)  # 10 minus the union [1, 8]
    assert st["fit"] == pytest.approx(5.0)  # [3, 6] and [5, 8] overlap
    assert st["gram"] == pytest.approx(4.0)  # [1, 3] and [2, 5] overlap


def test_pool_utilization_divides_worker_busy_time_by_capacity():
    ss = [
        span("harness.run_inconsistency_experiment", 0, None, 1, 0.0, 10.0),
        span("spectra.make_power_law_spectrum", 1, 0, 1, 0.0, 1.0),  # not a worker
        span("solvers.min_norm_fit", 2, 0, 2, 1.0, 6.0),
        span("solvers.min_norm_fit", 3, 0, 3, 2.0, 8.0),
    ]
    assert spans.pool_utilization(ss, 2) == pytest.approx(11.0 / 20.0)


def test_interval_subtraction():
    assert spans.subtract((0.0, 10.0), [(2.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == [
        (0.0, 2.0),
        (5.0, 9.0),
    ]


def test_tracer_patches_every_import_site_and_restores_them(tmp_path):
    from rkhslab import harness, kernels, solvers

    before = (solvers.gram_matrix, harness.min_norm_fit, kernels.SpectralKernel.basis_matrix)
    cfg = dict(workloads.WARM_UP[0], threads=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rkhslab.run_inconsistency_experiment(
            ExperimentConfig(
                beta=cfg["beta"],
                gamma=cfg["gamma"],
                truncation=cfg["truncation"],
                n_grid=cfg["n_grid"],
                replicates=cfg["replicates"],
                seed=cfg["seed"],
                output_dir=str(tmp_path),
            ),
            threads=2,
        )
    finally:
        tracer.uninstall()
    assert (solvers.gram_matrix, harness.min_norm_fit, kernels.SpectralKernel.basis_matrix) == before
    layers = spans.layer_metrics(tracer.spans)
    expected = workloads.plan_calls([cfg])
    for name in spans.LAYER_FUNCTIONS:
        assert layers[f"{name}.calls"] == expected.get(name, 0), name
    (exp,) = [s for s in tracer.spans if s.name == "harness.run_inconsistency_experiment"]
    fits = [s for s in tracer.spans if s.name == "solvers.min_norm_fit"]
    assert all(s.parent == exp.span_id for s in fits)  # pool spans hang off the experiment
    assert all(s.thread != exp.thread for s in fits)


def test_expected_calls_follow_jitter_retries(tmp_path):
    # n = 64 points with 32 modes: the Gram matrix is singular and every such
    # fit retries with jitter, which adds ridge fits and Gram matrices
    cfg = dict(
        kind="inconsistency", beta=2.0, gamma=0.5, truncation=32, n_grid=(16, 32, 64), replicates=2
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        rkhslab.run_inconsistency_experiment(  # the patched binding
            ExperimentConfig(
                beta=2.0,
                gamma=0.5,
                truncation=32,
                n_grid=cfg["n_grid"],
                replicates=2,
                seed=0,
                output_dir=str(tmp_path),
            )
        )
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer.spans)
    assert layers["solvers.jitter_retries"] > 0
    assert layers["solvers.singular_gram"] == layers["solvers.jitter_retries"]
    expected = workloads.adjust_expected(
        workloads.plan_calls([cfg]),
        layers["solvers.jitter_retries"],
        layers["solvers.retry_fits"],
        layers["solvers.failed_fits"],
    )
    for name in spans.LAYER_FUNCTIONS:
        assert layers[f"{name}.calls"] == expected.get(name, 0), name


# --- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def pair_outputs(tmp_path_factory):
    """Outputs of a small inconsistency pair, as the benchmark collects them."""
    root = tmp_path_factory.mktemp("pair")
    cfg = dict(
        kind="inconsistency_pair",
        beta=2.0,
        gammas=(0.5, 0.0),
        truncation=128,
        n_grid=(8, 16, 32),
        replicates=2,
        seed=3,
    )
    for g in cfg["gammas"]:
        run_inconsistency_experiment(
            ExperimentConfig(
                beta=2.0,
                gamma=g,
                truncation=128,
                n_grid=cfg["n_grid"],
                replicates=2,
                seed=3,
                output_dir=str(root / f"g{g}"),
            )
        )
    raw = {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    return cfg, raw


def _tol(cfg):
    return lambda key: checks.tolerance(cfg["kind"], key, max(cfg["n_grid"]))


def _perturb_error(raw, tag, n, r, factor):
    rows = raw[f"{tag}/errors.csv"].decode().splitlines()
    out = []
    for line in rows:
        parts = line.split(",")
        if parts[:2] == [str(n), str(r)]:
            parts[2] = repr(float(parts[2]) * factor)
        out.append(",".join(parts))
    return dict(raw, **{f"{tag}/errors.csv": ("\n".join(out) + "\n").encode()})


def test_canonical_outputs_ignore_runtime_and_output_dir(pair_outputs):
    cfg, raw = pair_outputs
    doc = json.loads(raw["g0.5/summary.json"])
    doc["runtime_seconds"] += 12.5
    doc["config"]["output_dir"] = "/elsewhere"
    other = dict(raw, **{"g0.5/summary.json": json.dumps(doc).encode()})
    assert checks.digest(checks.canonical(other)) == checks.digest(checks.canonical(raw))


def test_checker_accepts_identical_outputs(pair_outputs):
    cfg, raw = pair_outputs
    vals = checks.extract_values(cfg["kind"], checks.canonical(raw))
    rep = checks.compare(vals, vals, _tol(cfg))
    assert rep["ok"] and rep["max_rel_drift"] == 0.0
    assert checks.invariant_failures(cfg, vals) == (0, [])


def test_checker_rejects_a_perturbed_well_conditioned_output(pair_outputs):
    cfg, raw = pair_outputs
    ref = checks.canonical(raw)
    bad = checks.canonical(_perturb_error(raw, "g0.5", 8, 1, 1.0 + 1e-4))
    assert checks.file_digests(bad) != checks.file_digests(ref)
    rep = checks.compare(
        checks.extract_values(cfg["kind"], bad), checks.extract_values(cfg["kind"], ref), _tol(cfg)
    )
    assert not rep["ok"]
    assert rep["violations"][0]["key"] == "g0.5/n8/r1/gamma_error_sq"


def test_ill_conditioned_drift_is_reported_not_gated(pair_outputs):
    cfg, raw = pair_outputs
    drifted = checks.canonical(_perturb_error(raw, "g0.0", 32, 0, 1.3))
    ref = checks.canonical(raw)
    rep = checks.compare(
        checks.extract_values(cfg["kind"], drifted),
        checks.extract_values(cfg["kind"], ref),
        _tol(cfg),
    )
    assert rep["ok"]
    assert rep["ill_conditioned_max_rel_drift"] == pytest.approx(0.3)


def test_invariant_rejects_error_that_shrinks_with_gamma(pair_outputs):
    cfg, raw = pair_outputs
    bad = checks.canonical(_perturb_error(raw, "g0.5", 16, 0, 1e-3))
    failed, notes = checks.invariant_failures(cfg, checks.extract_values(cfg["kind"], bad))
    assert failed == 2 and "n=16 r=0" in notes[0]


def test_independent_route_rejects_a_perturbed_error(tmp_path):
    import child

    cfg = dict(
        kind="inconsistency_pair",
        beta=2.0,
        gammas=(0.5, 0.0),
        truncation=256,
        n_grid=(16, 32),
        replicates=1,
        seed=3,
        threads=1,
    )
    rec = child.run_unit(rkhslab, cfg, tmp_path / "unit")
    values = checks.extract_values(cfg["kind"], rec["outputs"])
    failed, notes, gap, _ = child.independent_errors(cfg, values)
    assert (failed, notes) == (0, []) and gap < 1e-8
    values["g0.5/n32/r0/gamma_error_sq"] *= 1.0 + 1e-5
    failed, notes, _, _ = child.independent_errors(cfg, values)
    assert failed == 1 and "g=0.5 n=32" in notes[0]


# --- computed work -----------------------------------------------------------


def loop_gram(E, mu):
    """(E * mu) @ E.T in scalar loops, counting flops."""
    n, M = E.shape
    S = [[E[i, k] * mu[k] for k in range(M)] for i in range(n)]
    ops = n * M
    G = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = S[i][0] * E[j, 0]
            ops += 1
            for k in range(1, M):
                acc += S[i][k] * E[j, k]
                ops += 2
            G[i, j] = acc
    return G, ops


def loop_cholesky(A):
    n = len(A)
    L = np.zeros((n, n))
    ops = 0
    for j in range(n):
        s = A[j, j]
        for k in range(j):
            s -= L[j, k] * L[j, k]
            ops += 2
        L[j, j] = math.sqrt(s)
        ops += 1
        for i in range(j + 1, n):
            s = A[i, j]
            for k in range(j):
                s -= L[i, k] * L[j, k]
                ops += 2
            L[i, j] = s / L[j, j]
            ops += 1
    return L, ops


def loop_cho_solve(L, b):
    """Forward then back substitution with L L^T, counting flops."""
    n = len(b)
    y, x, ops = np.zeros(n), np.zeros(n), 0
    for i in range(n):
        s = b[i]
        for k in range(i):
            s -= L[i, k] * y[k]
            ops += 2
        y[i] = s / L[i, i]
        ops += 1
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= L[k, i] * x[k]
            ops += 2
        x[i] = s / L[i, i]
        ops += 1
    return x, ops


@pytest.fixture(scope="module")
def small_kernel():
    return SpectralKernel(make_power_law_spectrum(2.0, 0.0, 7))


def test_basis_and_operator_model_megabytes_match_allocated_arrays(small_kernel):
    X = np.linspace(0.05, 0.95, 5)
    assert spans.basis_matrix_mb(5, 7) == small_kernel.basis_matrix(X).nbytes / 1e6
    m = build_operator_model(small_kernel, X)
    assert spans.build_operator_model_mb(5, 7) == (m.psi.nbytes + m.C_emp.nbytes) / 1e6


@pytest.mark.parametrize("n, M", [(1, 1), (3, 7), (4, 2)])
def test_gram_gflop_counts_the_loop_algorithm(n, M):
    rng = np.random.default_rng(n + M)
    E, mu = rng.standard_normal((n, M)), rng.random(M)
    G, ops = loop_gram(E, mu)
    np.testing.assert_allclose(G, (E * mu) @ E.T, rtol=1e-12)
    assert spans.gram_matrix_gflop(n, M) * 1e9 == pytest.approx(ops, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_ridge_gflop_counts_shift_cholesky_and_two_solves(small_kernel, n):
    rng = np.random.default_rng(n)
    s = SampleSet(rng.random(n), rng.standard_normal(n))
    lam = 0.1
    G = small_kernel.basis_matrix(s.X) * small_kernel.spectrum.mu @ small_kernel.basis_matrix(s.X).T
    A = G.copy()
    for i in range(n):
        A[i, i] += n * lam
    L, chol_ops = loop_cholesky(A)
    alpha, solve_ops = loop_cho_solve(L, s.Y)
    np.testing.assert_allclose(alpha, ridge_fit(small_kernel, s, lam).alpha, rtol=1e-10)
    assert spans.ridge_fit_gflop(n) * 1e9 == pytest.approx(n + chol_ops + solve_ops, rel=1e-12)


def test_coefficient_route_gflop_counts_the_loop_algorithm(small_kernel):
    n, M, lam, gamma = 3, small_kernel.size, 0.05, 0.5
    m = build_operator_model(small_kernel, np.array([0.1, 0.5, 0.8]))
    A = m.C_emp.copy()
    for i in range(M):
        A[i, i] += lam
    ops = M
    L, chol_ops = loop_cholesky(A)
    ops += chol_ops
    Z = np.empty((M, n))
    for j in range(n):
        Z[:, j], solve_ops = loop_cho_solve(L, m.psi[j])
        ops += solve_ops
    row_sq = np.zeros(M)
    for i in range(M):
        for j in range(n):
            row_sq[i] += Z[i, j] ** 2
            ops += 2
    v = float(np.sum(m.mu ** (1.0 - gamma) * row_sq)) / n**2
    assert v == pytest.approx(v_lambda_coefficient_route(m, gamma, lam), rel=1e-10)
    assert spans.coefficient_route_gflop(n, M) * 1e9 == pytest.approx(ops, rel=1e-12)


# --- the benchmark definition --------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    traced = {f"{name}.{key}" for name in spans.LAYER_FUNCTIONS for key in ("calls", "self_s")}
    traced |= {
        "kernels.basis_matrix.mb_computed",
        "kernels.gram_matrix.gflop_computed",
        "solvers.ridge_fit.gflop_computed",
        "operators.v_lambda_coefficient_route.gflop_computed",
        "operators.build_operator_model.mb_computed",
        "solvers.jitter_retries",
        "solvers.singular_gram",
        "operators.linalg_errors",
        "harness.output_bytes",
        "harness.pool_utilization",
        "trace_overhead_s",
    }
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert {m["name"] for m in spec["per_layer"]} <= traced
