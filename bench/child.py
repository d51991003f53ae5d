"""One child process of the benchmark: set-up, timed units, output checks.

``run.py`` starts this script with the BLAS thread variable already set, so
numpy reads it at import.  The child sets up (imports, then tiny warm-up
experiments through every layer), runs units of one workload, checks their outputs and prints one
JSON line.  Modes:

* ``setup``     -- set up and stop; reports set-up time only.
* ``measure``   -- the reference unit, then seeded units 0, 1, 2, ...
* ``plain``     -- seeded units only.
* ``trace``     -- seeded units with every layer function wrapped.
* ``reference`` -- the reference unit alone; its outputs become the stored
                   reference (``run.py --write-reference``).

Units run while the next one should end within ``--seconds`` (at least one
runs), or exactly ``--units`` of them run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import REFERENCE_SEED, WARM_UP, WORKLOADS, config_seed, plan_calls
from workloads import adjust_expected, reference_path, unit_config, unit_items, unit_key

ROOT = Path(__file__).resolve().parent.parent
# replicate 0 at each n up to this is re-solved by an independent route
# after the timed units
INDEPENDENT_ROUTE_MAX_N = 128
# Gram condition number up to which the two routes are held to 1e-6.  In 180
# draws at n <= 256 and M = 4096 their gap stayed below 2.2e-8 up to this
# condition number, 1.4e-7 up to 1e10, and reached 2.5e-4 at 5.7e13.
WELL_CONDITIONED_GRAM = 1e9


def experiment_config(rkhslab, cfg: dict, output_dir: Path, gamma=None):
    return rkhslab.ExperimentConfig(
        beta=cfg["beta"],
        gamma=cfg["gamma"] if gamma is None else gamma,
        truncation=cfg["truncation"],
        n_grid=tuple(cfg["n_grid"]),
        replicates=cfg["replicates"],
        lambda_grid=tuple(cfg.get("lambda_grid", ())),
        seed=cfg["seed"],
        output_dir=str(output_dir),
    )


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def run_unit(rkhslab, cfg: dict, outdir: Path) -> dict:
    """Run one unit; time only the experiment calls."""
    kind = cfg["kind"]
    t0, c0 = time.perf_counter(), time.process_time()
    if kind == "inconsistency_pair":
        for g in cfg["gammas"]:
            ecfg = experiment_config(rkhslab, cfg, outdir / f"g{g}", gamma=g)
            rkhslab.run_inconsistency_experiment(ecfg, threads=cfg["threads"])
    elif kind == "inconsistency":
        rkhslab.run_inconsistency_experiment(experiment_config(rkhslab, cfg, outdir), threads=cfg["threads"])
    else:
        rkhslab.run_variance_experiment(experiment_config(rkhslab, cfg, outdir), threads=cfg["threads"])
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outputs = read_tree(outdir) if outdir.exists() else {}
    written = sum(len(b) for b in outputs.values())
    shutil.rmtree(outdir, ignore_errors=True)
    return {"wall": wall, "cpu": cpu, "outputs": checks.canonical(outputs), "written": written}


def independent_errors(cfg: dict, values: dict) -> tuple[int, list[str], float, float]:
    """Re-solve replicate 0 at small n without the package's solvers.

    The draws come from the harness's public sampling functions; the
    minimum-norm interpolant comes from numpy's SVD least squares on the
    cosine basis, with mu rebuilt from its definition.  The two routes can
    agree only to about cond(G) x eps, so a replicate whose Gram matrix is
    worse conditioned than WELL_CONDITIONED_GRAM has its gap reported, not
    gated.  Returns (failed items, messages, max gated gap, max reported gap).
    """
    import numpy as np
    import rkhslab

    M, beta = cfg["truncation"], cfg["beta"]
    i = np.arange(1, M + 1, dtype=float)
    mu = np.where(i == 1, 1.0, i ** (-beta))
    k = np.arange(1, M, dtype=float)
    failed, notes, worst, ill = 0, [], 0.0, 0.0
    for n in (n for n in cfg["n_grid"] if n <= INDEPENDENT_ROUTE_MAX_N):
        rng = rkhslab.replicate_rng(cfg["seed"], n, 0)
        X = rkhslab.sample_inputs("unit_interval", n, rng)
        Y = rkhslab.make_responses(X, None, 1.0, rng)
        E = np.empty((n, M))
        E[:, 0] = 1.0
        E[:, 1:] = np.sqrt(2.0) * np.cos(np.pi * np.outer(X, k))
        w, _, _, sv = np.linalg.lstsq(E * np.sqrt(mu), Y, rcond=None)
        gram_cond = (sv[0] / sv[-1]) ** 2
        c2 = mu * w**2  # squared L2 coefficients (sqrt(mu) w)^2
        for g in cfg["gammas"]:
            want = float(np.sum(mu ** (-g) * c2))
            got = values.get(f"g{g}/n{n}/r0/gamma_error_sq", float("nan"))
            gap = checks.rel_diff(got, want)
            if gram_cond > WELL_CONDITIONED_GRAM:
                ill = max(ill, gap)
                continue
            worst = max(worst, gap)
            if not gap <= 1e-6:
                failed += 1
                notes.append(f"g={g} n={n} r=0: error {got} vs independent route {want}")
    return failed, notes, worst, ill


def provenance(w) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "cores": os.cpu_count(),
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "harness_threads": w.harness_threads,
        "blas_threads": w.blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def count_check(layers: dict, expected: dict) -> list[str]:
    """Mismatches between traced and expected call counts (a missed patch)."""
    bad = []
    for name in spans.LAYER_FUNCTIONS:
        got, want = layers[f"{name}.calls"], expected.get(name, 0)
        if got != want:
            bad.append(f"{name}: {got} calls traced, {want} expected")
    return bad


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and scratch files are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="time units for this long")
    parser.add_argument("--units", type=int, default=0, help="run exactly this many units")
    parser.add_argument("--stream", type=int, default=0, help="which stream of seeded units")
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "plain", "trace", "reference"))
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    import rkhslab

    if not Path(rkhslab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rkhslab imported from {rkhslab.__file__}, not from {ROOT / 'src'}")
    tracer = spans.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    scratch = ROOT / ".bench_out" / f"child-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, w, rkhslab, tracer, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def set_up(rkhslab, scratch: Path):
    """Run the warm-up configs; returns (configs run, bytes the experiments wrote)."""
    written = 0
    for i, cfg in enumerate(WARM_UP):
        written += run_unit(rkhslab, cfg, scratch / f"warm{i}")["written"]
    return list(WARM_UP), written


def trace_layers(tracer, w, plan: list, written: int) -> dict:
    """Per-layer totals from the spans; fails if a call count is unexpected."""
    layers = spans.layer_metrics(tracer.spans)
    measured = [s for s in tracer.spans if s.phase == "measure"]
    layers["harness.pool_utilization"] = spans.pool_utilization(measured, w.harness_threads)
    layers["harness.output_bytes"] = written
    expected = adjust_expected(
        plan_calls(plan),
        layers["solvers.jitter_retries"],
        layers["solvers.retry_fits"],
        layers["solvers.failed_fits"],
    )
    bad = count_check(layers, expected)
    if bad:
        raise RuntimeError("traced call counts differ from the expected counts:\n" + "\n".join(bad))
    return layers


def check_units(args, w, units: list, configs: list, reference: dict) -> dict:
    """Check every unit's outputs; mark the items of failing units as failed."""
    kind = w.kind
    n_max = max(w.params.get("n_grid", (0,)))
    result: dict = {}
    notes: list[str] = []
    for rec, cfg in zip(units, configs):
        rec["items"] = unit_items(cfg)
        rec["values"] = checks.extract_values(kind, rec["outputs"])
        rec["digest"] = checks.digest(rec["outputs"])
        rec["failed"], msgs = checks.invariant_failures(cfg, rec["values"])
        notes += msgs

    if args.mode == "reference":
        result["reference"] = {
            "workload": w.name,
            "blas_threads": w.blas_threads,
            "config": reference,
            "files": checks.file_digests(units[0]["outputs"]),
            "values": units[0]["values"],
        }
    elif args.mode == "measure":
        path = reference_path(w)
        if path.exists():
            ref = json.loads(path.read_text())
            rep = checks.compare(
                units[0]["values"], ref["values"], lambda k: checks.tolerance(kind, k, n_max)
            )
            rep["sha256_match"] = checks.file_digests(units[0]["outputs"]) == ref["files"]
        else:
            rep = {"ok": False, "violations": [f"no stored reference {path.name}"]}
        result["reference_check"] = rep
        if not rep["ok"]:
            units[0]["failed"] = units[0]["items"]
            notes.append(f"reference mismatch: {rep['violations'][:2]}")

    seeded = [(rec, cfg) for rec, cfg in zip(units, configs) if cfg is not reference]
    if kind == "inconsistency_pair" and args.mode in ("measure", "trace") and seeded:
        worst = ill = 0.0
        for rec, cfg in seeded:
            failed, msgs, gap, ill_gap = independent_errors(cfg, rec["values"])
            rec["failed"] += failed
            notes += msgs
            worst, ill = max(worst, gap), max(ill, ill_gap)
        result["independent_route"] = {
            "max_rel_gap": worst,
            "gram_condition_limit": WELL_CONDITIONED_GRAM,
            "ill_conditioned_max_rel_gap": ill,
        }
    result["notes"] = notes[:20]
    return result


def _run(args, w, rkhslab, tracer, scratch: Path) -> int:
    plan, written = set_up(rkhslab, scratch)
    result: dict = {"workload": w.name, "mode": args.mode, "setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    reference = unit_config(w, REFERENCE_SEED)
    if tracer:
        tracer.phase = "measure"
    units, configs, keys = [], [], []
    start = time.perf_counter()
    while True:
        if args.mode in ("measure", "reference") and not units:
            cfg = reference
        else:
            keys.append(unit_key(args.stream, len(keys)))
            cfg = unit_config(w, config_seed(args.seed, keys[-1]))
        rec = run_unit(rkhslab, cfg, scratch / f"unit{len(units)}")
        written += rec["written"]
        units.append(rec)
        configs.append(cfg)
        if args.units:
            if len(units) >= args.units:
                break
        else:
            # start another unit only if it should end within --seconds, so
            # a run never lasts much longer than asked whatever the unit size
            elapsed = time.perf_counter() - start
            if args.seconds - elapsed < elapsed / len(units):
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["layers"] = trace_layers(tracer, w, plan + configs, written)

    result.update(check_units(args, w, units, configs, reference))
    result["units"] = [
        {k: rec[k] for k in ("wall", "cpu", "items", "failed", "digest")} for rec in units
    ]
    # seeded units by key, for the comparison of repeats across processes
    seeded = units[len(units) - len(keys) :]
    result["seeded"] = [
        {"key": key, "digest": rec["digest"], "values": rec["values"], "items": rec["items"]}
        for key, rec in zip(keys, seeded)
    ]
    result["config_seeds"] = [config_seed(args.seed, key) for key in keys]
    result["attempted"] = sum(r["items"] for r in units)
    result["failed"] = sum(min(r["failed"], r["items"]) for r in units)
    result["correct"] = result["failed"] == 0
    result["provenance"] = provenance(w)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
