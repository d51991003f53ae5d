#!/usr/bin/env python3
"""Benchmark of rkhslab: seeded experiment workloads, timed end to end.

Usage, from the repository root:

    python3 bench/run.py --workload interp_growth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload variance_path --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload interp_growth --write-reference

Each run starts fresh child processes (``child.py``) with the workload's
BLAS thread count in the environment before numpy is imported, and imports
the package from ``src/`` of this checkout.

``--trace 0`` times the workload with tracing off.  Three children in turn
time units for ``--seconds`` in all, each for an equal share of the time
still left; the first starts with the reference unit.  The
run reports the mean wall and CPU time per unit (the time of all timed units
over their count, which averages the machine's slow spells over the whole
run), the median of the children's peak resident memory, and the median
set-up time over those children and two set-up-only ones, and it checks
every unit's outputs.  ``--trace 1`` runs
the workload's ``trace_units`` seeded units traced in one child and untraced
in another; it reports per-layer totals over the traced child (set-up and
units) and the tracing overhead.  The last line of standard output is one
JSON object; a record with provenance goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, reference_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
# Units are spread over several processes, each with its own stream of
# draws, so that no one process sets the result; every child's set-up is a
# sample too.
MEASURING_CHILDREN = 3
SETUP_ONLY_CHILDREN = 2
DEADLINE_S = 170.0


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(
    args, mode: str, deadline: float, seconds: float = 0.0, units: int = 0, stream: int = 0
) -> dict:
    """Run one child to completion and return its JSON result."""
    w = WORKLOADS[args.workload]
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", repr(seconds),
        "--units", str(units),
        "--stream", str(stream),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT,
        env=child_env(w.blas_threads),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_block(names, values: dict) -> dict:
    units = {m["name"]: m["unit"] for m in names}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def merge_children(results: list[dict]) -> dict:
    """One result from several children; repeats of a seeded unit must agree."""
    res = dict(results[0])
    for key in ("units", "notes"):
        res[key] = [x for r in results for x in r.get(key, [])]
    res["attempted"] = sum(r["attempted"] for r in results)
    res["failed"] = sum(r["failed"] for r in results)
    res["correct"] = all(r["correct"] for r in results)
    w = WORKLOADS[res["workload"]]
    n_max = max(w.params.get("n_grid", (0,)))
    first: dict[str, dict] = {}
    repeats = identical = 0
    for r in results:
        for unit in r["seeded"]:
            if unit["key"] not in first:
                first[unit["key"]] = unit
                continue
            base = first[unit["key"]]
            repeats += 1
            identical += unit["digest"] == base["digest"]
            rep = checks.compare(
                unit["values"], base["values"], lambda key: checks.repeat_tolerance(w.kind, key, n_max)
            )
            if not rep["ok"]:
                res["correct"] = False
                res["failed"] = min(res["attempted"], res["failed"] + unit["items"])
                res["notes"].append(f"seeded unit {unit['key']} differs between processes: {rep['violations'][:2]}")
    res["determinism"] = {"repeats": repeats, "identical_digests": identical}
    res.pop("seeded")
    return res


def measure(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY_CHILDREN)]
    children: list[dict] = []
    for i in range(MEASURING_CHILDREN):
        # time a child leaves unused (units are whole) goes to the next ones
        used = sum(u["wall"] for c in children for u in c["units"])
        share = (args.seconds - used) / (MEASURING_CHILDREN - i)
        mode = "measure" if i == 0 else "plain"
        children.append(spawn(args, mode, deadline, seconds=share, stream=i))
    setups += [c["setup_s"] for c in children]
    res = merge_children(children)
    walls = [u["wall"] for u in res["units"]]
    cpus = [u["cpu"] for u in res["units"]]
    values = {
        "wall_s": statistics.mean(walls),
        "cpu_s": statistics.mean(cpus),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "setup_s": statistics.median(setups),
    }
    detail = {
        "units": len(walls),
        "wall_quartiles": quartiles(walls),
        "cpu_quartiles": quartiles(cpus),
        "setup_samples": setups,
        "failed_fraction": res["failed"] / res["attempted"],
        "child": res,
    }
    return values, detail


def trace(args, deadline: float) -> tuple[dict, dict]:
    units = WORKLOADS[args.workload].trace_units
    plain = spawn(args, "plain", deadline, units=units)
    traced = spawn(args, "trace", deadline, units=units)
    values = dict(traced["layers"])
    values["trace_overhead_s"] = sum(u["wall"] for u in traced["units"]) - sum(
        u["wall"] for u in plain["units"]
    )
    res = merge_children([traced, plain])
    return values, {"child": res, "failed_fraction": res["failed"] / res["attempted"]}


def write_reference(args, deadline: float) -> int:
    w = WORKLOADS[args.workload]
    res = spawn(args, "reference", deadline, units=1)
    path = reference_path(w)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(res["reference"], indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} (correct={res['correct']})")
    return 0 if res["correct"] else 1


def report(args, values: dict, detail: dict, names, commit: str | None) -> None:
    w = WORKLOADS[args.workload]
    res = detail["child"]
    print(
        f"workload {w.name}, seed {args.seed} (config seeds {res['config_seeds'][:3]}...), "
        f"harness threads {w.harness_threads}, BLAS threads {w.blas_threads}"
    )
    units = {m["name"]: m["unit"] for m in names}
    for name, unit in units.items():
        print(f"  {name:<52} {values[name]:>14.6g} {unit}")
    print(
        f"  {'failed_fraction':<52} {detail['failed_fraction']:>14.6g} fraction "
        f"({res['failed']} of {res['attempted']} replicates)"
    )
    if "units" in detail:
        for name in ("wall", "cpu"):
            q1, q2, q3 = detail[f"{name}_quartiles"]
            print(
                f"  {name}_s is the mean over {detail['units']} units; "
                f"their quartiles {q1:.4f} {q2:.4f} {q3:.4f} s"
            )
    ref = res.get("reference_check")
    if ref is not None:
        print(
            f"  reference: sha256 match {ref.get('sha256_match')}, within tolerance {ref['ok']}, "
            f"max rel drift {ref.get('max_rel_drift', float('nan')):.3g}, "
            f"ill-conditioned n=max rel drift {ref.get('ill_conditioned_max_rel_drift', float('nan')):.3g}"
        )
    if "determinism" in res:
        d = res["determinism"]
        print(
            f"  determinism: {d['identical_digests']} of {d['repeats']} repeats of a seeded unit "
            f"in another process byte-identical"
        )
    if "independent_route" in res:
        ind = res["independent_route"]
        print(
            f"  independent route (replicate 0, n <= 128): max rel gap {ind['max_rel_gap']:.3g}, "
            f"Gram condition > {ind['gram_condition_limit']:.0e} max rel gap "
            f"{ind['ill_conditioned_max_rel_gap']:.3g}"
        )
    for note in res.get("notes", []):
        print(f"  check: {note}")
    print(f"  provenance: git commit {commit}, {json.dumps(res['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and scratch files are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store the reference unit's outputs under bench/references/",
    )
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "rkhslab" / "__init__.py").is_file():
        print("bench: run from a checkout with BENCHMARK.json and src/rkhslab", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.write_reference:
        return write_reference(args, deadline)
    names = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    values, detail = (trace if args.trace else measure)(args, deadline)
    commit = git_commit()
    report(args, values, detail, names, commit)
    res = detail["child"]
    line = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metric_block(names, values),
    }
    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace, git_commit=commit)
    record["detail"] = detail
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
