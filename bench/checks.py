"""Output checks: canonical outputs, SHA-256 digests, reference comparison.

A unit's outputs are the files the experiment writes, read into memory as
bytes.  Before hashing, ``summary.json`` loses ``runtime_seconds`` and its
``config.output_dir``, the only fields that change between identical runs.

Numbers are compared per key with a relative tolerance chosen by the key.  A
key with no tolerance belongs to the ill-conditioned n=1024 interpolants:
their drift is reported as a number and never gates the check, and no
tolerance is widened to absorb it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

VOLATILE_SUMMARY_KEYS = ("runtime_seconds",)


def canonical(outputs: dict[str, bytes]) -> dict[str, bytes]:
    """Outputs with the run-dependent summary fields removed."""
    out = {}
    for name, data in outputs.items():
        if name.endswith("summary.json"):
            doc = json.loads(data)
            for key in VOLATILE_SUMMARY_KEYS:
                doc.pop(key, None)
            doc.get("config", {}).pop("output_dir", None)
            data = json.dumps(doc, sort_keys=True, indent=2).encode()
        out[name] = data
    return out


def file_digests(outputs: dict[str, bytes]) -> dict[str, str]:
    """SHA-256 of every output file."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def digest(outputs: dict[str, bytes]) -> str:
    """One SHA-256 over the sorted (name, file digest) pairs."""
    h = hashlib.sha256()
    for name, d in file_digests(outputs).items():
        h.update(f"{name}\0{d}\n".encode())
    return h.hexdigest()


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def extract_values(kind: str, outputs: dict[str, bytes]) -> dict[str, float]:
    """Flat {key: number} view of a unit's outputs."""
    vals: dict[str, float] = {}
    if kind == "inconsistency_pair":
        for name, data in outputs.items():
            tag, base = name.split("/")
            if base == "errors.csv":
                for row in _rows(data):
                    key = f"{tag}/n{row['n']}/r{row['replicate']}/gamma_error_sq"
                    vals[key] = float(row["gamma_error_sq"])
            elif base == "summary.json":
                doc = json.loads(data)
                for i, n in enumerate(doc["n_values"]):
                    for field in ("mean_errors", "stderr_errors", "median_errors"):
                        vals[f"{tag}/n{n}/{field}"] = _num(doc[field][i])
                    vals[f"{tag}/n{n}/successes"] = doc["success_counts"][i]
                    vals[f"{tag}/n{n}/failures"] = doc["failure_counts"][i]
                for field in ("fitted_slope", "slope_stderr", "theoretical_exponent"):
                    vals[f"{tag}/{field}"] = _num(doc[field])
    elif kind == "variance":
        for name, data in outputs.items():
            if name.startswith("curve_n"):
                n = name[len("curve_n") : -len(".csv")]
                for row in _rows(data):
                    lam = repr(float(row.pop("lambda")))
                    for col, v in row.items():
                        vals[f"n{n}/lambda{lam}/{col}"] = float(v)
            elif name == "summary.json":
                for n, rec in json.loads(data)["per_n"].items():
                    for field, v in rec.items():
                        vals[f"n{n}/{field}"] = v
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return vals


def _num(v) -> float:
    return float("nan") if v is None else float(v)


EXACT = 0.0


def tolerance(kind: str, key: str, n_max: int | None = None):
    """Relative tolerance of ``key``; None marks a report-only (drift) key."""
    field = key.rsplit("/", 1)[-1]
    if field in ("successes", "failures", "theoretical_exponent"):
        return EXACT
    if kind == "inconsistency_pair":
        if f"/n{n_max}/" in key or field in ("fitted_slope", "slope_stderr"):
            return None  # depends on the ill-conditioned n = n_max fits
        return 1e-6
    # variance: |V - V1| / V1 amplifies the relative error of V by V / |V - V1|
    return 1e-8 if field == "median_rel_v_minus_v1" else 1e-10


def repeat_tolerance(kind: str, key: str, n_max: int | None = None) -> float:
    """Tolerance between repeats of one config: report-only keys must match exactly."""
    rtol = tolerance(kind, key, n_max)
    return EXACT if rtol is None else rtol


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


def compare(values: dict, ref: dict, tol) -> dict:
    """Compare ``values`` with ``ref`` key by key; ``tol(key)`` gives the rtol."""
    violations = []
    drift = ill = 0.0
    for key in sorted(set(values) | set(ref)):
        if key not in values or key not in ref:
            violations.append({"key": key, "got": values.get(key), "want": ref.get(key)})
            continue
        d = rel_diff(float(values[key]), float(ref[key]))
        rtol = tol(key)
        if rtol is None:
            ill = max(ill, d)
            continue
        drift = max(drift, d)
        if d > rtol:
            violations.append({"key": key, "got": values[key], "want": ref[key], "rel": d})
    return {
        "ok": not violations,
        "violations": violations[:10],
        "max_rel_drift": drift,
        "ill_conditioned_max_rel_drift": ill,
    }


def _finite_positive(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


def invariant_failures(cfg: dict, values: dict) -> tuple[int, list[str]]:
    """Items of one unit whose outputs break a property the math guarantees.

    Returns (failed items, messages).  Failures the program itself records
    (replicates missing from its outputs) count as failed items too.
    """
    kind = cfg["kind"]
    failed, notes = 0, []
    if kind == "inconsistency_pair":
        # mu_i <= 1, so the gamma-weighted error can only grow with gamma
        lo, hi = sorted(cfg["gammas"])
        for n in cfg["n_grid"]:
            for r in range(cfg["replicates"]):
                e_hi = values.get(f"g{hi}/n{n}/r{r}/gamma_error_sq")
                e_lo = values.get(f"g{lo}/n{n}/r{r}/gamma_error_sq")
                if not (_finite_positive(e_hi) and _finite_positive(e_lo)):
                    failed += (not _finite_positive(e_hi)) + (not _finite_positive(e_lo))
                    notes.append(f"n={n} r={r}: missing or non-positive error")
                elif e_hi < e_lo * (1 - 1e-9):
                    failed += 2
                    notes.append(f"n={n} r={r}: gamma={hi} error {e_hi} < gamma={lo} {e_lo}")
    elif kind == "variance":
        lams = sorted(cfg["lambda_grid"])
        for n in cfg["n_grid"]:
            ok = values.get(f"n{n}/failures") == 0
            v_prev = math.inf
            for lam in lams:
                vc = values.get(f"n{n}/lambda{lam!r}/v_coeff")
                vg = values.get(f"n{n}/lambda{lam!r}/v_gram")
                if not (_finite_positive(vc) and _finite_positive(vg)):
                    ok = False
                    break
                # two independent routes (acceptance criterion 2), V decreasing in lambda
                ok = ok and rel_diff(vc, vg) <= 1e-6 and vc <= v_prev * (1 + 1e-10)
                v_prev = vc
            if not ok:
                failed += cfg["replicates"]
                notes.append(f"n={n}: variance curve fails route agreement or monotonicity")
    return failed, notes
