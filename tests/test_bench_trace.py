"""The benchmark's traced child, once per workload.

A traced child wraps every layer function and checks each call count
against the plan of its warm-ups and units, so a renamed layer function,
a changed solver signature or a moved call count fails here first.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the workloads that BENCHMARK.json declares, known before bench/ is importable
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_child_passes_the_call_count_gate(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import workloads

    w = workloads.WORKLOADS[name]
    cmd = [sys.executable, "bench/child.py", "--workload", name, "--seed", "7", "--units", "1"]
    proc = subprocess.run(
        cmd + ["--mode", "trace", "--t0", repr(time.monotonic())],
        cwd=ROOT,
        env=run.child_env(w.blas_threads),
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
