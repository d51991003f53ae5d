"""Outside-in tracing of the rkhslab layers for the benchmark's traced run.

The tracer wraps public functions of each package module from outside: no
file of the package changes.  Every name a module imports is replaced too
(``gram_matrix`` in ``solvers`` and ``operators``, ``min_norm_fit`` in
``harness``, ...), and ``SpectralKernel.basis_matrix`` is wrapped on the
class.  Each call becomes a span with a parent, a thread id and a phase; a
span opened in a pool thread takes as parent the innermost span open in the
thread that installed the tracer, which is the experiment call waiting on
the pool.  Spans stay in memory until the run ends.

Self time of a function is the length of the union, over its spans, of each
span's interval minus the union of its children's intervals, so spans that
overlap in two pool threads are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Computed work per call.  Bytes are those of the arrays the call allocates;
# flops are those of the algorithm as the package writes it.  Both are
# computed from shapes, not measured.


def basis_matrix_mb(n: int, M: int) -> float:
    """MB of the n x M float64 basis matrix."""
    return 8.0 * n * M / 1e6


def gram_matrix_gflop(n: int, M: int) -> float:
    """GFLOP of (E * mu) @ E.T: n M scalings, n^2 dot products of length M."""
    return (n * M + n * n * (2 * M - 1)) / 1e9


def cholesky_flop(n: int) -> float:
    """Flops of an n x n Cholesky factorization, square roots included."""
    return n**3 / 3.0 + n**2 / 2.0 + n / 6.0


def ridge_fit_gflop(n: int) -> float:
    """GFLOP of the dual solve: n diagonal shifts, Cholesky, two triangular solves."""
    return (n + cholesky_flop(n) + 2.0 * n * n) / 1e9


def coefficient_route_gflop(n: int, M: int) -> float:
    """GFLOP of one lambda > 0 coefficient-route V: M x M Cholesky, 2n solves, row sums."""
    return (M + cholesky_flop(M) + 2.0 * n * M * M + 2.0 * n * M) / 1e9


def build_operator_model_mb(n: int, M: int) -> float:
    """MB of psi (n x M) and C_emp (M x M)."""
    return 8.0 * (n * M + M * M) / 1e6


def _n_points(x) -> int:
    return int(np.size(x))


def _meter_basis(a):
    return {"mb": basis_matrix_mb(_n_points(a["x"]), a["self"].size)}


def _meter_gram(a):
    return {"gflop": gram_matrix_gflop(_n_points(a["X"]), a["k"].size)}


def _meter_ridge(a):
    return {"gflop": ridge_fit_gflop(a["s"].n), "jitter": float(a.get("jitter", 0.0))}


def _meter_coefficient_route(a):
    m = a["m"]
    return {"gflop": coefficient_route_gflop(m.n, m.psi.shape[1])}


def _meter_operator_model(a):
    return {"mb": build_operator_model_mb(_n_points(a["X"]), a["kernel"].size)}


# metric name -> (module, attribute path, meter)
LAYER_FUNCTIONS = {
    "kernels.basis_matrix": ("rkhslab.kernels", "SpectralKernel.basis_matrix", _meter_basis),
    "kernels.gram_matrix": ("rkhslab.kernels", "gram_matrix", _meter_gram),
    "solvers.ridge_fit": ("rkhslab.solvers", "ridge_fit", _meter_ridge),
    "solvers.min_norm_fit": ("rkhslab.solvers", "min_norm_fit", None),
    "solvers.estimator_l2_coefficients": ("rkhslab.solvers", "estimator_l2_coefficients", None),
    "solvers.gamma_error_sq": ("rkhslab.solvers", "gamma_error_sq", None),
    "operators.build_operator_model": (
        "rkhslab.operators",
        "build_operator_model",
        _meter_operator_model,
    ),
    "operators.v_lambda_coefficient_route": (
        "rkhslab.operators",
        "v_lambda_coefficient_route",
        _meter_coefficient_route,
    ),
    "operators.v_lambda_gram_route": ("rkhslab.operators", "v_lambda_gram_route", None),
    "operators.v1_lambda": ("rkhslab.operators", "v1_lambda", None),
    "operators.v2_lambda": ("rkhslab.operators", "v2_lambda", None),
    "spectra.make_power_law_spectrum": ("rkhslab.spectra", "make_power_law_spectrum", None),
    "harness.run_inconsistency_experiment": (
        "rkhslab.harness",
        "run_inconsistency_experiment",
        None,
    ),
    "harness.run_variance_experiment": ("rkhslab.harness", "run_variance_experiment", None),
}

# Modules whose imported names are patched alongside the defining module.
PACKAGE_MODULES = (
    "rkhslab",
    "rkhslab.spectra",
    "rkhslab.kernels",
    "rkhslab.operators",
    "rkhslab.solvers",
    "rkhslab.fitting",
    "rkhslab.harness",
    "rkhslab.cli",
)

EXPERIMENTS = ("harness.run_inconsistency_experiment", "harness.run_variance_experiment")


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    thread: int
    phase: str
    start: float
    end: float = float("nan")
    error: str | None = None  # exception class name
    linalg_error: int | None = None  # id() of a LinAlgError raised through this span
    meter: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped functions; ``install`` patches the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        else:
            # a pool thread: the caller is the span open in the home thread
            home = self._home_stack[-1:] if stack is not self._home_stack else []
            parent = home[0].span_id if home else None
        with self._lock:
            span = Span(name, len(self.spans), parent, threading.get_ident(), self.phase, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, meter=None):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if meter is not None:
                    span.meter = meter(signature.bind(*args, **kwargs).arguments)
                return fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                if isinstance(err, np.linalg.LinAlgError):
                    span.linalg_error = id(err)
                raise
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS wherever the package binds it."""
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for name, (module, path, meter) in LAYER_FUNCTIONS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, meter)
            targets = [owner] if outer else [m for m in modules if getattr(m, attr, None) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Interval arithmetic and self time


def merge(intervals) -> list[tuple[float, float]]:
    """Union of closed intervals as sorted, disjoint intervals."""
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def total_length(intervals) -> float:
    return sum(b - a for a, b in merge(intervals))


def subtract(interval, holes) -> list[tuple[float, float]]:
    """``interval`` minus the union of ``holes``."""
    a, b = interval
    out = []
    for h0, h1 in merge(holes):
        if h1 <= a or h0 >= b:
            continue
        if h0 > a:
            out.append((a, h0))
        a = max(a, h1)
    if a < b:
        out.append((a, b))
    return out


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict[str, float]:
    """Seconds each function name spent outside its traced children."""
    kids = children_of(spans)
    own: dict[str, list] = {}
    for s in spans:
        holes = [(c.start, c.end) for c in kids.get(s.span_id, ())]
        own.setdefault(s.name, []).extend(subtract((s.start, s.end), holes))
    return {name: total_length(iv) for name, iv in own.items()}


def pool_utilization(spans, threads: int) -> float:
    """Busy time of replicate workers over experiment wall time x harness threads.

    Workers are the pool threads when an experiment runs more than one
    thread, else its own thread; busy time is the union of its direct
    children's intervals in each worker.
    """
    kids = children_of(spans)
    busy = capacity = 0.0
    for s in spans:
        if s.name not in EXPERIMENTS:
            continue
        per_thread: dict[int, list] = {}
        for c in kids.get(s.span_id, ()):
            if threads == 1 or c.thread != s.thread:
                per_thread.setdefault(c.thread, []).append((c.start, c.end))
        busy += sum(total_length(iv) for iv in per_thread.values())
        capacity += (s.end - s.start) * threads
    return busy / capacity if capacity > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers from spans: calls, self time and computed work."""
    out: dict[str, float] = {}
    selfs = self_times(spans)
    for name, (_, _, meter) in LAYER_FUNCTIONS.items():
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
        if meter is not None:
            for key in ("mb", "gflop"):
                values = [s.meter[key] for s in mine if key in s.meter]
                if values:
                    out[f"{name}.{key}_computed"] = float(sum(values))
    ridge = [s for s in spans if s.name == "solvers.ridge_fit"]
    out["solvers.jitter_retries"] = sum(1 for s in ridge if s.meter.get("jitter", 0.0) > 0)
    out["solvers.singular_gram"] = sum(1 for s in ridge if s.error == "SingularGram")
    # helpers for the expected call counts, not reported
    out["solvers.retry_fits"] = len({s.parent for s in ridge if s.meter.get("jitter", 0.0) > 0})
    out["solvers.failed_fits"] = sum(
        1 for s in spans if s.name == "solvers.min_norm_fit" and s.error is not None
    )
    out["operators.linalg_errors"] = len(
        {s.linalg_error for s in spans if s.name.startswith("operators.") and s.linalg_error}
    )
    return out
