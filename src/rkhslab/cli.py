"""Command-line entry point for the experiment runner.

Exit codes: 0 success, 2 configuration error, 3 too many replicate failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    MAX_FAILURE_FRACTION,
    run_inconsistency_experiment,
    run_variance_experiment,
)

__all__ = ["main"]


def _thread_count(text: str) -> int:
    threads = int(text)
    if threads < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or a positive integer (got {threads})")
    return threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhslab", description="Variance-curve and interpolation-error experiments."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("variance", "evaluate V, V1, V2 over a lambda grid"),
        ("inconsistency", "measure gamma-norm error growth of interpolation"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.add_argument(
            "--threads",
            type=_thread_count,
            default=1,
            help="worker threads; 0 selects the CPU count",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        if args.command == "inconsistency" and cfg.n_grid[-1] >= cfg.truncation:
            # n >= M makes every Gram matrix singular: the fits would only jitter
            raise ConfigError("sample sizes must stay below the truncation")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    threads = args.threads or os.cpu_count() or 1

    try:
        if args.command == "variance":
            summary = run_variance_experiment(cfg, threads=threads)
            failures = [c["failures"] for c in summary["per_n"].values()]
            print(f"variance experiment done; {sum(failures)} failed replicates")
        else:
            result = run_inconsistency_experiment(cfg, threads=threads)
            failures = result.failure_counts
            slope = "n/a" if result.fitted_slope is None else f"{result.fitted_slope:.3f}"
            print(
                f"inconsistency experiment done; fitted slope {slope}, "
                f"theoretical exponent {result.theoretical_exponent:.3f} "
                f"({result.classification})"
            )
        return 3 if any(f > MAX_FAILURE_FRACTION * cfg.replicates for f in failures) else 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
