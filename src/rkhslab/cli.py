"""Command-line entry point for the experiment runner.

Exit codes: 0 success, 2 configuration error, 3 too many replicate failures.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    MAX_FAILURE_FRACTION,
    run_inconsistency_experiment,
    run_variance_experiment,
)

__all__ = ["main"]


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
            "--threads", type=int, default=1, help="worker threads; 0 selects the CPU count"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config, seed=args.seed, output_dir=args.out)
        if args.command == "inconsistency" and cfg.n_grid[-1] >= cfg.truncation:
            # n >= M makes every Gram matrix singular: the fits would only jitter
            raise ConfigError("sample sizes must stay below the truncation")
        if args.command == "variance":
            summary = run_variance_experiment(cfg, threads=args.threads)
            failures = [c["failures"] for c in summary["per_n"].values()]
            print(f"variance experiment done; {sum(failures)} failed replicates")
        else:
            summary = run_inconsistency_experiment(cfg, threads=args.threads)
            failures = summary["failure_counts"]
            slope = "n/a" if summary["fitted_slope"] is None else f"{summary['fitted_slope']:.3f}"
            print(
                f"inconsistency experiment done; fitted slope {slope}, "
                f"theoretical exponent {summary['theoretical_exponent']:.3f} "
                f"({summary['classification']})"
            )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return 3 if any(f > MAX_FAILURE_FRACTION * cfg.replicates for f in failures) else 0


if __name__ == "__main__":
    raise SystemExit(main())
