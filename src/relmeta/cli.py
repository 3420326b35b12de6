"""Command-line front end: bench, sweep-lambda, ablate-matrix.

Every config key has one flag, and flags override the key=value file
passed with --config.  `bench --log-matrix-every N` also writes the
relation-matrix heatmaps.  Exit codes: 0 success, 2 bad configuration,
3 failed run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import relmeta.harness as hz


#: flag spellings that differ from the config key
_FLAG_NAMES = {"lam": "--lambda", "sim_heads": "--heads"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    """One flag per spec field; values stay strings until parse_config."""
    parser.add_argument("--config", type=str, default=None, metavar="FILE")
    for f in fields(hz.ExperimentSpec):
        if f.name == "second_order":
            parser.add_argument("--first-order", dest=f.name, action="store_const",
                                const="false", help="first-order meta-gradients")
            continue
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        extra = dict(nargs="?", const="true") if isinstance(f.default, bool) else {}
        parser.add_argument(flag, dest=f.name, help=f"default {hz.format_value(f.default)}",
                            **extra)


def _overrides(args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(hz.ExperimentSpec)
            if getattr(args, f.name) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmeta",
        description="Meta-learning benchmarks with relation-aware regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bench", "sweep-lambda", "ablate-matrix"):
        _add_common(sub.add_parser(name))
    sweep = sub.choices["sweep-lambda"]
    sweep.add_argument("--values", type=str, default=None,
                       help="comma-separated lambda grid, default 0.3..0.8")
    return parser


def _run(args: argparse.Namespace) -> int:
    spec = hz.parse_config(args.config, _overrides(args))
    if args.command == "bench":
        rows = hz.run_benchmark(spec)
    elif args.command == "sweep-lambda":
        if args.values is not None:
            try:
                grid = tuple(float(v) for v in args.values.split(",") if v.strip())
            except ValueError as exc:
                raise hz.ConfigError(f"values: {exc}") from None
        else:
            grid = hz.LAMBDA_GRID
        rows = hz.sweep_lambda(spec, grid)
    else:
        rows = hz.ablate_matrix(spec)
    for row in rows:
        print(hz.summary_line(row))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except hz.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (hz.RunError, OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
