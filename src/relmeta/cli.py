"""Command-line front end: bench, sweep-lambda, ablate-matrix, heatmap.

Flags override config-file keys; anything not exposed as a flag can be
set in the key=value file passed with --config.  Exit codes: 0 success,
2 bad configuration, 3 failed run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import relmeta.harness as hz


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, metavar="FILE")
    parser.add_argument("--out", type=str, default=None, metavar="DIR")
    parser.add_argument("--dataset", type=str, default=None,
                        choices=["sinusoid", "harmonic"])
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--method", type=str, default=None,
                        choices=["maml", "metasgd", "anil"])
    parser.add_argument("--trlearner", type=str, default=None, choices=["on", "off"])
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--heads", dest="sim_heads", type=int, default=None,
                        metavar="K")
    parser.add_argument("--batch-tasks", type=int, default=None, metavar="N")
    parser.add_argument("--inner-steps", type=int, default=None)
    parser.add_argument("--eval-inner-steps", type=int, default=None)
    parser.add_argument("--first-order", action="store_true", default=False)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batches-per-epoch", type=int, default=None)
    parser.add_argument("--pool-size", type=str, default=None,
                        help="training pool size, or 'none' for a fresh stream")
    parser.add_argument("--eval-tasks", type=int, default=None)
    parser.add_argument("--matrix-mode", type=str, default=None,
                        choices=["learned", "fixed"])
    parser.add_argument("--optimizer", type=str, default=None,
                        choices=["sgd", "adam"])
    parser.add_argument("--log-matrix-every", type=int, default=None)
    parser.add_argument("--timing", action="store_true", default=False)


def _overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config", "values", "log", "first_order", "timing"}
    over = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        if key == "trlearner":
            value = value == "on"
        over[key] = value
    if args.first_order:
        over["second_order"] = False
    if getattr(args, "timing", False):
        over["timing"] = True
    return over


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
    heat = sub.add_parser("heatmap")
    heat.add_argument("--log", type=str, required=True, metavar="FILE")
    heat.add_argument("--out", type=str, required=True, metavar="DIR")
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "heatmap":
        records = [json.loads(line)
                   for line in Path(args.log).read_text().splitlines() if line]
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        written = hz.export_heatmaps(records, out)
        for path in written:
            print(path)
        return 0
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
