"""Command-line front end: bench and sweep.

`bench` runs one spec.  `sweep --key KEY --values V [V ...]` runs one
benchmark per value of any config key on shared seeds, e.g. the λ curve
(`--key lam`), learned against fixed masks (`--key matrix_mode`) or
plain against treated (`--key trlearner --values false true`).  Every
config key has one flag, `--` plus the key with `-` for `_`, and flags
override the key=value file passed with --config.  `bench
--log-matrix-every N` also writes the relation-matrix heatmaps.  Exit
codes: 0 success, 2 bad configuration, 3 failed run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import relmeta.harness as hz


def _add_common(parser: argparse.ArgumentParser) -> None:
    """One flag per spec field; values stay strings until parse_config."""
    parser.add_argument("--config", type=str, default=None, metavar="FILE")
    for f in fields(hz.ExperimentSpec):
        extra = dict(nargs="?", const="true") if isinstance(f.default, bool) else {}
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            help=f"default {hz.format_value(f.default)}", **extra)


def _overrides(args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(hz.ExperimentSpec)
            if getattr(args, f.name) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmeta",
        description="Meta-learning benchmarks with relation-aware regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bench", "sweep"):
        _add_common(sub.add_parser(name))
    sweep = sub.choices["sweep"]
    sweep.add_argument("--key", required=True, help="the config key to vary")
    sweep.add_argument("--values", nargs="*", required=True, metavar="V",
                       help="one benchmark per value, parsed like the config file")
    return parser


def _run(args: argparse.Namespace) -> int:
    spec = hz.parse_config(args.config, _overrides(args))
    key = getattr(args, "key", None)
    rows = hz.run_benchmark(spec) if key is None else hz.sweep(spec, key, args.values)
    for row in rows:
        print(hz.summary_line(row, key))
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
