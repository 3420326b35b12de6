"""Do two checkouts write the same artifacts for the benchmark's workloads?

    python3 tools/samebytes.py PARENT CHANGE [--seed 5] [--rounds 2]

For each workload in `perfbench/workloads.py` and each round `r` below
`--rounds`, the tool runs `harness.run_benchmark` on
`workloads.overrides(workload, seed, r, out)` once in each checkout, in a
subprocess with that checkout's `src` first on the path.  It then compares
the two runs' `results.csv`, `log.jsonl`, `summary.txt` and `config.txt`
byte for byte, leaving out the `out=` line of `config.txt`, which names
each run's own directory.  It exits 1 naming the first file that differs
or is missing, or 0 when every file is the same.  The runs write to a
temporary directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SIDES = ("parent", "change")
COMPARED = ("results.csv", "log.jsonl", "summary.txt", "config.txt")

# argv: the checkout's src directory, then the overrides as JSON
_RUN = ("import json, sys; sys.path.insert(0, sys.argv[1]); from relmeta import harness; "
        "harness.run_benchmark(harness.parse_config(None, json.loads(sys.argv[2])))")


def run_round(checkout: Path, workload: str, seed: int, round_index: int, out: Path) -> int:
    """One `run_benchmark` call of the workload's round in `checkout`; its exit status."""
    spec = workloads.overrides(workload, seed, round_index, str(out))
    cmd = [sys.executable, "-c", _RUN, str(checkout / "src"), json.dumps(spec)]
    return subprocess.run(cmd, cwd=checkout).returncode


def artifact_bytes(path: Path) -> bytes:
    """The file's bytes; for `config.txt`, without its `out=` line."""
    data = path.read_bytes()
    if path.name == "config.txt":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"out="))
    return data


def compare(parent: Path, change: Path) -> int:
    """0 when both directories hold every compared file with the same bytes,
    else 1, after printing the first file that differs or is missing."""
    for name in COMPARED:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists() and artifact_bytes(a) == artifact_bytes(b)):
            print(f"differs: {a} and {b}")
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for r in range(args.rounds):
                dirs = [Path(tmp) / side / f"{workload}-{r}" for side in SIDES]
                codes = [run_round(checkout.resolve(), workload, args.seed, r, d)
                         for checkout, d in zip((args.parent, args.change), dirs)]
                if codes[0] != codes[1]:
                    print(f"{workload} round {r}: exit status {codes[0]} (parent), {codes[1]} (change)")
                    return 1
                if compare(*dirs):
                    return 1
                print(f"{workload} round {r}: same bytes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
