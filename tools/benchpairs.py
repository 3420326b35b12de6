"""Alternating parent/change runs of the benchmark and the BENCH record built from them.

    python3 tools/benchpairs.py run --parent DIR --change DIR --workload anil-eval \\
        --seeds 11,12,13 --out pairs.jsonl [--seconds 25] [--trace 0]
    python3 tools/benchpairs.py build pairs.jsonl --out BENCH_6.json [--acceptance-s 229]

`run` calls `perfbench/run.py` in two checkouts, one pair per seed; the
parent goes first in even pairs and the change first in odd ones, so a
drift of the host's speed does not favour one side.  Each run appends one
JSON line: the side, workload, seed, pair, and perfbench's own `env` and
result lines.  `build` turns those lines into the record: per workload the
median and quartiles of every end-to-end metric on each side over the
`--trace 0` pairs, the pairs the change won, and per side the median of
every per-layer metric over its `--trace 1` runs, with their number; plus
both SHAs, the lines of `src/` on each side, the Python and numpy
versions, `nproc` and the acceptance time.

Each side's failed operations and whether all its runs were correct are
recorded apart.  Each end-to-end metric also gets a verdict.  `gain`: the
change failed no more operations than the parent, won at least nine
tenths of the pairs (ties count for neither side) and its median is
better than the parent's by more than the parent's interquartile range.
`regression`: the change's median is worse than the parent's by more than
the metric's relative bound in BENCHMARK.json.  Anything else is
`unresolved`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def run(args) -> int:
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(args.out, "a") as fh:
        for pair, seed in enumerate(seeds):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                env, result = _run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
                line = {"side": side, "workload": args.workload, "seed": seed, "pair": pair,
                        "trace": args.trace, "env": env, "result": result,
                        "src_lines": _src_lines(checkouts[side])}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
                fh.flush()
                value = {k: round(m["value"], 3) for k, m in result["metrics"].items()
                         if not args.trace}
                print(f"{args.workload} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']} {value}", flush=True)
    return 0


def _src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / "src" / "relmeta").glob("*.py")))


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str, bound: float,
            more_failed: bool) -> str:
    """`gain`, `regression` or `unresolved` for one metric; `parent` and
    `change` are `_quartiles` dicts, `bound` a relative worsening, and
    `more_failed` whether the change failed more operations (no gain then)."""
    sign = 1.0 if better == "higher" else -1.0
    diff = sign * (change["median"] - parent["median"])
    if not more_failed and wins >= 0.9 * pairs and diff > parent["q3"] - parent["q1"]:
        return "gain"
    if -diff > bound * abs(parent["median"]):
        return "regression"
    return "unresolved"


def build(args) -> int:
    lines = [json.loads(line) for line in Path(args.pairs).read_text().splitlines() if line.strip()]
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    envs = {side: [line["env"] for line in lines if line["side"] == side] for side in SIDES}
    record = {
        "git_sha": {side: envs[side][-1]["git_sha"] for side in SIDES},
        "src_lines": {side: [line["src_lines"] for line in lines if line["side"] == side][-1]
                      for side in SIDES},
        "python": envs["change"][-1]["python"],
        "numpy": envs["change"][-1]["numpy"],
        "nproc": envs["change"][-1]["nproc"],
        "acceptance_1_of_8_s": args.acceptance_s,
        "workloads": {},
    }
    for workload in sorted({line["workload"] for line in lines}):
        mine = [line for line in lines if line["workload"] == workload]
        timed = [line for line in mine if line["trace"] == 0]
        entry = {
            "seeds": sorted({line["seed"] for line in timed}),
            "all_correct": {side: all(line["result"]["correct"] for line in mine
                                      if line["side"] == side) for side in SIDES},
            "failed": {side: sum(line["result"]["failed"] for line in mine
                                 if line["side"] == side) for side in SIDES},
            "end_to_end": {},
        }
        more_failed = entry["failed"]["change"] > entry["failed"]["parent"]
        by_pair = {}
        for line in timed:
            by_pair.setdefault(line["pair"], {})[line["side"]] = line["result"]["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        for name, direction in better.items() if pairs else ():
            sides = {side: _quartiles([p[side][name]["value"] for p in pairs]) for side in SIDES}
            wins = sum((p["change"][name]["value"] > p["parent"][name]["value"])
                       == (direction == "higher") for p in pairs
                       if p["change"][name]["value"] != p["parent"][name]["value"])
            entry["end_to_end"][name] = dict(
                sides, pairs=len(pairs), change_wins=wins,
                unit=pairs[0]["change"][name]["unit"],
                verdict=verdict(sides["parent"], sides["change"], wins, len(pairs),
                                direction, bounds[name], more_failed))
        traced = {}
        for line in mine:
            if line["trace"] == 1:
                traced.setdefault(line["side"], []).append(line["result"]["metrics"])
        entry["traced_runs"] = {side: len(runs) for side, runs in traced.items()}
        entry["per_layer"] = {side: {k: statistics.median(run[k]["value"] for run in runs)
                                     for k in runs[0]} for side, runs in traced.items()}
        record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seconds", type=float, default=25.0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    b = sub.add_parser("build")
    b.add_argument("pairs")
    b.add_argument("--out", required=True)
    b.add_argument("--acceptance-s", type=float, default=None)
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else build(args)


if __name__ == "__main__":
    sys.exit(main())
