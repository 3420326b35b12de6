"""relmeta benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sin-maml --seed 0 --seconds 25 --trace 0

Run from the repository root.  `--trace 0` measures the end-to-end
metrics of BENCHMARK.json: set-up probes before and after one untimed
process that repeats benchmark rounds for `--seconds` and checks the
program's outputs against the numpy oracle.  `--trace 1` runs the same
untimed process for half the time, then a traced process over the same
rounds, and prints the per-layer metrics with the tracing overhead.
Either way the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every process this script starts has ended when it exits.  Outputs go to
`.perfbench_out/` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed in fresh processes, half of them before the untimed
# run and half after it, so that they meet different phases of the
# host's speed; the untimed run adds one more sample.
SETUP_PROBES = 9
# A worker process that has not ended by then is killed; the whole run
# must end within 180 s.
WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def _worker(mode, args, out, **extra):
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not end within {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _same_bytes(untimed_dir, traced_dir, rounds):
    bad = []
    for r in range(rounds):
        for name in ("results.csv", "log.jsonl"):
            a = untimed_dir / f"round{r:03d}" / name
            b = traced_dir / f"round{r:03d}" / name
            if a.read_bytes() != b.read_bytes():
                bad.append(f"round {r}: traced {name} differs from the untimed run")
    return bad


def _total(rounds, key):
    return sum(r[key] for r in rounds)


def measure(args, bench, out):
    """Runs the workers; returns (result line, check failures, run record,
    the untimed run's rounds)."""
    setup = []
    if not args.trace:
        setup += [_worker("probe", args, out)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    # A traced run spends half its time untimed and the rest on the same
    # rounds under the tracer.
    main = _worker("untimed", args, out, seconds=args.seconds / 2 if args.trace else args.seconds)
    rounds = main["rounds"]
    failures = list(main["failures"])
    info = {"numpy": main["numpy"], "errors": main["errors"]}
    for line in main["errors"]:
        print(f"OPERATION FAILED: {line}", file=sys.stderr)
    if not rounds:
        # Nothing to measure; the result still reports the failed operation.
        failures.append("no round completed")
        return ({"correct": False, "attempted": main["attempted"], "failed": main["failed"],
                 "metrics": {}}, failures, info, rounds)
    # The host's speed swings by tens of percent in phases of several
    # seconds, longer than a round.  Totals over every round of the run
    # average over those phases; a median of rounds would pick one.
    mean_run_s = _total(rounds, "run_s") / len(rounds)
    if not args.trace:
        setup += [_worker("probe", args, out)["setup_s"]
                  for _ in range(SETUP_PROBES - len(setup))]
        values = {
            "setup_s": statistics.median(setup + [main["setup_s"]]),
            "train_batches_per_s": _total(rounds, "batches") / _total(rounds, "train_s"),
            "eval_tasks_per_s": _total(rounds, "eval_tasks") / _total(rounds, "eval_s"),
            "run_s": mean_run_s,
            "peak_rss_mb": main["peak_rss_mb"],
        }
        declared = bench["end_to_end"]
    else:
        ops = [m["name"][len("autodiff.nodes."):] for m in bench["per_layer"]
               if m["name"].startswith("autodiff.nodes.") and m["name"] != "autodiff.nodes.other"]
        traced = _worker("traced", args, out, rounds=len(rounds), ops=",".join(ops))
        failures += _same_bytes(out / "untimed", out / "traced", len(rounds))
        values = dict(traced["layers"])
        values["trace.overhead_pct"] = 100.0 * (
            sum(traced["run_s"]) / len(traced["run_s"]) / mean_run_s - 1.0)
        declared = bench["per_layer"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is declared but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": not failures, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    return result, failures, info, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one relmeta benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "relmeta").is_dir():
            raise BenchError(f"no relmeta sources under {ROOT / 'src'}")
        out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result, failures, info, rounds = measure(args, bench, out)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, git_sha=_git_sha(), python=platform.python_version(),
                nproc=len(os.sched_getaffinity(0)), failures=failures)
    (out / "run.json").write_text(json.dumps(dict(info, rounds=rounds), indent=1,
                                             sort_keys=True) + "\n")
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"env": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
