"""One workload process: a set-up probe, an untimed run or a traced run.

Started by run.py, one process per run, with the BLAS/OpenMP thread
variables already set to 1.  Prints one JSON object as its last line.

  probe    imports and set-up only; reports the time from process launch
           (`--t0`, a CLOCK_MONOTONIC reading taken by the parent just
           before it started this process) to the first `metalearn.train`.
  untimed  repeats rounds until `--seconds` are up, with timers only
           around `metalearn.train`, `metalearn.evaluate`,
           `harness.run_benchmark` and `TaskSource.val_task`, and a count
           of the operations started; then runs the oracle checks.
  traced   repeats `--rounds` rounds under the tracer and reports the
           per-layer figures.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class _SetupReached(BaseException):
    """Ends a probe at the first meta-batch; not an Exception, so the
    harness's failure handling does not catch it."""


def _import_relmeta():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import relmeta.harness  # noqa: F401
    except ImportError as exc:
        print(f"cannot import relmeta from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)


def _spec(args, round_index, out):
    import relmeta.harness as hz
    import workloads
    return hz.parse_config(None, workloads.overrides(
        args.workload, args.seed, round_index, str(out)))


def probe(args):
    _import_relmeta()
    import relmeta.harness as hz
    import relmeta.metalearn as ml

    def train(*_a, **_k):
        raise _SetupReached(time.monotonic() - args.t0)

    ml.train = train
    try:
        hz.run_benchmark(_spec(args, 0, args.out / "probe"))
    except _SetupReached as reached:
        return {"setup_s": reached.args[0]}
    raise RuntimeError("run_benchmark returned without training")


def untimed(args):
    _import_relmeta()
    import numpy as np
    import relmeta.harness as hz
    import relmeta.metalearn as ml
    import relmeta.tasks as tk
    import checks
    import golden
    import workloads

    clock = time.perf_counter
    setup = []
    cur = {}
    train_fn, evaluate_fn = ml.train, ml.evaluate
    step_fn, adapt_fn = ml.outer_step, ml.adapted_query_mse
    val_task_fn = tk.TaskSource.val_task

    def train(*a, **k):
        if not setup:
            setup.append(time.monotonic() - args.t0)
        t = clock()
        try:
            return train_fn(*a, **k)
        finally:
            cur["train_s"] += clock() - t
            cur["in_train"] = False

    def evaluate(model, tasks, config):
        t = clock()
        result = evaluate_fn(model, tasks, config)
        dt = clock() - t
        cur["eval_s"] += dt
        cur["eval_n"] += len(tasks)
        if cur["in_train"]:
            cur["val_s"] += dt
        cur["evaluations"].append(result["per_task"])
        return result

    # Validation inside `train` is left out of the training rate: the
    # validation `evaluate` calls above, and generating their tasks here.
    def val_task(self, idx):
        t = clock()
        try:
            return val_task_fn(self, idx)
        finally:
            cur["val_s"] += clock() - t

    # Operations are counted, not timed, as they start.
    def outer_step(*a, **k):
        cur["ops"] += 1
        return step_fn(*a, **k)

    def adapted_query_mse(*a, **k):
        cur["ops"] += 1
        return adapt_fn(*a, **k)

    patches = ((ml, "train", train), (ml, "evaluate", evaluate),
               (ml, "outer_step", outer_step), (ml, "adapted_query_mse", adapted_query_mse),
               (tk.TaskSource, "val_task", val_task))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, fn in patches:
        setattr(owner, attr, fn)
    rounds, failures, errors = [], [], []
    attempted = failed = 0
    deadline = None
    while True:
        out = args.out / "untimed" / f"round{len(rounds):03d}"
        spec = _spec(args, len(rounds), out)
        cur.update(train_s=0.0, val_s=0.0, eval_s=0.0, eval_n=0, ops=0, in_train=True,
                   evaluations=[])
        t = clock()
        try:
            hz.run_benchmark(spec)
        except hz.RunError as exc:
            # The round stops at its first failed operation: the last one
            # started, or one of its own if it failed before any started.
            errors.append(f"round {len(rounds)}: {exc}")
            attempted += max(cur["ops"], 1)
            failed += 1
            break
        run_s = clock() - t
        if deadline is None:
            deadline = t + args.seconds
        rounds.append({
            "run_s": run_s,
            "batches": spec.runs * spec.epochs * spec.batches_per_epoch,
            "train_s": cur["train_s"] - cur["val_s"],
            "eval_tasks": cur["eval_n"],
            "eval_s": cur["eval_s"],
        })
        attempted += cur["ops"]
        if cur["ops"] != workloads.operations(spec):
            failures.append(f"round {len(rounds) - 1}: {cur['ops']} operations, "
                            f"expected {workloads.operations(spec)}")
        failures += checks.check_artifacts(out, cur["evaluations"], spec.epochs)
        if clock() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for owner, attr, fn in originals:
        setattr(owner, attr, fn)
    if rounds:
        spec = _spec(args, 0, args.out / "check")
        failures += checks.check_workload(spec)
        failures += golden.check_task_streams(args.workload, spec)
    return {
        "setup_s": setup[0] if setup else None,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "errors": errors,
        "numpy": np.__version__,
    }


def traced(args):
    _import_relmeta()
    import relmeta.autodiff as ad
    import relmeta.harness as hz
    import relmeta.metalearn as ml
    import relmeta.nn as nn
    import relmeta.relation as rel
    import relmeta.tasks as tk
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer, ad, nn, tk, rel, ml, hz)
    try:
        for r in range(args.rounds):
            spec = _spec(args, r, args.out / "traced" / f"round{r:03d}")
            tracer.call(tracing.ROUND, hz.run_benchmark, spec)
    finally:
        tracer.restore()
    run_s = [end - start for name, start, end, _, _ in tracer.spans if name == tracing.ROUND]
    return {
        "run_s": run_s,
        "layers": tracing.layer_metrics(tracer.spans, args.ops.split(",")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "untimed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--ops", default="")
    args = parser.parse_args(argv)
    result = {"probe": probe, "untimed": untimed, "traced": traced}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
