"""Memory of one recorded meta-batch and of its outer backward, per task count.

    python3 tools/memprobe.py harm-wide-trl --tasks 4,8,16,32 [key=value ...]

The first argument names a `perfbench/workloads.py` workload; `key=value`
pairs override its config keys, and `batch_tasks` is set to each N in
turn.  For each N the probe builds the run's model, similarity layer and
task source at the spec's seed, records the first meta-batch's phases A-D
(`metalearn._record_batch`) and runs `autodiff.backward` on its
objective, both under tracemalloc, after one untraced pass of the same
batch.  It prints, in bytes:

- `tape`: what the recording keeps alive (its tape and the objective);
- `backward_peak`: the traced peak during the backward pass, the tape
  included;
- `held`: that peak less the tape, what the reverse walk held at once.

The figures are allocation sizes, not wall time, so they repeat from
run to run on one Python and numpy.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from relmeta import autodiff as ad  # noqa: E402
from relmeta import harness, nn  # noqa: E402
from relmeta import metalearn as ml  # noqa: E402
from relmeta import relation as rel  # noqa: E402
from relmeta import tasks as tk  # noqa: E402


def spec_for(workload: str, tasks: int, overrides=()) -> harness.ExperimentSpec:
    """The workload's spec with `batch_tasks` set to `tasks`."""
    keys = dict(workloads.COMMON, **workloads.WORKLOADS[workload])
    keys.update(kv.split("=", 1) for kv in overrides)
    keys["batch_tasks"] = str(tasks)
    return harness.parse_config(overrides=keys)


def _record(spec: harness.ExperimentSpec):
    model = nn.init_model([1, *spec.hidden], spec.batch_tasks, spec.seed,
                          input_scale=tk.INPUT_SCALES[spec.dataset])
    layer = rel.SimilarityLayer(spec.sim_heads, model.feature_width)
    source = tk.TaskSource(spec.dataset, spec.shots, spec.queries, noise_sd=spec.noise_sd,
                           seed=spec.seed, pool_size=spec.pool_size)
    batch = tk.make_task_batch(source.train_batch(0, 0, spec.batch_tasks),
                               spec.metadata_strategy, spec.metadata_samples,
                               seed=(spec.seed, 4, 0, 0))
    return lambda: ml._record_batch(model, layer, batch, spec)[2]


def measure(spec: harness.ExperimentSpec) -> dict:
    """Tape, backward-peak and held bytes of the spec's first meta-batch."""
    record = _record(spec)
    ad.backward(record())  # numpy's and the interpreter's one-off allocations
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        objective = record()
        tape = tracemalloc.get_traced_memory()[0] - start
        nodes = len(objective.tape)
        tracemalloc.reset_peak()
        ad.backward(objective)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return {"tasks": spec.batch_tasks, "nodes": nodes, "tape": tape,
            "backward_peak": peak, "held": peak - tape}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--tasks", default="4,8,16", help="comma-separated task counts N")
    parser.add_argument("overrides", nargs="*", metavar="key=value")
    args = parser.parse_intermixed_args(argv)
    print(f"{'N':>4} {'nodes':>7} {'tape':>11} {'backward_peak':>14} {'held':>11}")
    for n in (int(v) for v in args.tasks.split(",")):
        row = measure(spec_for(args.workload, n, args.overrides))
        print(f"{row['tasks']:>4} {row['nodes']:>7} {row['tape']:>11,} "
              f"{row['backward_peak']:>14,} {row['held']:>11,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
