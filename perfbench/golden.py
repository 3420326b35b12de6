"""Recorded task data: relmeta's task streams must not change.

`golden_tasks.json` holds, per workload, a digest of fixed training,
validation and evaluation draws of a `TaskSource` built as `single_run`
builds it, at spec seed `SEED`.  The training draws include later epochs,
so a task cache that returns stale or repeated tasks fails the check.
The file was written from relmeta's own task streams; rewrite it only
when the streams are meant to change:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_tasks.json"

SEED = 0
# (epoch, batch) of the training draws, every slot of the meta-batch.
TRAIN_DRAWS = ((0, 0), (0, 1), (1, 0), (3, 17))
VAL_DRAWS = (0, 24)
EVAL_DRAWS = (0, 199)
# The digests are sums of up to 50 values; room for summation order.
RTOL = 1e-12


def _digest(task):
    """Sum, position-weighted sum and sum of squares of a task's arrays."""
    a = np.concatenate([np.ravel(task.support_x), np.ravel(task.support_y),
                        np.ravel(task.query_x), np.ravel(task.query_y)])
    return [float(a.sum()), float(a @ np.arange(1.0, a.size + 1.0)), float(a @ a)]


def draws(spec):
    """Digests of the fixed draws of the task stream of `spec`."""
    import relmeta.tasks as tk
    source = tk.TaskSource(spec.dataset, spec.shots, spec.queries, noise_sd=spec.noise_sd,
                           seed=SEED, pool_size=spec.pool_size)
    out = {}
    for epoch, batch in TRAIN_DRAWS:
        tasks = source.train_batch(epoch, batch, spec.batch_tasks)
        out[f"train {epoch} {batch}"] = [_digest(t) for t in tasks]
    out["val"] = [_digest(source.val_task(i)) for i in VAL_DRAWS]
    out["eval"] = [_digest(source.eval_task(i)) for i in EVAL_DRAWS]
    return out


def check_task_streams(workload, spec):
    """Failure messages where the draws differ from the recorded ones."""
    want = json.loads(GOLDEN.read_text())[workload]
    got = draws(spec)
    bad = []
    for key in want:
        a, b = np.asarray(got.get(key, []), dtype=float), np.asarray(want[key], dtype=float)
        if a.shape != b.shape or np.any(np.abs(a - b) > RTOL * np.maximum(1.0, np.abs(b))):
            bad.append(f"{workload}: task draws '{key}' differ from {GOLDEN.name}")
    return bad


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import relmeta.harness as hz
    import workloads
    golden = {}
    for name in workloads.WORKLOADS:
        spec = hz.parse_config(None, workloads.overrides(name, 0, 0, "unused"))
        golden[name] = draws(spec)
    lines = [f"  {json.dumps(w)}: {{" + ",".join(
        f"\n    {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())) + "\n  }"
        for w, entries in sorted(golden.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
