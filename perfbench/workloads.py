"""The benchmark's workloads: `harness.parse_config` overrides, as strings.

Each value is written exactly as it would appear in a `relmeta bench`
config file.  One round is one `harness.run_benchmark` call of about a
second; a run repeats rounds until its time is up.  Round `r` of a run
with seed `s` uses spec seed `ROUND_SEEDS * s + r`, so the seed fixes
every task, initialization and metadata draw of the run.

A run reports totals over its rounds.  Each round is sized so that its
training and its evaluation window both last at least a quarter second
even at the fastest rates measured, so every round's own figures in
`run.json` are readable too.
"""

from __future__ import annotations

ROUND_SEEDS = 1000

# Shared by every workload: 10-shot tasks with 15 queries, hidden (40, 40),
# alpha 0.05 and beta 0.01 as in the acceptance protocol, one run per round
# and a 7-step evaluation adaptation.
COMMON = {
    "shots": "10", "queries": "15", "hidden": "40,40",
    "alpha": "0.05", "beta": "0.01", "runs": "1", "eval_inner_steps": "7",
}

WORKLOADS = {
    # Plain arm of the sinusoid acceptance check; task data is a visible
    # share of a meta-batch, the relation layer does nothing.
    "sin-maml": {
        "dataset": "sinusoid", "method": "maml", "trlearner": "off",
        "batch_tasks": "4", "pool_size": "480",
        "epochs": "1", "batches_per_epoch": "100", "val_tasks": "0", "eval_tasks": "170",
    },
    # Treated arm: relation matrix, consistency term and the outer backward
    # through both dominate.
    "sin-maml-trl": {
        "dataset": "sinusoid", "method": "maml", "trlearner": "on",
        "lam": "0.6", "sim_heads": "4", "batch_tasks": "4", "pool_size": "480",
        "epochs": "1", "batches_per_epoch": "50", "val_tasks": "0", "eval_tasks": "170",
    },
    # Sixteen tasks per meta-batch: the O(N^2) consistency loop dominates.
    # A fresh task stream leaves a pool cache nothing to cache; harmonic
    # tasks take the input_scale path.
    "harm-wide-trl": {
        "dataset": "harmonic", "method": "maml", "trlearner": "on",
        "lam": "0.6", "sim_heads": "4", "batch_tasks": "16", "pool_size": "none",
        "epochs": "1", "batches_per_epoch": "4", "val_tasks": "0", "eval_tasks": "200",
    },
    # Head-only adaptation; short training with per-epoch validation, then
    # many first-order evaluation adaptations, which are most of the time.
    "anil-eval": {
        "dataset": "sinusoid", "method": "anil", "trlearner": "off",
        "batch_tasks": "4", "pool_size": "480",
        "epochs": "2", "batches_per_epoch": "50", "val_tasks": "25", "eval_tasks": "300",
    },
}


def overrides(workload: str, seed: int, round_index: int, out: str) -> dict:
    """parse_config overrides for one round of a workload."""
    spec = dict(COMMON, **WORKLOADS[workload])
    spec["seed"] = str(ROUND_SEEDS * seed + round_index)
    spec["out"] = out
    return spec


def operations(spec) -> int:
    """Meta-batches plus evaluation adaptations in one round of `spec`."""
    per_run = (spec.epochs * spec.batches_per_epoch + spec.epochs * spec.val_tasks
               + spec.eval_tasks)
    return spec.runs * per_run
