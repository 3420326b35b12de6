"""Operation counting of the untimed run, and the recorded task draws."""

import argparse
import json
import time

import pytest

import golden
import relmeta.harness as hz
import relmeta.metalearn as ml
import relmeta.tasks as tk
import run
import worker
import workloads


def _args(tmp_path, workload="anil-eval"):
    return argparse.Namespace(workload=workload, seed=0, out=tmp_path, t0=time.monotonic(),
                              seconds=0.01, trace=0)


def test_one_round_attempts_every_operation(tmp_path):
    got = worker.untimed(_args(tmp_path))
    spec = hz.parse_config(None, workloads.overrides("anil-eval", 0, 0, str(tmp_path)))
    assert len(got["rounds"]) == 1
    assert got["attempted"] == workloads.operations(spec)
    assert got["failed"] == 0 and got["failures"] == []
    assert tk.TaskSource.val_task.__name__ == "val_task"
    assert ml.train.__module__ == ml.outer_step.__module__ == "relmeta.metalearn"


def test_failed_round_counts_the_operations_it_started(tmp_path, monkeypatch):
    step, calls = ml.outer_step, []

    def failing(*a, **k):
        calls.append(None)
        if len(calls) == 3:
            raise ml.MetaLearnError("injected")
        return step(*a, **k)

    monkeypatch.setattr(ml, "outer_step", failing)
    got = worker.untimed(_args(tmp_path))
    assert got["rounds"] == [] and got["attempted"] == 3 and got["failed"] == 1
    assert "injected" in got["errors"][0]
    assert ml.outer_step is failing


def test_no_completed_round_still_prints_a_result(tmp_path, monkeypatch):
    untimed = {"rounds": [], "failures": [], "errors": ["round 0: injected"], "numpy": "",
               "attempted": 3, "failed": 1, "setup_s": None, "peak_rss_mb": 1.0}
    monkeypatch.setattr(run, "_worker",
                        lambda mode, *a, **k: {"setup_s": 0.2} if mode == "probe" else untimed)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result, failures, _, _ = run.measure(_args(tmp_path), bench, tmp_path)
    assert result == {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}
    assert failures == ["no round completed"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_task_streams_match_the_recorded_draws(name):
    spec = hz.parse_config(None, workloads.overrides(name, 0, 0, "unused"))
    assert golden.check_task_streams(name, spec) == []


def test_recorded_draws_catch_stale_tasks(monkeypatch):
    train_task = tk.TaskSource.train_task
    # A cache keyed without the epoch hands every epoch the tasks of epoch 0.
    monkeypatch.setattr(tk.TaskSource, "train_task",
                        lambda self, epoch, batch, slot: train_task(self, 0, batch, slot))
    spec = hz.parse_config(None, workloads.overrides("sin-maml", 0, 0, "unused"))
    bad = golden.check_task_streams("sin-maml", spec)
    assert any("'train 1 0'" in line for line in bad)
    assert any("'train 3 17'" in line for line in bad)
    assert not any("'train 0 0'" in line for line in bad)
