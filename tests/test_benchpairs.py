"""The BENCH record built from pair lines: quartiles, wins and verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

METRICS = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {m["name"]: 10.0 for m in METRICS}


def _line(side, pair, values, trace=0, workload="w", failed=0):
    metrics = {name: {"value": values.get(name, BASE[name]), "unit": "u"} for name in BASE}
    env = {"git_sha": side, "python": "3", "numpy": "2", "nproc": 2}
    result = {"correct": not failed, "failed": failed, "metrics": metrics}
    return {"side": side, "workload": workload, "seed": 100 + pair, "pair": pair, "trace": trace,
            "env": env, "src_lines": 1, "result": result}


def _entry(tmp_path, parent, change, failed=None):
    """One pair per index: parent[i] and change[i] map metric names to values;
    `failed` maps a side to the failed operations of each of its runs."""
    lines = []
    failed = failed or {}
    for pair, (p, c) in enumerate(zip(parent, change)):
        lines += [_line("parent", pair, p, failed=failed.get("parent", 0)),
                  _line("change", pair, c, failed=failed.get("change", 0))]
    src = tmp_path / "pairs.jsonl"
    src.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "bench.json"
    assert benchpairs.main(["build", str(src), "--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]["w"]


def _build(tmp_path, parent, change):
    return _entry(tmp_path, parent, change)["end_to_end"]


def test_gain_needs_nine_tenths_of_the_pairs_and_the_parent_iqr(tmp_path):
    parent = [{"train_batches_per_s": 5.0 + 0.1 * k} for k in range(10)]
    change = [{"train_batches_per_s": 6.0 + 0.1 * k} for k in range(10)]
    got = _build(tmp_path, parent, change)["train_batches_per_s"]
    assert got["change_wins"] == 10 and got["pairs"] == 10
    assert got["verdict"] == "gain"
    # nine wins of ten still count; eight do not
    change[0] = {"train_batches_per_s": 4.0}
    assert _build(tmp_path, parent, change)["train_batches_per_s"]["verdict"] == "gain"
    change[1] = {"train_batches_per_s": 4.0}
    assert _build(tmp_path, parent, change)["train_batches_per_s"]["verdict"] == "unresolved"


def test_wins_inside_the_parent_spread_are_unresolved(tmp_path):
    # the change wins every pair, by less than the parent's interquartile range
    parent = [{"run_s": 10.0 + k} for k in range(10)]
    change = [{"run_s": 9.9 + k} for k in range(10)]
    got = _build(tmp_path, parent, change)["run_s"]
    assert got["change_wins"] == 10 and got["verdict"] == "unresolved"


@pytest.mark.parametrize("name, worse, fine", [
    ("peak_rss_mb", 10.6, 10.4),             # lower is better, bound 5%
    ("eval_tasks_per_s", 7.4, 7.6),          # higher is better, bound 25%
])
def test_regression_is_a_median_worse_than_the_bound(tmp_path, name, worse, fine):
    parent = [{} for _ in range(5)]
    assert _build(tmp_path, parent, [{name: worse}] * 5)[name]["verdict"] == "regression"
    assert _build(tmp_path, parent, [{name: fine}] * 5)[name]["verdict"] == "unresolved"


def test_a_traced_pair_alone_has_no_end_to_end_entry(tmp_path):
    src = tmp_path / "pairs.jsonl"
    src.write_text("".join(json.dumps(_line(side, 0, {}, trace=1)) + "\n"
                           for side in benchpairs.SIDES))
    out = tmp_path / "bench.json"
    assert benchpairs.main(["build", str(src), "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["end_to_end"] == {} and set(entry["per_layer"]) == set(benchpairs.SIDES)


def test_per_layer_figures_are_medians_over_the_traced_runs(tmp_path):
    # three traced runs per side: each metric's median, not the last run's
    runs = {"parent": [(2.0, 30), (9.0, 10), (2.5, 20)], "change": [(1.0, 7), (5.0, 7), (3.0, 8)]}
    lines = []
    for side, values in runs.items():
        for pair, (ms, count) in enumerate(values):
            line = _line(side, pair, {}, trace=1)
            line["result"]["metrics"] = {"autodiff.grad_ms": {"value": ms, "unit": "ms"},
                                         "autodiff.forward_nodes": {"value": count, "unit": "count"}}
            lines.append(line)
    src = tmp_path / "pairs.jsonl"
    src.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "bench.json"
    assert benchpairs.main(["build", str(src), "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["per_layer"] == {"parent": {"autodiff.grad_ms": 2.5, "autodiff.forward_nodes": 20},
                                  "change": {"autodiff.grad_ms": 3.0, "autodiff.forward_nodes": 7}}
    assert entry["traced_runs"] == {"parent": 3, "change": 3}


def test_ties_count_for_neither_side(tmp_path):
    got = _build(tmp_path, [{} for _ in range(10)], [{} for _ in range(10)])
    assert {m["change_wins"] for m in got.values()} == {0}
    assert {m["verdict"] for m in got.values()} == {"unresolved"}


def test_failures_are_kept_per_side_and_bar_a_gain(tmp_path):
    parent = [{"train_batches_per_s": 5.0 + 0.1 * k} for k in range(10)]
    change = [{"train_batches_per_s": 6.0 + 0.1 * k} for k in range(10)]
    got = _entry(tmp_path, parent, change, failed={"change": 1})
    assert got["failed"] == {"parent": 0, "change": 10}
    assert got["all_correct"] == {"parent": True, "change": False}
    assert got["end_to_end"]["train_batches_per_s"]["verdict"] == "unresolved"
    # as many failures on both sides leave the gain standing
    got = _entry(tmp_path, parent, change, failed={"parent": 1, "change": 1})
    assert got["end_to_end"]["train_batches_per_s"]["verdict"] == "gain"
