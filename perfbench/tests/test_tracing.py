"""The tracer: patches come back out, self times add up, artifacts unchanged."""

import json
from pathlib import Path

import pytest

import relmeta.autodiff as ad
import relmeta.harness as hz
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk
import tracing
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_restore_puts_back_every_patched_attribute():
    tracer = tracing.Tracer()
    tracing.instrument(tracer, ad, nn, tk, rel, ml, hz)
    patched = list(tracer._patched)
    assert len(patched) >= 20
    for owner, attr, original in patched:
        assert _current(owner, attr) is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original
    assert tracer._patched == []


def test_dict_entries_are_patched_and_restored():
    table = {"f": lambda: 1}
    original = table["f"]
    tracer = tracing.Tracer()
    tracer.span(table, "f", "f")
    assert tracer.call("root", table["f"]) == 1
    assert [rec[0] for rec in tracer.spans] == ["root", "f"]
    assert tracer.spans[1][3] == 0
    tracer.restore()
    assert table["f"] is original


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    assert tracer.spans[0][2] is not None and tracer._stack == []


def _span(name, start, end, parent, info=None):
    return [name, float(start), float(end), parent, info]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("root", 0, 10, None),
        _span("a", 1, 4, 0),
        _span("b", 3, 6, 0),    # overlaps a: [1, 6] is covered once
        _span("a.1", 2, 3, 1),
        _span("c", 8, 12, 0),   # clipped to the parent's end
        _span("solo", 20, 21, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.0])


def test_layer_metrics_on_a_synthetic_run():
    B, E = tracing.BATCH, tracing.EVAL
    spans = [
        _span(tracing.ROUND, 0, 100, None),                        # 0
        _span("hz.single_run", 2, 90, 0),                          # 1
        _span("ml.train", 5, 60, 1),                               # 2
        _span("tk.train_batch", 6, 8, 2),                          # 3
        _span("tk.generate", 6, 7, 3),                             # 4
        _span("tk.make_task_batch", 8, 9, 2),                      # 5
        _span(B, 10, 30, 2),                                       # 6
        _span("nn.bind", 10, 11, 6, {"nn.forward": 1}),            # 7
        _span("ml.inner_adapt", 11, 15, 6),                        # 8
        _span("ad.grad", 12, 13, 8),                               # 9
        _span("ad.backward", 16, 26, 6),                           # 10
        _span(tracing.BOOKKEEPING, 26, 28, 6,
              {"ad.forward_nodes": 30, "ad.backward_nodes": 70,
               "ad.median_floats": 40, "op:add": 60, "op:sin": 2}),  # 11
        _span("ml.optimizer_step", 28, 29, 6),                     # 12
        _span("tk.generate", 61, 62, 1),                           # 13
        _span("ml.evaluate", 62, 80, 1),                           # 14
        _span(E, 62, 70, 14),                                      # 15
        _span("nn.bind", 62, 63, 15),                              # 16
        _span("ad.grad", 63, 66, 15),                              # 17
    ]
    m = tracing.layer_metrics(spans, ["add", "matmul"])
    assert m["metalearn.outer_step_ms"] == pytest.approx(18e3)   # 20 s less bookkeeping
    assert m["metalearn.record_ms"] == pytest.approx(2e3)        # 20 - 1 - 4 - 10 - 2 - 1
    assert m["metalearn.inner_adapt_ms"] == pytest.approx(4e3)
    assert m["autodiff.backward_ms"] == pytest.approx(10e3)
    assert m["autodiff.grad_ms"] == pytest.approx(1e3)
    assert m["autodiff.eval_grad_ms"] == pytest.approx(3e3)
    assert m["autodiff.forward_nodes"] == 30 and m["autodiff.backward_nodes"] == 70
    assert m["autodiff.us_per_node"] == pytest.approx(18e6 / 100)
    assert m["autodiff.nodes.add"] == 60 and m["autodiff.nodes.matmul"] == 0
    assert m["autodiff.nodes.other"] == 2
    assert m["autodiff.median_floats"] == 40
    assert m["nn.bind_ms"] == pytest.approx(1e3) and m["nn.eval_bind_ms"] == pytest.approx(1e3)
    assert m["nn.forward_calls"] == 1
    assert m["tasks.batch_ms"] == pytest.approx(3e3)
    assert m["tasks.generated"] == 1
    assert m["tasks.eval_gen_ms"] == pytest.approx(1e3)
    assert m["metalearn.step_ms"] == pytest.approx(1e3)
    assert m["metalearn.eval_adapt_ms"] == pytest.approx(8e3)
    assert m["relation.matrix_ms"] == 0.0
    assert m["harness.setup_ms"] == pytest.approx(5e3)
    assert m["harness.artifacts_ms"] == pytest.approx(10e3)


def test_declared_metrics_are_the_measured_ones():
    bench = json.loads(BENCHMARK.read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    ops = sorted(n[len("autodiff.nodes."):] for n in declared
                 if n.startswith("autodiff.nodes.") and n != "autodiff.nodes.other")
    known = set(ad._FORWARD) | {"leaf", "const"}
    assert set(ops) <= known
    measured = set(tracing.layer_metrics([], ops)) | {"trace.overhead_pct"}
    assert declared == measured
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def _tiny_spec(out):
    return hz.parse_config(None, dict(
        workloads.COMMON, dataset="sinusoid", trlearner="on", batch_tasks="3",
        epochs="2", batches_per_epoch="2", val_tasks="2", eval_tasks="3",
        pool_size="480", out=str(out)))


def test_traced_run_writes_the_same_artifacts(tmp_path):
    hz.run_benchmark(_tiny_spec(tmp_path / "plain"))
    tracer = tracing.Tracer()
    tracing.instrument(tracer, ad, nn, tk, rel, ml, hz)
    try:
        tracer.call(tracing.ROUND, hz.run_benchmark, _tiny_spec(tmp_path / "traced"))
    finally:
        tracer.restore()
    for name in ("results.csv", "log.jsonl"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    m = tracing.layer_metrics(tracer.spans, ["cosine-similarity"])
    assert m["metalearn.predict_calls"] == 9        # N^2 with N = 3
    assert m["relation.cosines"] == 3 * 4           # pairs x similarity heads
    assert m["autodiff.nodes.cosine-similarity"] == 12
    assert m["tasks.generated"] == 3
