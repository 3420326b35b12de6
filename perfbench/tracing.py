"""Spans and counters recorded by wrapping relmeta's public functions.

A Tracer replaces module, class and dict attributes with thin wrappers
and puts every original back on `restore()`.  Spans (name, start, end,
parent) and per-span counters are kept in memory; `layer_metrics` turns
them into the per-layer figures once the traced run has ended.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    """Owns the span list and the patches that feed it."""

    def __init__(self):
        # One [name, start, end, parent, info] per span; info is a Counter
        # of event counts and values attached to that span, or None.
        self.spans = []
        self._stack = []
        self._patched = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
        spans.append(rec)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def add(self, key, amount=1):
        """Add to a counter of the innermost open span."""
        if not self._stack:
            raise RuntimeError(f"counter {key!r} outside any span")
        rec = self.spans[self._stack[-1]]
        if rec[4] is None:
            rec[4] = Counter()
        rec[4][key] += amount

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def patch(self, owner, attr, make_wrapper):
        """Replace owner.attr (or owner[attr]) by make_wrapper(original)."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        self._set(owner, attr, make_wrapper(original))

    def span(self, owner, attr, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return wrapper
        self.patch(owner, attr, make)

    def counter(self, owner, attr, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.add(key)
                return fn(*args, **kwargs)
            return wrapper
        self.patch(owner, attr, make)

    def restore(self):
        """Put back every patched attribute, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            self._set(owner, attr, original)


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# relmeta instrumentation

BATCH, EVAL = "ml.outer_step", "ml.adapted_query_mse"
ROUND = "harness.run_benchmark"
# Node counting at the backward boundary; its time is taken out of the
# meta-batch figures.
BOOKKEEPING = "trace.bookkeeping"


def instrument(tracer, ad, nn, tk, rel, ml, hz):
    """Wrap the layer boundaries of relmeta; the caller must `restore()`."""
    for owner, attr, name in (
        (hz, "single_run", "hz.single_run"),
        (ml, "train", "ml.train"),
        (ml, "evaluate", "ml.evaluate"),
        (ml, "outer_step", BATCH),
        (ml, "adapted_query_mse", EVAL),
        (ml, "inner_adapt", "ml.inner_adapt"),
        (ml, "trlearner_loss", "ml.trlearner_loss"),
        (ml.SGDMomentum, "step", "ml.optimizer_step"),
        (ml.Adam, "step", "ml.optimizer_step"),
        (nn, "bind", "nn.bind"),
        (rel, "task_representation", "rel.task_representation"),
        (rel, "build_matrix", "rel.build_matrix"),
        (ad, "grad", "ad.grad"),
        (tk.TaskSource, "train_batch", "tk.train_batch"),
        (tk, "make_task_batch", "tk.make_task_batch"),
    ):
        tracer.span(owner, attr, name)
    for family in list(tk.GENERATORS):
        tracer.span(tk.GENERATORS, family, "tk.generate")
    tracer.counter(nn, "forward_features", "nn.forward")
    tracer.counter(nn, "forward_features_with", "nn.forward")
    tracer.counter(ml.AdaptedModel, "predict", "ml.predict")
    tracer.counter(ad, "cosine_similarity", "rel.cosine")

    def make_backward(fn):
        def backward(output, *args, **kwargs):
            tape = output.tape
            before = len(tape)
            result = tracer.call("ad.backward", fn, output, *args, **kwargs)
            tracer.call(BOOKKEEPING, _count_tape, tracer, tape, before)
            return result
        return backward

    tracer.patch(ad, "backward", make_backward)


def _count_tape(tracer, tape, before):
    tracer.add("ad.forward_nodes", before)
    tracer.add("ad.backward_nodes", len(tape) - before)
    sizes = sorted(node.array.size for node in tape.nodes)
    tracer.add("ad.median_floats", sizes[len(sizes) // 2])
    for op, n in Counter(node.op for node in tape.nodes).items():
        tracer.add("op:" + op, n)


def _ancestors(spans):
    """Per span: the index of its nearest BATCH or EVAL span (itself
    included) and of its top-level span."""
    scope, root = [], []
    for idx, rec in enumerate(spans):
        parent = rec[3]
        if rec[0] in (BATCH, EVAL):
            scope.append(idx)
        else:
            scope.append(None if parent is None else scope[parent])
        root.append(idx if parent is None else root[parent])
    return scope, root


def layer_metrics(spans, op_kinds):
    """Per-layer figures from a finished traced run.

    Times are in ms per meta-batch, except `*eval*` names (per evaluation
    adaptation) and `harness.*` (per benchmark round).  Counts are per
    meta-batch, or per evaluation adaptation for `*eval*` names.
    `op_kinds` lists the op kinds reported by name; nodes of any other
    kind are summed into `autodiff.nodes.other`.
    """
    selfs = self_times(spans)
    scope, root = _ancestors(spans)
    time_in = Counter()   # (span name, scope name) -> seconds
    counts = Counter()    # (counter key, scope name) -> events
    floats = []
    n_batch = n_eval = 0
    setup, artifacts = {}, {}
    for idx, (name, start, end, parent, info) in enumerate(spans):
        where = None if scope[idx] is None else spans[scope[idx]][0]
        time_in[(name, where)] += end - start
        if name == BATCH:
            n_batch += 1
            time_in["batch.self"] += selfs[idx]
        elif name == EVAL:
            n_eval += 1
        elif name == "ad.backward":
            time_in["backward.self"] += selfs[idx]
        elif name == "tk.generate":
            if parent is not None and spans[parent][0] == "tk.train_batch":
                counts[("tk.generated", BATCH)] += 1
            else:
                time_in["generate.eval"] += end - start
        elif name == "ml.train" and spans[root[idx]][0] == ROUND and root[idx] not in setup:
            setup[root[idx]] = start - spans[root[idx]][1]
        elif name == "hz.single_run" and spans[root[idx]][0] == ROUND:
            artifacts[root[idx]] = spans[root[idx]][2] - end
        if info:
            for key, n in info.items():
                if key == "ad.median_floats":
                    floats.append(n)
                else:
                    counts[(key, where)] += n

    def per(total, n):
        return total / n if n else 0.0

    def ms_batch(*names):
        return 1e3 * per(sum(time_in[(n, BATCH)] for n in names), n_batch)

    def ms_eval(*names):
        return 1e3 * per(sum(time_in[(n, EVAL)] for n in names), n_eval)

    batch_s = time_in[(BATCH, BATCH)] - time_in[(BOOKKEEPING, BATCH)]
    nodes = counts[("ad.forward_nodes", BATCH)] + counts[("ad.backward_nodes", BATCH)]
    out = {
        "autodiff.backward_ms": 1e3 * per(time_in["backward.self"], n_batch),
        "autodiff.grad_ms": ms_batch("ad.grad"),
        "autodiff.eval_grad_ms": ms_eval("ad.grad"),
        "autodiff.forward_nodes": per(counts[("ad.forward_nodes", BATCH)], n_batch),
        "autodiff.backward_nodes": per(counts[("ad.backward_nodes", BATCH)], n_batch),
        "autodiff.median_floats": float(sorted(floats)[len(floats) // 2]) if floats else 0.0,
        "autodiff.us_per_node": 1e6 * per(batch_s, nodes),
        "nn.bind_ms": ms_batch("nn.bind"),
        "nn.forward_calls": per(counts[("nn.forward", BATCH)], n_batch),
        "nn.eval_bind_ms": ms_eval("nn.bind"),
        "nn.eval_forward_calls": per(counts[("nn.forward", EVAL)], n_eval),
        "tasks.batch_ms": 1e3 * per(time_in[("tk.train_batch", None)]
                                    + time_in[("tk.make_task_batch", None)], n_batch),
        "tasks.generated": per(counts[("tk.generated", BATCH)], n_batch),
        "tasks.eval_gen_ms": 1e3 * per(time_in["generate.eval"], n_eval),
        "relation.matrix_ms": ms_batch("rel.task_representation", "rel.build_matrix"),
        "relation.cosines": per(counts[("rel.cosine", BATCH)], n_batch),
        "metalearn.outer_step_ms": 1e3 * per(batch_s, n_batch),
        "metalearn.inner_adapt_ms": ms_batch("ml.inner_adapt"),
        "metalearn.consistency_ms": ms_batch("ml.trlearner_loss"),
        "metalearn.record_ms": 1e3 * per(time_in["batch.self"], n_batch),
        "metalearn.step_ms": ms_batch("ml.optimizer_step"),
        "metalearn.predict_calls": per(counts[("ml.predict", BATCH)], n_batch),
        "metalearn.eval_adapt_ms": ms_eval(EVAL),
        "harness.setup_ms": 1e3 * per(sum(setup.values()), len(setup)),
        "harness.artifacts_ms": 1e3 * per(sum(artifacts.values()), len(artifacts)),
    }
    other = 0
    for (key, where), n in counts.items():
        if where == BATCH and key.startswith("op:") and key[3:] not in op_kinds:
            other += n
    for op in op_kinds:
        out[f"autodiff.nodes.{op}"] = per(counts[("op:" + op, BATCH)], n_batch)
    out["autodiff.nodes.other"] = per(other, n_batch)
    return out
