"""Correctness checks of relmeta's outputs against the numpy oracle.

Run outside the timed region.  Every check returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import relmeta.harness as hz
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk

import oracle

# The oracle and the program add the same terms in different orders.
VALUE_RTOL = 1e-9
# Central differences with h = 1e-5 on a smooth objective.
GRAD_TOL = 1e-6
# Rounding room for cosines and for rows that must sum to one.
ROUND_TOL = 1e-12
# (epoch, batch) of the meta-batches the oracle checks, one from a later
# epoch; the last starts from random heads.
ORACLE_BATCHES = ((0, 0), (0, 1), (2, 9))
# Evaluation tasks whose adaptation the oracle recomputes.
ORACLE_EVALS = (0, 1, 2)


class _Capture:
    """Optimizer stand-in: keeps a copy of the gradients, then steps `inner`."""

    def __init__(self, inner=None):
        self.inner = inner
        self.grads = None

    def step(self, grads):
        self.grads = {name: np.array(g, copy=True) for name, g in grads.items()}
        if self.inner is not None:
            self.inner.step(grads)


def _close(a, b, rtol=VALUE_RTOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def _ext(params, n_layers):
    out = []
    for li in range(n_layers):
        out += [params[f"g{li}.w"], params[f"g{li}.b"]]
    return out


def matrix_properties(matrix, normalized, label):
    """Symmetric, zero diagonal, entries in [-1, 1], normalized rows sum to 1."""
    bad = []
    if not np.array_equal(matrix, matrix.T):
        bad.append(f"{label}: relation matrix is not symmetric")
    if np.any(np.diag(matrix) != 0.0):
        bad.append(f"{label}: relation matrix diagonal is not zero")
    if np.any(np.abs(matrix) > 1.0 + ROUND_TOL):
        bad.append(f"{label}: relation entry outside [-1, 1]")
    if not _close(normalized.sum(axis=1), np.ones(len(normalized)), ROUND_TOL):
        bad.append(f"{label}: normalized rows do not sum to 1")
    return bad


def check_meta_batch(model, layer, batch, config, optimizer=None, coords=(), label="batch"):
    """Run one real `outer_step` and compare it with the oracle.

    The oracle starts from the parameters as they were before the step.
    `coords` lists (parameter name, index) pairs whose outer gradient is
    compared with a central difference of the oracle's objective.
    Returns (failures, step metrics).
    """
    before = {name: arr.copy() for name, arr in ml.trainable_params(model, layer, config)}
    capture = _Capture(optimizer)
    metrics = ml.outer_step(model, layer, batch, config, capture)

    n_layers = len(model.extractor)
    tasks = [(md.support_x, md.support_y, md.query_x, md.query_y) for md in batch.metadata]
    omega = before.get("omega", layer.omega.copy())

    def objective():
        return oracle.meta_batch(
            _ext(before, n_layers),
            [[before[f"h{i}.w"], before[f"h{i}.b"]] for i in range(len(tasks))],
            omega, tasks, alpha=config.alpha, lam=config.lam, steps=config.inner_steps,
            scale=model.input_scale, head_only=config.method == "anil",
            trlearner=config.trlearner)

    want = objective()
    bad = []
    if not _close(metrics["per_task"], want["per_task"]):
        bad.append(f"{label}: per-task query losses {metrics['per_task']} != oracle {want['per_task']}")
    if not _close(metrics["objective"], want["objective"]):
        bad.append(f"{label}: objective {metrics['objective']} != oracle {want['objective']}")
    if config.trlearner:
        if not _close(metrics["trlearner"], want["trlearner"]):
            bad.append(f"{label}: consistency losses {metrics['trlearner']} != oracle {want['trlearner']}")
        if not _close(metrics["matrix"], want["matrix"]):
            bad.append(f"{label}: relation matrix differs from the oracle")
        if not _close(metrics["matrix_normalized"], oracle.normalized(want["matrix"])):
            bad.append(f"{label}: normalized matrix differs from the oracle")
        bad += matrix_properties(metrics["matrix"], metrics["matrix_normalized"], label)
    elif metrics["trlearner"] is not None or metrics["matrix"] is not None:
        bad.append(f"{label}: relation output with TRLearner off")

    arrays = dict(before, omega=omega)
    for name, index in coords:
        numeric = oracle.central_difference(lambda: objective()["objective"], arrays[name], index)
        got = float(capture.grads[name][index])
        if abs(got - numeric) > GRAD_TOL * max(1.0, abs(numeric)):
            bad.append(f"{label}: outer gradient {name}{list(index)} = {got!r}, "
                       f"central difference {numeric!r}")
    return bad, metrics


def check_eval_adaptation(model, task, config, label="eval"):
    """One evaluation adaptation recomputed by the oracle."""
    steps = config.inner_steps if config.eval_inner_steps is None else config.eval_inner_steps
    got = ml.adapted_query_mse(model, task, config)
    params = dict(model.named_params())
    want = oracle.eval_adaptation(
        _ext(params, len(model.extractor)),
        (task.support_x, task.support_y, task.query_x, task.query_y),
        alpha=config.alpha, steps=steps, scale=model.input_scale,
        head_only=config.method == "anil")
    bad = []
    if not math.isfinite(got):
        bad.append(f"{label}: evaluation MSE {got} is not finite")
    if not _close(got, want):
        bad.append(f"{label}: evaluation MSE {got!r} != oracle {want!r}")
    return bad


def _gradient_coords(model, config, rng):
    """A few outer-gradient coordinates: extractor weights, a head, omega."""
    last = len(model.extractor) - 1
    d = model.feature_width
    head = int(rng.integers(config.batch_tasks))
    coords = [
        ("g0.w", (0, int(rng.integers(model.extractor[0][0].shape[1])))),
        (f"g{last}.w", tuple(int(rng.integers(n)) for n in model.extractor[last][0].shape)),
        (f"h{head}.w", (int(rng.integers(d)), 0)),
        (f"h{head}.b", (0,)),
    ]
    if config.trlearner and config.matrix_mode == "learned":
        coords.append(("omega", (int(rng.integers(config.sim_heads)), int(rng.integers(d)))))
    return coords


def check_workload(spec):
    """Oracle checks on meta-batches and evaluations of one workload.

    Builds the model, similarity layer and task stream as `single_run`
    does, then takes a real training step on each of `ORACLE_BATCHES`.
    The last step starts from random heads, so the extractor's inner
    gradient is not zero.  Each step is compared with the oracle before
    the next.
    """
    config = spec.to_meta_config(spec.seed)
    model = nn.init_model([1, *config.hidden], config.batch_tasks, spec.seed,
                          input_scale=hz.INPUT_SCALES.get(spec.dataset, 1.0))
    layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
    source = tk.TaskSource(spec.dataset, spec.shots, spec.queries, noise_sd=spec.noise_sd,
                           seed=spec.seed, pool_size=spec.pool_size)
    optimizer = ml.make_optimizer(model, layer, config)
    rng = np.random.default_rng(spec.seed)
    bad = []
    for epoch, b in ORACLE_BATCHES:
        model.zero_heads()
        if (epoch, b) == ORACLE_BATCHES[-1]:
            for w, _ in model.heads:
                w[...] = rng.uniform(-0.5, 0.5, size=w.shape)
        tasks = source.train_batch(epoch, b, config.batch_tasks)
        batch = tk.make_task_batch(tasks, config.metadata_strategy, config.metadata_samples,
                                   seed=(config.seed, 4, epoch, b))
        coords = _gradient_coords(model, config, rng)
        found, _ = check_meta_batch(model, layer, batch, config, optimizer, coords,
                                    label=f"meta-batch {epoch}/{b}")
        bad += found
    for t in ORACLE_EVALS:
        bad += check_eval_adaptation(model, source.eval_task(t), config, label=f"eval task {t}")
    return bad


def check_artifacts(out_dir, evaluations, epochs):
    """results.csv and log.jsonl agree with what `evaluate` returned.

    `evaluations` holds the per-task MSE lists of one round in call order:
    one validation per epoch (when enabled), then the final test.
    """
    bad = []
    for i, per_task in enumerate(evaluations):
        if not all(math.isfinite(v) for v in per_task):
            bad.append(f"{out_dir}: evaluation {i} has a non-finite MSE")
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    final = ml.summarize(evaluations[-1])[0]
    if len(rows) != 1 or rows[0]["mse_mean"] != repr(final):
        bad.append(f"{out_dir}: results.csv mse_mean does not match the final evaluation")
    records = [json.loads(line) for line in (out_dir / "log.jsonl").read_text().splitlines()]
    vals = [ml.summarize(v)[0] for v in evaluations[:-1]]
    logged = [r["val_mse"] for r in records if r["val_mse"] is not None]
    if len(records) != epochs or logged != vals:
        bad.append(f"{out_dir}: log.jsonl epochs or val_mse do not match the evaluations")
    return bad
