"""Bi-level meta-learning engine.

One meta-batch is recorded on a fresh tape in a fixed phase order:

  A. bind model parameters (and similarity masks) as tape leaves
  B. task representations, the relation matrix and its trust weights, when enabled
  C. inner adaptation of every task on its meta-data support set
  D. per-task query losses, plus the weighted consistency term
  E. one backward pass over the averaged objective, on bare arrays: values only
  F. one optimizer step on the underlying arrays

Phases B and C commute (the matrix reads base extractor features, never
adapted ones); the order is fixed so trajectories survive refactors.
They read each task's support set through one recorded constant.
Task heads are re-initialized to zero at the start of every meta-batch
by the training loop: head i belongs to batch slot i, and a fresh batch
carries fresh tasks.

Evaluation adapts a zero head on each task and scores its query set.
`evaluate` records that adaptation once per support and query shape, with
its inner gradients on the tape, and computes every further task by
replaying the tape on the task's data: the same `_FORWARD` calls, and so
the same bits, as adapting it on its own tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from . import relation as rel
from . import tasks as tk


class MetaLearnError(Exception):
    pass


METHODS = ("maml", "metasgd", "anil")
OPTIMIZERS = ("sgd", "adam")
MATRIX_MODES = ("learned", "fixed")


@dataclass
class MetaConfig:
    """Engine settings; defaults follow the regression protocol."""

    alpha: float = 0.05
    beta: float = 0.1
    lam: float = 0.6
    method: str = "maml"
    second_order: bool = True
    inner_steps: int = 1
    batch_tasks: int = 4
    epochs: int = 20
    batches_per_epoch: int = 100
    seed: int = 0
    trlearner: bool = True
    sim_heads: int = 4
    matrix_mode: str = "learned"
    matrix_grad_to_extractor: bool = True
    metadata_strategy: str = "uniform"
    metadata_samples: object = None
    momentum: float = 0.8
    weight_decay: float = 0.7e-5
    optimizer: str = "sgd"
    hidden: tuple = (40, 40)
    log_matrix_every: int = 0
    val_tasks: int = 20
    eval_inner_steps: object = None

    def __post_init__(self):
        bad = []
        for key in ("alpha", "beta", "lam", "momentum", "weight_decay"):
            value = getattr(self, key)
            # alpha/beta 0 is allowed: degenerate rates are used as probes.
            # momentum 1 would divide by zero in Adam's bias correction.
            if not np.isfinite(value) or value < 0 or (key == "momentum" and value >= 1):
                bad.append(f"{key}={value}")
        if self.method not in METHODS:
            bad.append(f"method={self.method!r}")
        if self.metadata_strategy not in tk.METADATA_STRATEGIES:
            bad.append(f"metadata_strategy={self.metadata_strategy!r}")
        if self.seed < 0:
            bad.append(f"seed={self.seed}")
        if any(width < 1 for width in self.hidden):
            bad.append(f"hidden={self.hidden}")
        if self.inner_steps < 1:
            bad.append(f"inner_steps={self.inner_steps}")
        if self.batch_tasks < 1:
            bad.append(f"batch_tasks={self.batch_tasks}")
        if self.trlearner and self.batch_tasks < 2:
            bad.append("trlearner needs batch_tasks >= 2")
        if self.sim_heads < 1:
            bad.append(f"sim_heads={self.sim_heads}")
        if self.epochs < 0:
            bad.append(f"epochs={self.epochs}")
        if self.batches_per_epoch < 1:
            bad.append(f"batches_per_epoch={self.batches_per_epoch}")
        if self.optimizer not in OPTIMIZERS:
            bad.append(f"optimizer={self.optimizer!r}")
        if self.matrix_mode not in MATRIX_MODES:
            bad.append(f"matrix_mode={self.matrix_mode!r}")
        if self.val_tasks < 0:
            bad.append(f"val_tasks={self.val_tasks}")
        if self.eval_inner_steps is not None and self.eval_inner_steps < 0:
            bad.append(f"eval_inner_steps={self.eval_inner_steps}")
        if self.metadata_samples is not None and self.metadata_samples < 1:
            bad.append(f"metadata_samples={self.metadata_samples}")
        if self.log_matrix_every < 0:
            bad.append(f"log_matrix_every={self.log_matrix_every}")
        if bad:
            raise MetaLearnError("invalid config: " + ", ".join(bad))


class AdaptedModel:
    """Task-specialized parameters, still connected to the base leaves, and
    the support loss Var of each step that produced them."""

    __slots__ = ("mv", "extractor", "head", "losses")

    def __init__(self, mv: nn.ModelVars, extractor: list, head: list, losses: list):
        self.mv = mv
        self.extractor = extractor
        self.head = head
        self.losses = losses

    def predict(self, x: ad.Var) -> ad.Var:
        feats = nn.forward_features_with(self.mv, self.extractor, x)
        return nn.head_apply(self.head, feats)


def task_loss(predictions: ad.Var, targets: ad.Var) -> ad.Var:
    """Mean squared error over a (n, 1) prediction/target batch."""
    if predictions.shape != targets.shape:
        raise MetaLearnError(f"prediction shape {predictions.shape} != target shape {targets.shape}")
    if predictions.array.size == 0:
        raise MetaLearnError("empty batch has no loss")
    return ad.mse(predictions, targets)


def _inner_rates(mv: nn.ModelVars, config: MetaConfig, head_only: bool):
    if config.method != "metasgd":
        return None
    if mv.rates is None:
        raise MetaLearnError("metasgd requires inner rates; call model.enable_inner_rates(alpha)")
    return [v for pair in (mv.rates[-1:] if head_only else mv.rates) for v in pair]


def _adapt(mv: nn.ModelVars, head: list, x: ad.Var, y: ad.Var, config: MetaConfig,
           steps: int, first_order: bool, label: str) -> AdaptedModel:
    """`steps` gradient steps from the base extractor and `head` on the support set `x`, `y`.

    maml/metasgd adapt extractor and head; anil adapts the head only and
    reads the extractor frozen, so its support features are computed once.
    Unless `first_order`, the inner gradients are recorded and the returned
    parameters keep their path alive for the outer backward; first order
    computes them as bare arrays, which the `sgd-step` nodes hold: no VJP
    and no gradient node is recorded.  `label` names the
    adaptation in the non-finite-loss error.
    """
    head_only = config.method == "anil"
    frozen = mv.extractor_params() if head_only else []
    cur = list(head) if head_only else mv.extractor_params() + list(head)
    if head_only:
        feats = nn.forward_features_with(mv, frozen, x)

    rates = _inner_rates(mv, config, head_only)
    losses = []
    for _ in range(steps):
        if not head_only:
            feats = nn.forward_features_with(mv, cur[:-2], x)
        loss = task_loss(nn.head_apply(cur[-2:], feats), y)
        _check_inner_loss(loss.array, label)
        losses.append(loss)
        cur = ad.grad_through_update(
            cur, ad.grad(loss, cur, record=not first_order), alpha=config.alpha,
            first_order=first_order, rates=rates,
        )
    adapted = frozen + cur
    return AdaptedModel(mv, adapted[:-2], adapted[-2:], losses)


def _check_inner_loss(value, label: str) -> None:
    if not math.isfinite(value):  # a scalar: np.isfinite costs a ufunc call
        raise MetaLearnError(f"non-finite inner loss for {label}")


def inner_adapt(mv: nn.ModelVars, i: int, metadata, config: MetaConfig) -> AdaptedModel:
    """`config.inner_steps` gradient steps of head i on task i's meta-data support set."""
    x, y = mv.constant(metadata.support_x), mv.constant(metadata.support_y)
    return _adapt(mv, mv.head_params(i), x, y, config, config.inner_steps,
                  not config.second_order, f"task {i}")


def trlearner_loss(adapted_models: list, matrix: rel.RelationMatrix, i: int, x: ad.Var, y: ad.Var) -> ad.Var:
    """Consistency of task i's query targets `y` with its peers' weighted prediction at `x`.

    The peer ensemble averages every other task's adapted model over the
    clamped relation weights; task i's own model is excluded, so this
    term carries no gradient into head i.
    """
    n = len(adapted_models)
    if n < 2:
        raise MetaLearnError(f"consistency term needs at least 2 tasks, got {n}")
    terms = []
    weights = []
    for p in range(n):
        if p == i:
            continue
        w = matrix.weights[i][p]
        terms.append(ad.mul(w, adapted_models[p].predict(x)))
        weights.append(w)
    return task_loss(ad.div(ad.add_n(terms), ad.add_n(weights)), y)


# ---------------------------------------------------------------------------
# Outer loop


class SGDMomentum:
    """Gradient descent with classical momentum and coupled weight decay."""

    def __init__(self, named_params, lr, momentum=0.8, weight_decay=0.7e-5):
        self.params = list(named_params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {name: np.zeros_like(arr) for name, arr in self.params}

    def step(self, grads: dict) -> None:
        for name, arr in self.params:
            v = self.velocity[name]
            v *= self.momentum
            v += grads[name] + self.weight_decay * arr
            arr -= self.lr * v


class Adam:
    def __init__(self, named_params, lr, beta1=0.8, beta2=0.999, eps=1e-8, weight_decay=0.7e-5):
        self.params = list(named_params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in self.params}
        self.v = {name: np.zeros_like(arr) for name, arr in self.params}

    def step(self, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, arr in self.params:
            g = grads[name] + self.weight_decay * arr
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def trainable_params(model: nn.MetaModel, layer, config: MetaConfig) -> list:
    pairs = list(model.named_params())
    if config.trlearner and config.matrix_mode == "learned":
        if layer is None:
            raise MetaLearnError("trlearner in learned mode needs a similarity layer")
        pairs.append(("omega", layer.omega))
    return pairs


def make_optimizer(model: nn.MetaModel, layer, config: MetaConfig):
    pairs = trainable_params(model, layer, config)
    if config.optimizer == "adam":
        return Adam(pairs, config.beta, beta1=config.momentum, weight_decay=config.weight_decay)
    return SGDMomentum(pairs, config.beta, config.momentum, config.weight_decay)


def _record_batch(model: nn.MetaModel, layer, batch: tk.TaskBatch, config: MetaConfig):
    """Phases A-D: the `trainable_params` leaves, matrix, objective and per-task losses."""
    n = len(batch)
    tape = ad.Tape()
    mv = nn.bind(model, tape)
    named = list(mv.named)

    matrix = None
    if config.trlearner:
        reps = [rel.task_representation(mv, md) for md in batch.metadata]
        learned = config.matrix_mode == "learned"
        omega = tape.leaf(layer.omega) if learned else tape.constant(layer.omega)
        if learned:
            named.append(("omega", omega))
        if not (learned and config.matrix_grad_to_extractor):
            reps = [ad.detach(z) for z in reps]
        matrix = rel.build_matrix(omega, reps)

    adapted = [inner_adapt(mv, i, batch.metadata[i], config) for i in range(n)]

    query_losses = []
    tr_losses = [] if matrix is not None else None
    terms = []
    for i, md in enumerate(batch.metadata):
        x = tape.constant(md.query_x)
        y = tape.constant(md.query_y)
        lq = task_loss(adapted[i].predict(x), y)
        query_losses.append(float(lq.array))
        term = lq
        if matrix is not None:
            ltr = trlearner_loss(adapted, matrix, i, x, y)
            tr_losses.append(float(ltr.array))
            term = ad.add(lq, ad.smul(ltr, config.lam))
        terms.append(term)
    objective = ad.smul(ad.add_n(terms), 1.0 / n)
    return named, matrix, objective, query_losses, tr_losses


def batch_objective(model: nn.MetaModel, layer, batch: tk.TaskBatch, config: MetaConfig) -> float:
    """Outer objective value at the current parameters; records no update."""
    return float(_record_batch(model, layer, batch, config)[2].array)


def outer_step(model: nn.MetaModel, layer, batch: tk.TaskBatch, config: MetaConfig, optimizer) -> dict:
    """Record one meta-batch (phases A-E) and apply one optimizer step (F)."""
    named, matrix, objective, query_losses, tr_losses = _record_batch(model, layer, batch, config)

    if not math.isfinite(objective.array):
        raise MetaLearnError(
            f"non-finite outer objective (query losses {query_losses}, "
            f"consistency {tr_losses}, lam {config.lam})"
        )

    grads = ad.backward(objective)
    optimizer.step({name: grads[var.index].array for name, var in named})

    return {
        "objective": float(objective.array),
        "query_mse": float(np.mean(query_losses)),
        "per_task": query_losses,
        "trlearner": tr_losses,
        "matrix": matrix.values() if matrix is not None else None,
        "matrix_normalized": rel.export_normalized(matrix) if matrix is not None else None,
    }


# ---------------------------------------------------------------------------
# Training and evaluation


_EVAL_TASK = "an evaluation task"


class _EvalGraph:
    """One recorded evaluation adaptation, replayable on any task of its shapes.

    The tape holds `_adapt` from a zero head with the inner gradients
    recorded, then the query loss.  Those nodes make the `_FORWARD` calls
    that the first-order values walk makes, so the recorded loss, and a
    replay with another task's four data arrays in place of the recorded
    ones, carry the bits that adapting that task on its own tape would.
    """

    __slots__ = ("tape", "inputs", "steps", "loss")

    def __init__(self, model: nn.MetaModel, arrays: list, config: MetaConfig):
        tape = ad.Tape()
        d = model.feature_width
        mv = nn.bind(model, tape, heads=[(np.zeros((d, 1)), np.zeros(1))])
        sx, sy, qx, qy = (tape.constant(a) for a in arrays)
        steps = config.inner_steps if config.eval_inner_steps is None else config.eval_inner_steps
        adapted = _adapt(mv, mv.head_params(0), sx, sy, config, steps, False, _EVAL_TASK)
        loss = task_loss(adapted.predict(qx), qy)
        self.tape = tape
        self.inputs = (sx.index, sy.index, qx.index, qy.index)
        self.steps = [lv.index for lv in adapted.losses]
        ad.check_replayable(tape, self.inputs)
        self.loss = _query_loss(loss.array)

    def replay(self, arrays: list) -> float:
        """The query loss of the task with these four data arrays; each step's
        support loss is checked as soon as it is computed, as `_adapt` does."""
        inputs = dict(zip(self.inputs, arrays))
        values = None
        for idx in self.steps:
            values = self.tape.replay(inputs, idx + 1, values)
            _check_inner_loss(values[idx], _EVAL_TASK)
        return _query_loss(self.tape.replay(inputs, None, values)[-1])


def _query_loss(value) -> float:
    loss = float(value)
    if not math.isfinite(loss):
        raise MetaLearnError(f"non-finite query loss for {_EVAL_TASK}")
    return loss


def adapted_query_mse(model: nn.MetaModel, task: tk.TaskInstance, config: MetaConfig,
                      graphs: dict | None = None) -> float:
    """Adapt a fresh zero head on the task's support set, score its query set.

    Training heads belong to training batch slots, so evaluation always
    starts from a zero head (matching how heads begin every meta-batch),
    and the tape binds that head in their place: its leaves are the
    extractor, the inner rates and the zero head.  Updates here never flow
    back, so the first-order values suffice; the graph records its inner
    gradients only so that `graphs`, a memo of graphs by data shapes that
    `evaluate` keeps for one call, can replay it for the next task of those
    shapes.  Without it the loss is read off a fresh recording.
    """
    arrays = [np.asarray(a, dtype=np.float64)
              for a in (task.support_x, task.support_y, task.query_x, task.query_y)]
    key = tuple(a.shape for a in arrays)
    graph = None if graphs is None else graphs.get(key)
    if graph is not None:
        return graph.replay(arrays)
    graph = _EvalGraph(model, arrays, config)
    if graphs is not None:
        graphs[key] = graph
    return graph.loss


def summarize(values: list) -> tuple:
    """Mean and normal-approximation 95% CI half-width (0 for one value).

    Where that overflows it is redone on the values scaled exactly by a
    power of two, so it is infinite only where the true value is.
    """
    if not values:
        raise MetaLearnError("nothing to summarize")
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for exponent in (0, np.frexp(np.max(np.abs(values)))[1]):
            scaled = np.ldexp(values, -exponent)
            mean = np.mean(scaled)
            ci = 1.96 * np.std(scaled, ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
            if np.isfinite(mean) and np.isfinite(ci):
                break
        return float(np.ldexp(mean, exponent)), float(np.ldexp(ci, exponent))


def evaluate(model: nn.MetaModel, eval_tasks: list, config: MetaConfig) -> dict:
    """Per-task adapted query MSE and its mean.

    Each task is one `adapted_query_mse` call; the calls share one recorded
    graph per support and query shape, replayed on each task's data.
    """
    if not eval_tasks:
        raise MetaLearnError("no evaluation tasks given")
    graphs = {}
    per_task = [adapted_query_mse(model, t, config, graphs) for t in eval_tasks]
    return {"mean": summarize(per_task)[0], "per_task": per_task}


def train(model: nn.MetaModel, layer, source: tk.TaskSource, config: MetaConfig) -> list:
    """Meta-train in place; returns one log record per epoch."""
    if config.method == "metasgd" and model.inner_rates is None:
        model.enable_inner_rates(config.alpha)
    optimizer = make_optimizer(model, layer, config)
    records = []
    for epoch in range(config.epochs):
        batch_mse = []
        batch_tr = []
        last_matrix = None
        for b in range(config.batches_per_epoch):
            model.zero_heads()
            tasks = source.train_batch(epoch, b, config.batch_tasks)
            batch = tk.make_task_batch(
                tasks, config.metadata_strategy, config.metadata_samples,
                seed=(config.seed, 4, epoch, b),
            )
            metrics = outer_step(model, layer, batch, config, optimizer)
            batch_mse.append(metrics["query_mse"])
            if metrics["trlearner"] is not None:
                batch_tr.append(summarize(metrics["trlearner"])[0])
            if metrics["matrix_normalized"] is not None:
                last_matrix = metrics["matrix_normalized"]
        record = {
            "epoch": epoch,
            "train_mse": summarize(batch_mse)[0],
            "trlearner_mse": summarize(batch_tr)[0] if batch_tr else None,
        }
        if config.val_tasks > 0:
            val_tasks = [source.val_task(i) for i in range(config.val_tasks)]
            record["val_mse"] = evaluate(model, val_tasks, config)["mean"]
        else:
            record["val_mse"] = None
        if (config.log_matrix_every > 0 and last_matrix is not None
                and (epoch + 1) % config.log_matrix_every == 0):
            record["matrix"] = [[float(v) for v in row] for row in last_matrix]
        records.append(record)
    return records
