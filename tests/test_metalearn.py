import gc
import json
import statistics
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relmeta.autodiff as ad
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk
from fd import finite_diff, rel_err


def small_config(**kw):
    base = dict(hidden=(8,), batch_tasks=3, sim_heads=2, epochs=1,
                batches_per_epoch=5, val_tasks=0, seed=0)
    base.update(kw)
    return ml.MetaConfig(**base)


def build(config, seed=0, family="sinusoid", shots=5, queries=5, noise_sd=0.3):
    model = nn.init_model([1, *config.hidden], config.batch_tasks, seed)
    if config.method == "metasgd":
        model.enable_inner_rates(config.alpha)
    layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
    source = tk.TaskSource(family, shots, queries, noise_sd=noise_sd, seed=seed)
    return model, layer, source


def first_batch(source, config):
    return tk.make_task_batch(source.train_batch(0, 0, config.batch_tasks))


def params_of(model):
    return {name: arr.copy() for name, arr in model.named_params()}


def assert_params_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class TestConfig:
    def test_defaults_valid(self):
        c = ml.MetaConfig()
        assert c.lam == 0.6 and c.beta == 0.1 and c.second_order

    def test_rejects_bad_values(self):
        with pytest.raises(ml.MetaLearnError, match="alpha"):
            ml.MetaConfig(alpha=-0.1)
        with pytest.raises(ml.MetaLearnError, match="method"):
            ml.MetaConfig(method="reptile")
        with pytest.raises(ml.MetaLearnError, match="batch_tasks"):
            ml.MetaConfig(trlearner=True, batch_tasks=1)
        with pytest.raises(ml.MetaLearnError, match="inner_steps"):
            ml.MetaConfig(inner_steps=0)
        with pytest.raises(ml.MetaLearnError, match="optimizer"):
            ml.MetaConfig(optimizer="rmsprop")


class TestTaskLoss:
    def loss(self, preds, targets):
        tape = ad.Tape()
        p = tape.leaf(np.asarray(preds, dtype=np.float64).reshape(-1, 1))
        t = tape.constant(np.asarray(targets, dtype=np.float64).reshape(-1, 1))
        return float(ml.task_loss(p, t).array)

    def test_perfect_is_zero(self):
        assert self.loss([1.0, -2.0], [1.0, -2.0]) == 0.0

    def test_unit_error(self):
        assert self.loss([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_mean_of_squares(self):
        assert self.loss([1.0, 3.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ml.MetaLearnError, match="empty"):
            self.loss([], [])

    def test_shape_mismatch_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ml.MetaLearnError, match="shape"):
            ml.task_loss(tape.leaf(np.zeros((2, 1))), tape.constant(np.zeros((3, 1))))


class TestInnerAdapt:
    def test_alpha_zero_keeps_params(self):
        config = small_config(alpha=0.0)
        model, layer, source = build(config)
        batch = first_batch(source, config)
        mv = nn.bind(model, ad.Tape())
        am = ml.inner_adapt(mv, 0, batch.metadata[0], config)
        for before, after in zip(mv.extractor_params() + mv.head_params(0),
                                 am.extractor + am.head):
            assert np.array_equal(before.array, after.array)

    def test_scalar_quadratic_hand_case(self):
        # Identity extractor, head weight 1, single point (x=1, y=0):
        # L = (w + b)^2, so one step at alpha=0.1 gives w' = 0.8, b' = -0.2.
        config = ml.MetaConfig(alpha=0.1, hidden=(), trlearner=False, batch_tasks=1)
        model = nn.init_model([1], 1, seed=0)
        model.heads[0][0][0, 0] = 1.0
        mv = nn.bind(model, ad.Tape())
        md = tk.MetaData(np.array([[1.0]]), np.array([[0.0]]),
                         np.array([[1.0]]), np.array([[0.0]]))
        am = ml.inner_adapt(mv, 0, md, config)
        assert am.head[0].array[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert am.head[1].array[0] == pytest.approx(-0.2, abs=1e-15)

    def test_anil_freezes_extractor(self):
        config = small_config(method="anil")
        model, layer, source = build(config)
        batch = first_batch(source, config)
        mv = nn.bind(model, ad.Tape())
        am = ml.inner_adapt(mv, 1, batch.metadata[1], config)
        assert am.extractor == mv.extractor_params()
        assert am.head[0] is not mv.head_params(1)[0]

    def test_multi_step_changes_more(self):
        config1 = small_config(inner_steps=1)
        config3 = small_config(inner_steps=3)
        model, layer, source = build(config1)
        batch = first_batch(source, config1)
        one = ml.inner_adapt(nn.bind(model, ad.Tape()), 0, batch.metadata[0], config1)
        three = ml.inner_adapt(nn.bind(model, ad.Tape()), 0, batch.metadata[0], config3)
        assert not np.array_equal(one.head[0].array, three.head[0].array)

    def test_non_finite_support_raises(self):
        config = small_config()
        model, layer, source = build(config)
        md = tk.MetaData(np.array([[1.0]]), np.array([[1e200]]),
                         np.array([[1.0]]), np.array([[0.0]]))
        mv = nn.bind(model, ad.Tape())
        with np.errstate(over="ignore"), pytest.raises(ml.MetaLearnError, match="task 0"):
            ml.inner_adapt(mv, 0, md, config)

    def test_metasgd_without_rates_rejected(self):
        config = small_config(method="metasgd")
        model = nn.init_model([1, 8], config.batch_tasks, 0)
        source = tk.TaskSource("sinusoid", 5, 5, seed=0)
        batch = first_batch(source, config)
        mv = nn.bind(model, ad.Tape())
        with pytest.raises(ml.MetaLearnError, match="rates"):
            ml.inner_adapt(mv, 0, batch.metadata[0], config)


class _StubModel:
    """predict() returns a constant; stands in for an AdaptedModel."""

    def __init__(self, value):
        self.value = value

    def predict(self, x):
        return x.tape.constant(np.full((x.shape[0], 1), self.value))


class _StubMatrix:
    """A `weights` grid of constants from {(i, j): value}; stands in for a RelationMatrix."""

    def __init__(self, tape, weights):
        n = max(max(pair) for pair in weights) + 1
        self.weights = [[None] * n for _ in range(n)]
        for (i, j), w in weights.items():
            self.weights[i][j] = tape.constant(np.array(w))


class TestTrlearnerLoss:
    def query(self, tape, ys):
        """Query x/y constants for targets `ys`."""
        ys = np.asarray(ys, dtype=np.float64).reshape(-1, 1)
        return tape.constant(np.linspace(0, 1, ys.size).reshape(-1, 1)), tape.constant(ys)

    def query_of(self, tape, md):
        return tape.constant(md.query_x), tape.constant(md.query_y)

    def test_hand_weighted_average(self):
        tape = ad.Tape()
        models = [_StubModel(0.0), _StubModel(2.0), _StubModel(4.0)]
        matrix = _StubMatrix(tape, {(0, 1): 0.5, (0, 2): 1.5})
        ltr = ml.trlearner_loss(models, matrix, 0, *self.query(tape, [1.0]))
        # blended prediction (0.5*2 + 1.5*4) / 2 = 3.5 against target 1
        assert float(ltr.array) == pytest.approx(6.25, abs=1e-12)

    def test_two_tasks_reduce_to_peer_prediction(self):
        for weight in (0.01, 0.5, 2.0):
            tape = ad.Tape()
            models = [_StubModel(0.0), _StubModel(3.0)]
            matrix = _StubMatrix(tape, {(0, 1): weight})
            ltr = ml.trlearner_loss(models, matrix, 0, *self.query(tape, [1.0]))
            assert float(ltr.array) == pytest.approx(4.0, abs=1e-12)

    def test_perfect_peers_zero_loss(self):
        tape = ad.Tape()
        models = [_StubModel(9.0), _StubModel(2.0), _StubModel(2.0)]
        matrix = _StubMatrix(tape, {(0, 1): 1.0, (0, 2): 1.0})
        ltr = ml.trlearner_loss(models, matrix, 0, *self.query(tape, [2.0, 2.0]))
        assert float(ltr.array) == 0.0

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            tape = ad.Tape()
            preds = rng.normal(size=n)
            models = [_StubModel(p) for p in preds]
            weights = {(i, j): rng.uniform(0.01, 2.0) for i in range(n) for j in range(i + 1, n)}
            sym = {**weights, **{(j, i): w for (i, j), w in weights.items()}}
            matrix = _StubMatrix(tape, sym)
            ys = rng.normal(size=3)
            i = int(rng.integers(n))
            got = float(ml.trlearner_loss(models, matrix, i, *self.query(tape, ys)).array)
            num = sum(sym[(i, p)] * preds[p] for p in range(n) if p != i)
            den = sum(sym[(i, p)] for p in range(n) if p != i)
            want = np.mean((num / den - ys) ** 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_own_head_gets_zero_gradient(self):
        config = small_config()
        model, layer, source = build(config)
        batch = first_batch(source, config)
        tape = ad.Tape()
        mv = nn.bind(model, tape)
        omega = tape.leaf(layer.omega)
        reps = [rel.task_representation(mv, md) for md in batch.metadata]
        matrix = rel.build_matrix(omega, reps)
        adapted = [ml.inner_adapt(mv, i, batch.metadata[i], config) for i in range(3)]
        ltr = ml.trlearner_loss(adapted, matrix, 0, *self.query_of(tape, batch.metadata[0]))
        grads = ad.backward(ltr)
        w0, b0 = mv.heads[0]
        assert np.all(grads[w0.index].array == 0.0)
        assert np.all(grads[b0.index].array == 0.0)
        w1, _ = mv.heads[1]
        assert np.any(grads[w1.index].array != 0.0)

    def test_weights_scale_without_reshape_or_broadcast(self):
        # The 0-d weights and their sum broadcast inside mul and div.
        config = small_config()
        model, layer, source = build(config)
        batch = first_batch(source, config)
        tape = ad.Tape()
        mv = nn.bind(model, tape)
        reps = [rel.task_representation(mv, md) for md in batch.metadata]
        matrix = rel.build_matrix(tape.leaf(layer.omega), reps)
        adapted = [ml.inner_adapt(mv, i, batch.metadata[i], config) for i in range(3)]
        x, y = self.query_of(tape, batch.metadata[0])
        before = len(tape)
        ml.trlearner_loss(adapted, matrix, 0, x, y)
        ops = {node.op for node in tape.nodes[before:]}
        assert "elementwise-mul" in ops and not ops & {"reshape", "broadcast"}

    def test_single_task_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ml.MetaLearnError, match="at least 2"):
            ml.trlearner_loss([_StubModel(0.0)], None, 0, *self.query(tape, [1.0]))


class TestOptimizers:
    def test_sgd_momentum_hand_math(self):
        p = np.array([1.0])
        opt = ml.SGDMomentum([("p", p)], lr=0.1, momentum=0.5, weight_decay=0.0)
        opt.step({"p": np.array([1.0])})
        assert p[0] == pytest.approx(0.9, abs=1e-15)
        opt.step({"p": np.array([1.0])})
        # velocity 0.5*1 + 1 = 1.5, so p = 0.9 - 0.15
        assert p[0] == pytest.approx(0.75, abs=1e-15)

    def test_weight_decay_pulls_to_zero(self):
        p = np.array([2.0])
        opt = ml.SGDMomentum([("p", p)], lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.step({"p": np.array([0.0])})
        assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)

    def test_adam_first_step_is_scaled_sign(self):
        p = np.array([1.0, -1.0])
        opt = ml.Adam([("p", p)], lr=0.01, weight_decay=0.0)
        opt.step({"p": np.array([0.3, -0.2])})
        assert p[0] == pytest.approx(1.0 - 0.01, rel=1e-4)
        assert p[1] == pytest.approx(-1.0 + 0.01, rel=1e-4)


class TestOuterStep:
    def test_beta_zero_keeps_params(self):
        config = small_config(beta=0.0)
        model, layer, source = build(config)
        before = params_of(model)
        opt = ml.make_optimizer(model, layer, config)
        ml.outer_step(model, layer, first_batch(source, config), config, opt)
        assert_params_equal(before, params_of(model))

    def test_lambda_zero_matches_trlearner_off(self):
        # Same trajectories with the consistency path recorded but weighted
        # zero, and with it skipped entirely. Exact equality, no tolerance.
        runs = {}
        for key, kw in {"off": dict(trlearner=False),
                        "zero": dict(trlearner=True, lam=0.0)}.items():
            config = small_config(**kw)
            model, layer, source = build(config, seed=3)
            opt = ml.make_optimizer(model, layer, config)
            for b in range(5):
                model.zero_heads()
                batch = tk.make_task_batch(source.train_batch(0, b, config.batch_tasks))
                ml.outer_step(model, layer, batch, config, opt)
            runs[key] = params_of(model)
        assert_params_equal(runs["off"], runs["zero"])

    @pytest.mark.parametrize("method", ml.METHODS)
    def test_lambda_zero_matches_trlearner_off_past_eight_tasks(self, method):
        # numpy sums 8 or more values pairwise, so with 9 tasks the two arms
        # agree only if both reduce their per-task terms the same way
        runs = {}
        for key, kw in {"off": dict(trlearner=False),
                        "zero": dict(trlearner=True, lam=0.0)}.items():
            config = small_config(method=method, batch_tasks=9, **kw)
            model, layer, source = build(config, seed=3)
            opt = ml.make_optimizer(model, layer, config)
            metrics = []
            for b in range(3):
                model.zero_heads()
                batch = tk.make_task_batch(source.train_batch(0, b, config.batch_tasks))
                step = ml.outer_step(model, layer, batch, config, opt)
                metrics.append((step["objective"], step["per_task"]))
            runs[key] = params_of(model), metrics
        assert_params_equal(runs["off"][0], runs["zero"][0])
        assert runs["off"][1] == runs["zero"][1]

    @pytest.mark.parametrize("trlearner", [False, True])
    @pytest.mark.parametrize("method", ml.METHODS)
    def test_non_finite_support_target_names_its_task(self, method, trlearner):
        config = small_config(method=method, trlearner=trlearner, batch_tasks=4)
        model, layer, source = build(config)
        batch = first_batch(source, config)
        batch.metadata[2].support_y[1] = np.inf
        opt = ml.make_optimizer(model, layer, config)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ml.MetaLearnError, match="^non-finite inner loss for task 2$"):
            ml.outer_step(model, layer, batch, config, opt)

    def test_outer_gradient_matches_fd(self):
        config = small_config(hidden=(4,), second_order=True, trlearner=True, lam=0.6)
        model, layer, source = build(config, seed=1, shots=3, queries=3)
        batch = first_batch(source, config)

        named, _, objective, _, _ = ml._record_batch(model, layer, batch, config)
        leaves = dict(named)
        grads = ad.backward(objective)

        for name, var, arr in [
            ("g0.w", leaves["g0.w"], model.extractor[0][0]),
            ("omega", leaves["omega"], layer.omega),
        ]:
            def f(flat, arr=arr):
                saved = arr.copy()
                arr[...] = flat.reshape(arr.shape)
                try:
                    return ml.batch_objective(model, layer, batch, config)
                finally:
                    arr[...] = saved

            analytic = grads[var.index].array.ravel()
            numeric = finite_diff(f, arr.ravel().copy())
            assert rel_err(analytic, numeric) < 1e-3, name

    def test_fixed_matrix_mode_never_updates_omega(self):
        config = small_config(matrix_mode="fixed")
        model, layer, source = build(config, seed=2)
        opt = ml.make_optimizer(model, layer, config)
        for b in range(3):
            batch = tk.make_task_batch(source.train_batch(0, b, config.batch_tasks))
            ml.outer_step(model, layer, batch, config, opt)
        assert np.all(layer.omega == 1.0)

    def test_learned_matrix_mode_updates_omega(self):
        config = small_config(matrix_mode="learned")
        model, layer, source = build(config, seed=2)
        opt = ml.make_optimizer(model, layer, config)
        for b in range(3):
            batch = tk.make_task_batch(source.train_batch(0, b, config.batch_tasks))
            ml.outer_step(model, layer, batch, config, opt)
        assert np.any(layer.omega != 1.0)

    def test_non_finite_objective_raises(self):
        config = small_config()
        model, layer, source = build(config)
        batch = first_batch(source, config)
        batch.metadata[1].query_y[:] = 1e200
        opt = ml.make_optimizer(model, layer, config)
        with np.errstate(over="ignore"), pytest.raises(ml.MetaLearnError, match="non-finite"):
            ml.outer_step(model, layer, batch, config, opt)

    def test_metrics_shape(self):
        config = small_config()
        model, layer, source = build(config)
        opt = ml.make_optimizer(model, layer, config)
        m = ml.outer_step(model, layer, first_batch(source, config), config, opt)
        assert len(m["per_task"]) == 3
        assert len(m["trlearner"]) == 3
        assert m["matrix"].shape == (3, 3)
        assert np.allclose(m["matrix_normalized"].sum(axis=1), 1.0)
        assert m["query_mse"] == pytest.approx(np.mean(m["per_task"]))

    def test_query_sets_recorded_once_per_task(self):
        # each task's query x and y are one (1, q, 1) constant each, a stack
        # of one, which its query loss and its consistency term share: x is
        # read by all N models' first layers, y by the two losses
        config = small_config()
        model, layer, source = build(config)
        batch = first_batch(source, config)
        nodes = ml._record_batch(model, layer, batch, config)[2].tape.nodes
        for md in batch.metadata:
            for arr, reader, count in ((md.query_x, "affine-tanh", len(batch)), (md.query_y, "mse", 2)):
                (idx,) = [i for i, node in enumerate(nodes) if node.op == "const"
                          and node.array.shape == (1,) + arr.shape and np.array_equal(node.array[0], arr)]
                assert [node.op for node in nodes if idx in node.parents] == [reader] * count

    @pytest.mark.parametrize("family", ["sinusoid", "harmonic"])
    def test_support_sets_recorded_once_by_each_phase(self, family):
        # the representation reads each support x through its own constant,
        # the adaptation every support set through one stacked constant per
        # array; on a scaled family each x constant gets one input-scale product
        config = small_config(inner_steps=2)
        model = nn.init_model([1, 8], 3, 0, input_scale=tk.INPUT_SCALES[family])
        layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
        batch = first_batch(tk.TaskSource(family, 5, 5, seed=0), config)
        tape = ml._record_batch(model, layer, batch, config)[2].tape
        consts = [node.array for node in tape.nodes if node.op == "const"]
        for md in batch.metadata:
            assert [sum(a is arr for a in consts) for arr in (md.support_x, md.support_y)] == [1, 0]
        for key in ("support_x", "support_y"):
            stacked = np.stack([getattr(md, key) for md in batch.metadata])
            assert sum(a.shape == stacked.shape and np.array_equal(a, stacked) for a in consts) == 1
        scaled = [n for n in tape.nodes if n.op == "scalar-mul" and tape.nodes[n.parents[0]].op == "const"]
        # each representation's and query's x, and the stacked support x
        assert len(scaled) == (0 if family == "sinusoid" else 2 * len(batch) + 1)

    @pytest.mark.parametrize("trlearner", [False, True])
    @pytest.mark.parametrize("matrix_mode", ml.MATRIX_MODES)
    @pytest.mark.parametrize("method", ml.METHODS)
    def test_update_keys_are_the_trainable_names(self, method, matrix_mode, trlearner):
        config = small_config(method=method, matrix_mode=matrix_mode, trlearner=trlearner)
        model, layer, source = build(config)
        steps = []

        class Capture:
            def step(self, grads):
                steps.append(list(grads))

        ml.outer_step(model, layer, first_batch(source, config), config, Capture())
        assert steps == [[name for name, _ in ml.trainable_params(model, layer, config)]]


class TestStackedAdaptation:
    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(ml.METHODS), n=st.integers(1, 6), steps=st.integers(1, 2),
           second_order=st.booleans(), family=st.sampled_from(["sinusoid", "harmonic"]),
           seed=st.integers(0, 2**16))
    def test_each_task_gets_the_bits_of_its_own_adaptation(self, method, n, steps, second_order,
                                                           family, seed):
        # the stacked phase C against one 2-D inner_adapt per task: adapted
        # parameters and step losses, bit for bit
        config = ml.MetaConfig(method=method, trlearner=False, hidden=(8, 8), batch_tasks=n,
                               inner_steps=steps, second_order=second_order, seed=seed)
        model = nn.init_model([1, 8, 8], n, seed, input_scale=tk.INPUT_SCALES[family])
        rng = np.random.default_rng(seed)
        for w, b in model.heads:  # heads away from zero, so every gradient is live
            w += rng.normal(scale=0.3, size=w.shape)
            b += rng.normal(scale=0.3, size=b.shape)
        if method == "metasgd":
            model.enable_inner_rates(config.alpha)
            for w, b in [*model.inner_rates["extractor"], model.inner_rates["head"]]:
                w += rng.uniform(-0.01, 0.01, w.shape)
                b += rng.uniform(-0.01, 0.01, b.shape)
        source = tk.TaskSource(family, 5, 4, seed=seed)
        batch = tk.make_task_batch(source.train_batch(0, 0, n), seed=seed)
        stacked = ml._adapt_batch(nn.bind(model, ad.Tape()), batch.metadata, config)
        for i, md in enumerate(batch.metadata):
            alone = ml.inner_adapt(nn.bind(model, ad.Tape()), i, md, config)
            for s, a in zip(stacked.extractor + stacked.head, alone.extractor + alone.head):
                got = s.array if s.shape == a.shape else s.array[i].reshape(a.shape)
                assert got.tobytes() == a.array.tobytes()
            assert len(stacked.losses) == len(alone.losses) == steps
            for s, a in zip(stacked.losses, alone.losses):
                assert s.shape == (n, 1, 1) and s.array[i].tobytes() == np.float64(a.array).tobytes()


class TestTapeLifetime:
    """Nothing on a tape refers back to it, so refcounting frees it on return."""

    @pytest.mark.parametrize("method", ["maml", "anil", "metasgd"])
    @pytest.mark.parametrize("call", ["outer_step", "adapted_query_mse", "evaluate"])
    def test_tape_dies_when_the_call_returns(self, call, method, monkeypatch):
        refs = []

        class TrackedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", TrackedTape)
        config = small_config(method=method)
        model, layer, source = build(config)
        opt = ml.make_optimizer(model, layer, config)
        batch = first_batch(source, config)
        gc.disable()  # a reference cycle would keep the tape alive until collected
        try:
            if call == "outer_step":
                ml.outer_step(model, layer, batch, config, opt)
            elif call == "adapted_query_mse":
                ml.adapted_query_mse(model, source.eval_task(0), config)
            else:  # one recording for three tasks of one shape
                ml.evaluate(model, [source.eval_task(t) for t in range(3)], config)
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()


class TestMethods:
    def trajectories(self, config, seed=5, steps=6):
        model, layer, source = build(config, seed=seed)
        opt = ml.make_optimizer(model, layer, config)
        for b in range(steps):
            model.zero_heads()
            batch = tk.make_task_batch(source.train_batch(0, b, config.batch_tasks))
            ml.outer_step(model, layer, batch, config, opt)
        return model

    def test_metasgd_learns_rates(self):
        config = small_config(method="metasgd", trlearner=False)
        model = self.trajectories(config)
        rates = model.inner_rates["extractor"][0][0]
        assert np.any(rates != config.alpha)

    def test_anil_outer_still_trains_extractor(self):
        config = small_config(method="anil", trlearner=False)
        model, layer, source = build(config)
        before = model.extractor[0][0].copy()
        opt = ml.make_optimizer(model, layer, config)
        ml.outer_step(model, layer, first_batch(source, config), config, opt)
        assert not np.array_equal(before, model.extractor[0][0])

    def test_second_and_first_order_diverge(self):
        second = self.trajectories(small_config(second_order=True, trlearner=False))
        first = self.trajectories(small_config(second_order=False, trlearner=False))
        assert not np.array_equal(second.extractor[0][0], first.extractor[0][0])


class TestEvaluate:
    def test_summary_statistics(self):
        mean, ci = ml.summarize([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert ci == pytest.approx(1.96 * 1.0 / np.sqrt(3.0))

    def test_single_value_ci_zero(self):
        assert ml.summarize([4.2]) == (pytest.approx(4.2), 0.0)

    def test_huge_values_do_not_overflow(self):
        mean, ci = ml.summarize([2.8e221, 1e221])
        assert mean == pytest.approx(1.9e221, rel=1e-15)
        assert ci == pytest.approx(1.96 * 0.9e221, rel=1e-15)  # std 0.9e221 * sqrt(2)
        limit = np.finfo(float).max
        assert ml.summarize([limit, limit]) == (limit, 0.0)
        assert ml.summarize([limit, -limit]) == (0.0, np.inf)  # true half-width 1.96 * max

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8))
    @example([2.8e221, 1e221])
    @example([1e300, 0.0, 1e300])
    def test_finite_values_give_finite_stats_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, ci = ml.summarize(values)
        assert np.isfinite(mean) and np.isfinite(ci) and ci >= 0.0
        with np.errstate(all="ignore"):
            plain = (float(np.mean(values)),
                     float(1.96 * np.std(values, ddof=1) / np.sqrt(len(values)))
                     if len(values) > 1 else 0.0)
        if np.all(np.isfinite(plain)):
            assert (mean, ci) == plain  # bit-identical wherever the plain formula holds
        # Exact rational arithmetic: both agree to rounding of the largest value,
        # and to 1e-153 where deviations below 1.5e-154 square to zero.
        exact_ci = 1.96 * statistics.stdev(values) / np.sqrt(len(values)) if len(values) > 1 else 0
        assert abs(mean - statistics.mean(values)) <= 1e-14 * max(values)
        assert abs(ci - exact_ci) <= 1e-14 * max(values) + 1e-153

    def test_empty_rejected(self):
        with pytest.raises(ml.MetaLearnError):
            ml.summarize([])
        config = small_config()
        model, _, _ = build(config)
        with pytest.raises(ml.MetaLearnError, match="evaluation"):
            ml.evaluate(model, [], config)

    def test_zero_adapt_steps_scores_zero_head(self):
        config = small_config(eval_inner_steps=0)
        model, _, source = build(config)
        task = source.eval_task(0)
        got = ml.adapted_query_mse(model, task, config)
        assert got == pytest.approx(float(np.mean(task.query_y ** 2)), abs=1e-12)

    def test_adaptation_reduces_noise_free_error(self):
        config = small_config()
        model, layer, source = build(config, noise_sd=0.0)
        task = source.eval_task(1)
        pre = ml.adapted_query_mse(model, task, small_config(eval_inner_steps=0))
        post = ml.adapted_query_mse(model, task, config)
        assert post < pre

    def test_non_finite_query_loss_raises(self):
        # the one inner step is finite; the huge rate sends the query loss to inf
        config = ml.MetaConfig(alpha=1e10, trlearner=False, eval_inner_steps=1)
        model = nn.init_model([1, 8], 2, 0)
        x = np.linspace(-1.0, 1.0, 4)
        task = tk.TaskInstance("sinusoid", {}, 0.0, x, [1e150, -1e150, 1e150, -1e150], x, np.zeros(4))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ml.MetaLearnError, match="non-finite query loss for an evaluation task"):
            ml.adapted_query_mse(model, task, config)

    @pytest.mark.parametrize("method, family, steps", [
        pytest.param(method, family, steps, id=f"{method}-{family}" + ("" if steps else "-0"))
        for steps in (7, 0) for family in ("sinusoid", "harmonic") for method in ml.METHODS])
    def test_evaluation_tape_holds_only_read_nodes(self, method, family, steps, monkeypatch):
        # a 16-head model: no training head is bound, the zero head is a stack
        # of one task, and every node but the step losses and the output feeds
        # a later one (the recorded inner gradients feed the updates; none is
        # built toward the frozen extractor); without a step no support data
        # or feature is recorded, and only metasgd's inner rates, bound with
        # the model, go unread
        config = small_config(method=method, batch_tasks=16, hidden=(40, 40), eval_inner_steps=steps)
        model = nn.init_model([1, 40, 40], 16, seed=0, input_scale=tk.INPUT_SCALES[family])
        if method == "metasgd":
            model.enable_inner_rates(config.alpha)
        tapes, bind = [], nn.bind
        monkeypatch.setattr(nn, "bind", lambda m, tape, **kw: tapes.append(tape) or bind(m, tape, **kw))
        ml.adapted_query_mse(model, tk.TaskSource(family, 10, 15, seed=0).eval_task(0), config)
        (tape,) = tapes
        rates = [arr for name, arr in model.named_params() if name.startswith("lr.")]
        head = [np.zeros((1, 40, 1)), np.zeros((1, 1, 1))]
        want = [arr for pair in model.extractor for arr in pair] + head + rates
        leaves = [tape.nodes[i].array for i in tape.leaves]
        assert len(leaves) == len(want) == 6 + 6 * (method == "metasgd")
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(leaves, want))
        read = {p for node in tape.nodes for p in node.parents}
        unread = [i for i in range(len(tape)) if i not in read]
        idle_rates = 6 if method == "metasgd" and steps == 0 else 0
        assert [tape.nodes[i].op for i in unread] == ["leaf"] * idle_rates + ["mse"] * (steps + 1)
        assert unread[-1] == len(tape) - 1

    def test_evaluate_aggregates(self):
        config = small_config()
        model, _, source = build(config)
        out = ml.evaluate(model, [source.eval_task(i) for i in range(4)], config)
        assert len(out["per_task"]) == 4
        assert out["mean"] == pytest.approx(np.mean(out["per_task"]))

    def test_huge_finite_losses_give_a_finite_mean(self, monkeypatch):
        # np.mean overflows on these; log.jsonl would get a non-JSON Infinity
        huge = [1.5e308, 1.2e308, 0.9e308]
        losses = iter(huge)
        monkeypatch.setattr(ml, "adapted_query_mse", lambda model, task, config, graphs: next(losses))
        config = small_config()
        model, _, _ = build(config)
        with np.errstate(over="ignore"):
            assert np.mean(huge) == np.inf
        out = ml.evaluate(model, [None] * 3, config)
        assert out["mean"] == ml.summarize(huge)[0] == pytest.approx(1.2e308, rel=1e-15)
        json.dumps(out, allow_nan=False)


def first_order_query_mse(model, task, config):
    """An evaluation adaptation on its own tape, with first-order inner gradients."""
    tape = ad.Tape()
    d = model.feature_width
    mv = nn.bind(model, tape, heads=[(np.zeros((d, 1)), np.zeros(1))])
    steps = config.inner_steps if config.eval_inner_steps is None else config.eval_inner_steps
    x, y = tape.constant(task.support_x), tape.constant(task.support_y)
    adapted = ml._adapt(mv, mv.head_params(0), x, y, config, steps, True, ["an evaluation task"])
    qx, qy = tape.constant(task.query_x), tape.constant(task.query_y)
    loss = float(ml.task_loss(adapted.predict(qx), qy).array)
    if not np.isfinite(loss):
        raise ml.MetaLearnError("non-finite query loss for an evaluation task")
    return loss


def eval_model(method, family, seed, alpha=0.05, hidden=(8, 8)):
    """A model with random extractor biases and, for metasgd, random inner rates."""
    rng = np.random.default_rng(seed)
    model = nn.init_model([1, *hidden], 2, seed, input_scale=tk.INPUT_SCALES[family])
    for _, b in model.extractor:
        b[:] = rng.normal(0.0, 0.3, size=b.shape)
    if method == "metasgd":
        model.enable_inner_rates(alpha)
        for pair in model.inner_rates["extractor"] + [model.inner_rates["head"]]:
            for arr in pair:
                arr *= rng.uniform(0.5, 1.5, size=arr.shape)
    return model


def task_shapes(task):
    return tuple(np.shape(a) for a in (task.support_x, task.support_y, task.query_x, task.query_y))


def outcomes(adapt, tasks):
    """Per task, in order: `adapt(task)`'s bits, or the message of the error
    it raised; each call goes on after an earlier one raised."""
    out = []
    for t in tasks:
        try:
            out.append(float(adapt(t)).hex())
        except ml.MetaLearnError as exc:
            out.append(str(exc))
    return out


def outcomes_alone(model, tasks, config):
    """Each task adapted on its own first-order tape."""
    with np.errstate(over="ignore", invalid="ignore"):
        return outcomes(lambda t: first_order_query_mse(model, t, config), tasks)


def outcomes_per_call(model, tasks, config):
    """The tasks through `evaluate`'s calls, one per task in order."""
    chunks = ml._EvalChunks(tasks)
    return outcomes(lambda t: ml.adapted_query_mse(model, t, config, chunks), tasks)


def calm_task(k):
    # a zero support set keeps the zero head at zero under any rate
    x = np.linspace(-1.0, 1.0, 4)
    return tk.TaskInstance("sinusoid", {}, 0.0, x, np.zeros(4), x + 0.1, np.sin(x + k))


def wild_task(size):
    # at alpha 1e10: 1e150 gives a finite first step loss, then infinities; 1e200 an infinite one
    x = np.linspace(-1.0, 1.0, 4)
    return tk.TaskInstance("sinusoid", {}, 0.0, x, [size, -size, size, -size], x, np.zeros(4))


def wild_config(steps):
    return ml.MetaConfig(alpha=1e10, trlearner=False, eval_inner_steps=steps, hidden=(8,))


class TestReplayedEvaluation:
    """`evaluate` records one adaptation per data shape and replays it per chunk of tasks."""

    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(ml.METHODS), family=st.sampled_from(["sinusoid", "harmonic"]),
           steps=st.sampled_from([0, 1, 7]), seed=st.integers(0, 2**16), chunk=st.integers(1, 4),
           offset=st.sampled_from([-1, 0, 1]), mixed=st.booleans())
    def test_per_task_losses_are_bitwise_the_first_order_path(self, method, family, steps, seed,
                                                              chunk, offset, mixed):
        # 1, chunk - 1, chunk or chunk + 1 tasks per shape; `mixed` alternates two
        # support sizes in task order; metasgd rates are non-uniform (eval_model)
        config = small_config(method=method, hidden=(8, 8), eval_inner_steps=steps, alpha=0.05)
        model = eval_model(method, family, seed)
        sources = [tk.TaskSource(family, k, 9, seed=seed) for k in ((6, 4) if mixed else (6,))]
        per_shape = max(1, chunk + offset)
        tasks = [sources[t % len(sources)].eval_task(t) for t in range(per_shape * len(sources))]
        (width,) = {ml._eval_replay(model, task_shapes(t), config).width for t in tasks[:len(sources)]}
        want = outcomes_alone(model, tasks, config)
        sizes, call = [], ad.BatchedReplay.__call__

        def counting(replay, stacks):
            sizes.append(len(stacks[0]))
            return call(replay, stacks)

        with mock.patch.object(ml, "_CHUNK_FLOATS", chunk * width), \
                mock.patch.object(ad.BatchedReplay, "__call__", counting), \
                np.errstate(over="ignore", invalid="ignore"):
            assert outcomes_per_call(model, tasks, config) == want
            full, rest = divmod(per_shape, chunk)
            assert sorted(sizes) == sorted(([chunk] * full + [rest] * (rest > 0)) * len(sources))
            failed = [w for w in want if "loss" in w]
            if failed:
                with pytest.raises(ml.MetaLearnError, match=f"^{failed[0]}$"):
                    ml.evaluate(model, tasks, config)
            else:
                assert [v.hex() for v in ml.evaluate(model, tasks, config)["per_task"]] == want
            assert outcomes(lambda t: ml.adapted_query_mse(model, t, config), tasks) == want

    @pytest.mark.parametrize("steps, message", [(3, "non-finite inner loss"), (1, "non-finite query loss")])
    def test_a_diverging_task_raises_at_the_same_step(self, steps, message):
        # the wild second task diverges: at step 2 of 3, or (one step) in its
        # query loss; the calm first one keeps its bits
        config, model = wild_config(steps), nn.init_model([1, 8], 2, 0)
        tasks = [calm_task(0), wild_task(1e150)]
        want = outcomes_alone(model, tasks, config)
        assert want[1] == f"{message} for an evaluation task"
        assert outcomes_per_call(model, tasks, config) == want
        with pytest.raises(ml.MetaLearnError, match=f"^{want[1]}$"):
            ml.evaluate(model, tasks, config)

    def test_a_diverging_task_in_the_middle_of_a_chunk(self):
        config, model = wild_config(3), nn.init_model([1, 8], 2, 0)
        tasks = [calm_task(k) for k in range(3)] + [wild_task(1e150)] + [calm_task(k) for k in range(3, 6)]
        assert ml._CHUNK_FLOATS // ml._eval_replay(model, task_shapes(tasks[0]), config).width > len(tasks)
        want = outcomes_alone(model, tasks, config)
        assert ["loss" in w for w in want] == [False] * 3 + [True] + [False] * 3
        assert outcomes_per_call(model, tasks, config) == want
        with pytest.raises(ml.MetaLearnError, match="non-finite inner loss"):
            ml.evaluate(model, tasks, config)

    @pytest.mark.parametrize("first", ["query", "inner"])
    def test_the_first_failing_task_decides_the_error(self, first):
        # in one chunk, a task whose query loss overflows and one whose first
        # step loss does; whichever comes first in task order names the error
        config, model = wild_config(1), nn.init_model([1, 8], 2, 0)
        wild = {"query": wild_task(1e150), "inner": wild_task(1e200)}
        second = "inner" if first == "query" else "query"
        tasks = [calm_task(0), wild[first], wild[second], calm_task(1)]
        want = outcomes_alone(model, tasks, config)
        assert want[1:3] == [f"non-finite {kind} loss for an evaluation task" for kind in (first, second)]
        assert outcomes_per_call(model, tasks, config) == want
        with pytest.raises(ml.MetaLearnError, match=f"^{want[1]}$"):
            ml.evaluate(model, tasks, config)

    def test_a_diverging_chunk_warns_of_nothing(self):
        # overflow in one task's slice raises no RuntimeWarning, while the lone
        # first-order path on the same task does
        config, model = wild_config(3), nn.init_model([1, 8], 2, 0)
        tasks = [calm_task(0), wild_task(1e150), calm_task(1)]
        want = outcomes_alone(model, tasks, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcomes_per_call(model, tasks, config) == want
            with pytest.raises(ml.MetaLearnError, match="non-finite inner loss"):
                ml.evaluate(model, tasks, config)
        with pytest.warns(RuntimeWarning), pytest.raises(ml.MetaLearnError):
            first_order_query_mse(model, tasks[1], config)

    def test_chunks_take_their_tasks_in_order(self):
        config, model = small_config(eval_inner_steps=1), nn.init_model([1, 8], 2, 0)
        tasks = [calm_task(0), calm_task(1)]
        chunks = ml._EvalChunks(tasks)
        with pytest.raises(ml.MetaLearnError, match="in order"):
            ml.adapted_query_mse(model, tasks[1], config, chunks)

    def test_peak_memory_stays_within_a_multiple_of_the_chunk_budget(self):
        # a chunk's replay keeps alive only the values still to be read (about
        # four of the largest stacked node), and its plan only the recorded
        # values a step reads: 5.1 budgets here, 8.7 when the plan kept every
        # recorded value, 32 when every value lived to the end of the replay
        config = ml.MetaConfig(hidden=(40, 40), trlearner=False, eval_inner_steps=7)
        model = nn.init_model([1, 40, 40], 4, 0)
        source = tk.TaskSource("sinusoid", 10, 15, seed=0)
        tasks = [source.eval_task(t) for t in range(200)]
        tracemalloc.start()
        try:
            ml.evaluate(model, tasks, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * ml._CHUNK_FLOATS * 8

    def test_each_support_and_query_size_gets_its_own_recording(self, monkeypatch):
        tapes = []

        class TrackedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        config = small_config(eval_inner_steps=2)
        model = eval_model("maml", "sinusoid", 3)
        sizes = [(10, 15), (10, 15), (5, 15), (10, 7), (5, 15), (10, 15)]
        tasks = [tk.TaskSource("sinusoid", k, q, seed=4).eval_task(t) for t, (k, q) in enumerate(sizes)]
        monkeypatch.setattr(ad, "Tape", TrackedTape)
        got = ml.evaluate(model, tasks, config)["per_task"]
        assert len(tapes) == 3
        monkeypatch.undo()
        assert got == [first_order_query_mse(model, t, config) for t in tasks]


class TestTrain:
    def test_zero_epochs_no_change(self):
        config = small_config(epochs=0)
        model, layer, source = build(config)
        before = params_of(model)
        log = ml.train(model, layer, source, config)
        assert log == []
        assert_params_equal(before, params_of(model))

    def test_determinism(self):
        logs, finals = [], []
        for _ in range(2):
            config = small_config(epochs=2, batches_per_epoch=3, val_tasks=4)
            model, layer, source = build(config, seed=7)
            logs.append(ml.train(model, layer, source, config))
            finals.append(params_of(model))
        assert logs[0] == logs[1]
        assert_params_equal(finals[0], finals[1])

    def test_log_record_fields(self):
        config = small_config(epochs=2, batches_per_epoch=2, val_tasks=3, log_matrix_every=2)
        model, layer, source = build(config)
        log = ml.train(model, layer, source, config)
        assert [r["epoch"] for r in log] == [0, 1]
        assert all(np.isfinite(r["train_mse"]) for r in log)
        assert all(np.isfinite(r["val_mse"]) for r in log)
        assert "matrix" not in log[0] and "matrix" in log[1]
        assert np.allclose(np.sum(log[1]["matrix"], axis=1), 1.0)

    def test_huge_finite_batch_losses_give_finite_epoch_means(self, monkeypatch):
        huge = [1.5e308, 1.2e308, 0.9e308]
        metrics = {"query_mse": 1.5e308, "trlearner": huge, "matrix_normalized": None}
        monkeypatch.setattr(ml, "outer_step", lambda *args: metrics)
        config = small_config(batches_per_epoch=3)
        model, layer, source = build(config)
        (record,) = ml.train(model, layer, source, config)
        assert record["trlearner_mse"] == ml.summarize([ml.summarize(huge)[0]] * 3)[0]
        assert record["train_mse"] == 1.5e308
        json.dumps(record, allow_nan=False)

    def test_trlearner_off_has_no_consistency_log(self):
        config = small_config(trlearner=False)
        model, layer, source = build(config)
        log = ml.train(model, layer, source, config)
        assert all(r["trlearner_mse"] is None for r in log)

    def test_smoke_adaptation_beats_zero_head(self):
        # 200 meta-batches of vanilla training must leave the extractor in a
        # state where adaptation helps on held-out tasks.
        config = ml.MetaConfig(hidden=(40, 40), batch_tasks=4, trlearner=False,
                               epochs=2, batches_per_epoch=100, val_tasks=0, seed=11)
        model, layer, source = build(config, seed=11, shots=10, queries=15)
        ml.train(model, layer, source, config)
        held_out = [source.eval_task(i) for i in range(20)]
        post = ml.evaluate(model, held_out, config)["mean"]
        pre_config = ml.MetaConfig(**{**config.__dict__, "eval_inner_steps": 0})
        pre = ml.evaluate(model, held_out, pre_config)["mean"]
        assert post < pre
