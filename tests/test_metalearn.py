import gc
import weakref

import numpy as np
import pytest

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
        # the query loss and the consistency term share one constant each
        config = small_config()
        model, layer, source = build(config)
        batch = first_batch(source, config)
        tape = ml._record_batch(model, layer, batch, config)[2].tape
        consts = [node.array for node in tape.nodes if node.op == "const"]
        for md in batch.metadata:
            assert [sum(a is arr for a in consts) for arr in (md.query_x, md.query_y)] == [1, 1]

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


class TestTapeLifetime:
    """Nothing on a tape refers back to it, so refcounting frees it on return."""

    @pytest.mark.parametrize("method", ["maml", "anil", "metasgd"])
    @pytest.mark.parametrize("call", ["outer_step", "adapted_query_mse"])
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
            else:
                ml.adapted_query_mse(model, source.eval_task(0), config)
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

    def test_evaluate_aggregates(self):
        config = small_config()
        model, _, source = build(config)
        out = ml.evaluate(model, [source.eval_task(i) for i in range(4)], config)
        assert len(out["per_task"]) == 4
        assert out["mean"] == pytest.approx(np.mean(out["per_task"]))


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
