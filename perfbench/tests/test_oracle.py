"""The numpy oracle against hand-computed cases and against relmeta."""

import math

import numpy as np
import pytest

import checks
import oracle
import relmeta.autodiff as ad
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk

# One tanh unit, scalar head: params [W0, b0, head_w, head_b].
W0, B0, HW, HB = 0.5, 0.1, 2.0, 1.0
XS, YS = (1.0, -1.0), (1.0, 0.0)


def _tiny_params():
    return [np.array([[W0]]), np.array([B0]), np.array([[HW]]), np.array([HB])]


def _tiny_data():
    return np.array(XS).reshape(-1, 1), np.array(YS).reshape(-1, 1)


def _hand_loss_and_grad(scale):
    """Scalar chain rule for the tiny model, written out term by term."""
    n = len(XS)
    loss = g_w0 = g_b0 = g_hw = g_hb = 0.0
    for x, y in zip(XS, YS):
        a = scale * x
        h = math.tanh(W0 * a + B0)
        r = HW * h + HB - y
        loss += r * r / n
        d = 2.0 * r / n
        g_hw += d * h
        g_hb += d
        dz = d * HW * (1.0 - h * h)
        g_w0 += dz * a
        g_b0 += dz
    return loss, [g_w0, g_b0, g_hw, g_hb]


@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_loss_and_grad_match_hand_computation(scale):
    x, y = _tiny_data()
    loss, grads = oracle.loss_and_grad(_tiny_params(), x, y, scale)
    want_loss, want_grads = _hand_loss_and_grad(scale)
    assert loss == pytest.approx(want_loss, rel=1e-14)
    for g, want in zip(grads, want_grads):
        assert float(np.ravel(g)[0]) == pytest.approx(want, rel=1e-13)
    _, head = oracle.loss_and_grad(_tiny_params(), x, y, scale, head_only=True)
    assert [float(np.ravel(g)[0]) for g in head] == pytest.approx(want_grads[2:], rel=1e-13)


def test_one_inner_step_by_hand():
    x, y = _tiny_data()
    _, grads = _hand_loss_and_grad(1.0)
    adapted = oracle.adapt(_tiny_params(), x, y, alpha=0.05, steps=1, scale=1.0)
    for p, start, g in zip(adapted, (W0, B0, HW, HB), grads):
        assert float(np.ravel(p)[0]) == pytest.approx(start - 0.05 * g, rel=1e-14)
    frozen = oracle.adapt(_tiny_params(), x, y, alpha=0.05, steps=1, scale=1.0, head_only=True)
    assert float(frozen[0][0, 0]) == W0 and float(frozen[1][0]) == B0


def test_two_layer_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    params = [rng.normal(size=(1, 5)), rng.normal(size=5), rng.normal(size=(5, 4)),
              rng.normal(size=4), rng.normal(size=(4, 1)), rng.normal(size=1)]
    x, y = rng.uniform(-1, 1, size=(6, 1)), rng.normal(size=(6, 1))
    _, grads = oracle.loss_and_grad(params, x, y, scale=3.0)
    for p, g in zip(params, grads):
        for index in np.ndindex(p.shape):
            numeric = oracle.central_difference(
                lambda: oracle.loss_and_grad(params, x, y, scale=3.0)[0], p, index)
            assert g[index] == pytest.approx(numeric, rel=1e-6, abs=1e-8)


def test_relation_matrix_by_hand():
    reps = [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])]
    m = oracle.relation_matrix(np.ones((1, 2)), reps)
    s = 1.0 / math.sqrt(2.0)
    assert m == pytest.approx(np.array([[0, s, 0], [s, 0, s], [0, s, 0]]), abs=1e-15)
    # A mask row that zeroes a representation contributes 0 to the mean.
    half = oracle.relation_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), reps)
    assert half[0, 1] == pytest.approx(s / 2.0, abs=1e-15)
    assert half[1, 2] == pytest.approx((s + 1.0) / 2.0, abs=1e-15)


def test_normalized_rows():
    m = np.array([[0.0, 0.5, -0.2], [0.5, 0.0, 0.3], [-0.2, 0.3, 0.0]])
    w = oracle.normalized(m)
    f = oracle.WEIGHT_FLOOR
    assert w[0] == pytest.approx([0.0, (0.5 + f) / (0.5 + 2 * f), f / (0.5 + 2 * f)], abs=1e-15)
    assert w.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-15)


def test_consistency_two_tasks_by_hand():
    """With two tasks each task's peer ensemble is the other model alone."""
    ext = [np.array([[0.3]]), np.array([0.0])]
    heads = [[np.array([[1.0]]), np.array([0.0])], [np.array([[2.0]]), np.array([0.5])]]
    tasks = [(np.array([[1.0]]), np.array([[0.2]]), np.array([[0.5], [-0.5]]), np.array([[0.1], [0.0]])),
             (np.array([[-1.0]]), np.array([[0.4]]), np.array([[1.5]]), np.array([[1.0]]))]
    got = oracle.meta_batch(ext, heads, np.ones((2, 1)), tasks, alpha=0.0, lam=0.5, steps=1,
                            scale=1.0, head_only=False, trlearner=True)
    f0 = [math.tanh(0.3 * v) for v in (0.5, -0.5)]
    peer0 = [2.0 * h + 0.5 for h in f0]
    tr0 = ((peer0[0] - 0.1) ** 2 + (peer0[1] - 0.0) ** 2) / 2
    tr1 = (1.0 * math.tanh(0.45) + 0.0 - 1.0) ** 2
    assert got["trlearner"] == pytest.approx([tr0, tr1], rel=1e-14)
    q0 = ((f0[0] - 0.1) ** 2 + f0[1] ** 2) / 2
    q1 = (2.0 * math.tanh(0.45) + 0.5 - 1.0) ** 2
    assert got["per_task"] == pytest.approx([q0, q1], rel=1e-14)
    assert got["objective"] == pytest.approx((q0 + q1 + 0.5 * (tr0 + tr1)) / 2, rel=1e-14)
    # The 1-D representations have opposite signs, so their cosine is -1.
    assert got["matrix"][0, 1] == pytest.approx(-1.0)


def _program_batch(n, method, dataset, seed):
    config = ml.MetaConfig(method=method, trlearner=True, lam=0.6, batch_tasks=n,
                           hidden=(6, 5), alpha=0.05, seed=seed)
    scale = 10.0 if dataset == "harmonic" else 1.0
    model = nn.init_model([1, 6, 5], n, seed, input_scale=scale)
    rng = np.random.default_rng(seed)
    for w, b in model.heads:
        w[...] = rng.uniform(-0.5, 0.5, size=w.shape)
        b[...] = rng.uniform(-0.5, 0.5, size=b.shape)
    layer = rel.SimilarityLayer(config.sim_heads, model.feature_width)
    layer.omega[...] = rng.uniform(0.5, 1.5, size=layer.omega.shape)
    source = tk.TaskSource(dataset, 5, 4, seed=seed)
    batch = tk.make_task_batch(source.train_batch(0, 0, n), seed=(seed, 4, 0, 0))
    return model, layer, batch, config


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("method", ["maml", "anil"])
def test_oracle_matches_program(n, method):
    model, layer, batch, config = _program_batch(n, method, "sinusoid", seed=n)
    coords = [("g0.w", (0, 1)), ("g1.w", (2, 3)), ("h1.w", (4, 0)), ("h0.b", (0,)),
              ("omega", (1, 2))]
    bad, _ = checks.check_meta_batch(model, layer, batch, config, coords=coords)
    assert bad == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_matches_program_with_input_scale(n):
    model, layer, batch, config = _program_batch(n, "maml", "harmonic", seed=10 + n)
    bad, _ = checks.check_meta_batch(model, layer, batch, config,
                                     coords=[("g0.w", (0, 0)), ("omega", (0, 4))])
    assert bad == []


@pytest.mark.parametrize("method", ["maml", "anil"])
def test_eval_adaptation_matches_program(method):
    model, _, _, config = _program_batch(3, method, "sinusoid", seed=5)
    config.eval_inner_steps = 7
    task = tk.TaskSource("sinusoid", 10, 15, seed=5).eval_task(0)
    assert checks.check_eval_adaptation(model, task, config) == []


def test_checks_catch_a_wrong_loss(monkeypatch):
    model, layer, batch, config = _program_batch(3, "maml", "sinusoid", seed=1)
    task_loss = ml.task_loss
    monkeypatch.setattr(ml, "task_loss", lambda p, t: ad.smul(task_loss(p, t), 1.0001))
    bad, _ = checks.check_meta_batch(model, layer, batch, config)
    assert any("per-task" in line for line in bad)


def test_matrix_properties_flag_asymmetry():
    m = np.array([[0.0, 0.5], [0.4, 0.0]])
    bad = checks.matrix_properties(m, oracle.normalized(m), "x")
    assert any("symmetric" in line for line in bad)
    assert checks.matrix_properties(np.array([[0.0, 0.5], [0.5, 0.0]]),
                                    oracle.normalized(np.array([[0.0, 0.5], [0.5, 0.0]])),
                                    "x") == []
