"""Independent numpy oracle for one meta-batch and one evaluation adaptation.

Written from the math, not from relmeta: plain arrays in, plain floats
out, gradients of the inner loss derived by hand.  The model is a tanh
MLP extractor (inputs multiplied by `input_scale` first) and an affine
scalar head; a task's loss is the mean squared error over its points.

Parameters travel as a flat list [W0, b0, W1, b1, ..., head_w, head_b].
"""

from __future__ import annotations

import numpy as np

WEIGHT_FLOOR = 1e-6
# Step of the central differences.
CD_STEP = 1e-5


def features(ext, x, scale):
    """Extractor output and every layer's activations (input first)."""
    h = x * scale
    acts = [h]
    for li in range(0, len(ext), 2):
        h = np.tanh(h @ ext[li] + ext[li + 1])
        acts.append(h)
    return h, acts


def predict(params, x, scale):
    h, _ = features(params[:-2], x, scale)
    return h @ params[-2] + params[-1]


def mse(pred, y):
    return float(np.mean((pred - y) ** 2))


def loss_and_grad(params, x, y, scale, head_only=False):
    """Support MSE and its gradient, backpropagated by hand.

    With `head_only` the gradient list holds the head entries only (the
    extractor is read frozen, as in ANIL).
    """
    ext, hw, hb = params[:-2], params[-2], params[-1]
    feats, acts = features(ext, x, scale)
    pred = feats @ hw + hb
    resid = pred - y
    loss = float(np.mean(resid ** 2))
    dpred = 2.0 * resid / resid.size
    g_hw = feats.T @ dpred
    g_hb = dpred.sum(axis=0)
    if head_only:
        return loss, [g_hw, g_hb]
    grads = [None] * len(ext)
    dh = dpred @ hw.T
    for li in range(len(ext) // 2 - 1, -1, -1):
        out = acts[li + 1]
        dz = dh * (1.0 - out ** 2)
        grads[2 * li] = acts[li].T @ dz
        grads[2 * li + 1] = dz.sum(axis=0)
        dh = dz @ ext[2 * li].T
    return loss, grads + [g_hw, g_hb]


def adapt(params, x, y, alpha, steps, scale, head_only=False):
    """`steps` plain gradient-descent steps on (x, y); returns new params."""
    cur = [p.copy() for p in params]
    for _ in range(steps):
        loss, grads = loss_and_grad(cur, x, y, scale, head_only)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite inner loss")
        if head_only:
            cur = cur[:-2] + [p - alpha * g for p, g in zip(cur[-2:], grads)]
        else:
            cur = [p - alpha * g for p, g in zip(cur, grads)]
    return cur


def relation_matrix(omega, reps):
    """Mean over mask rows of masked cosines; zero diagonal.

    A head whose masked representation has zero norm contributes 0.
    """
    n = len(reps)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            total = 0.0
            for w in omega:
                u, v = w * reps[i], w * reps[j]
                nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                if nu > 0.0 and nv > 0.0:
                    total += float(u @ v) / (nu * nv)
            m[i, j] = m[j, i] = total / len(omega)
    return m


def normalized(matrix):
    """Clamped weights max(m, 0) + floor, diagonal 0, rows scaled to sum 1."""
    w = np.maximum(matrix, 0.0) + WEIGHT_FLOOR
    np.fill_diagonal(w, 0.0)
    return w / w.sum(axis=1, keepdims=True)


def meta_batch(ext, heads, omega, tasks, *, alpha, lam, steps, scale, head_only, trlearner):
    """Outer objective of one meta-batch and the values it is made of.

    `tasks` holds (support_x, support_y, query_x, query_y) per task and
    `heads[i]` is [head_w, head_b] of batch slot i.  Returns a dict with
    `objective`, `per_task`, `trlearner` (None when off) and `matrix`
    (None when off).
    """
    n = len(tasks)
    adapted = [adapt(list(ext) + list(heads[i]), sx, sy, alpha, steps, scale, head_only)
               for i, (sx, sy, _, _) in enumerate(tasks)]
    per_task = [mse(predict(adapted[i], qx, scale), qy)
                for i, (_, _, qx, qy) in enumerate(tasks)]
    out = {"per_task": per_task, "trlearner": None, "matrix": None}
    total = sum(per_task)
    if trlearner:
        reps = [features(ext, sx, scale)[0].mean(axis=0) for sx, _, _, _ in tasks]
        matrix = relation_matrix(omega, reps)
        weights = np.maximum(matrix, 0.0) + WEIGHT_FLOOR
        tr = []
        for i, (_, _, qx, qy) in enumerate(tasks):
            peers = [p for p in range(n) if p != i]
            num = sum(weights[i, p] * predict(adapted[p], qx, scale) for p in peers)
            den = sum(weights[i, p] for p in peers)
            tr.append(mse(num / den, qy))
        out["trlearner"] = tr
        out["matrix"] = matrix
        total += lam * sum(tr)
    out["objective"] = total / n
    return out


def eval_adaptation(ext, task, *, alpha, steps, scale, head_only):
    """Query MSE after `steps` support steps from a zero head."""
    sx, sy, qx, qy = task
    d = ext[-1].shape[0]
    params = list(ext) + [np.zeros((d, 1)), np.zeros(1)]
    adapted = adapt(params, sx, sy, alpha, steps, scale, head_only)
    return mse(predict(adapted, qx, scale), qy)


def central_difference(f, arr, index):
    """d f / d arr[index] by a central difference; arr is restored."""
    orig = arr[index]
    arr[index] = orig + CD_STEP
    fp = f()
    arr[index] = orig - CD_STEP
    fm = f()
    arr[index] = orig
    return (fp - fm) / (2.0 * CD_STEP)
