"""Reverse-mode automatic differentiation on a single append-only tape.

Values are dense float64 tensors.  Every primitive operation appends one
node to a :class:`Tape`; a node only references lower-indexed nodes, so a
plain reverse walk implements backpropagation.  Every op other than a leaf
or a constant is recorded by `_record`, which takes the node's value from
the op's `_FORWARD` entry.  :class:`BatchedReplay`, the one replay, reruns
a graph recorded for a stack of one task on a stack of T with new arrays
at chosen leaves and constants, one `_FORWARD` call per node.  When
:func:`check_replayable` accepts the graph, each task's slice holds the
bits of the graph recorded afresh on that task's data.

Each op's vector-Jacobian product is written once, against the op set it
is handed.  :func:`grad` records it, so the gradients it returns are tape
variables.  An update of the form ``p - a * grad(loss, p)`` therefore
stays inside the graph, and a later backward pass differentiates straight
through it: one recorded inner gradient-descent step of the bi-level loop
(see :mod:`relmeta.metalearn`).  :func:`backward`, the outer gradient that
nothing differentiates again, runs the same walk on bare ndarrays, as does
``grad(..., record=False)``: the same `_FORWARD` floats, no Var, no node.

Each node also records, as an int bitmask, which leaves it depends on
(leaf k sets bit k; constants are 0).  A reverse walk builds adjoints only
toward parents whose masks allow them to depend on one of the nodes it was
asked for, so no VJP is recorded toward data, masks or a frozen sub-graph.
It keeps one adjoint per node: a further contribution is added to it on
arrival, so what a walk holds grows with the nodes it reaches, not with
their consumers.  A few fused ops (`matmul` with transposed operands,
`affine`, `affine-tanh` for one tanh layer, `mse`, the n-ary `add` of
`add_n`, the `sgd-step` update and the tanh and cosine VJPs) stand for
chains of primitives: each computes the same float expression the chain
did, in one node, and its VJP records the nodes the chain's VJPs recorded.

A tape is single-owner: record and differentiate from one execution
context.  Independent tapes are cheap; the training loop makes a fresh one
per meta-batch.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np


class AutodiffError(Exception):
    """Base class for tape errors."""


class ShapeError(AutodiffError):
    """Operands have shapes the op cannot accept."""


class DetachedGradientError(AutodiffError):
    """A second-order path was requested through a detached gradient."""


class Node:
    """One tape entry.  Parents are node indices, never Vars: a tape then holds
    no reference cycle, so refcounting frees it without the cyclic collector."""

    __slots__ = ("op", "parents", "array", "extra", "mask")

    def __init__(self, op, parents, array, extra, mask):
        self.op = op
        self.parents = parents
        self.array = array
        self.extra = extra
        self.mask = mask


class Var:
    """Handle to one tape node: (tape, index, forward value)."""

    __slots__ = ("tape", "index", "array")

    def __init__(self, tape: "Tape", index: int, array: np.ndarray):
        self.tape = tape
        self.index = index
        self.array = array

    @property
    def shape(self) -> tuple:
        return self.array.shape

    def __repr__(self):
        return f"Var(index={self.index}, shape={self.shape})"


#: op kinds whose nodes terminate backpropagation
_TERMINAL = ("leaf", "const")

#: markers stored in `extra`: the zero gradients of unreached inputs, and
#: the ones a recording walk starts from
_ZERO_GRAD = "zero-grad"
_SEED = "seed"


class Tape:
    """Append-only record of primitive operations."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.leaves: list[int] = []  # leaf k's node index; leaf k sets mask bit k

    def __len__(self) -> int:
        return len(self.nodes)

    def _append(self, op, parents, array, extra=None, mask=0) -> Var:
        nodes = self.nodes
        for p in parents:
            mask |= nodes[p].mask
        idx = len(nodes)
        nodes.append(Node(op, parents, array, extra, mask))
        return Var(self, idx, array)

    def leaf(self, values) -> Var:
        """A differentiation root; backward() reports gradients for these."""
        bit = 1 << len(self.leaves)
        self.leaves.append(len(self.nodes))
        return self._append("leaf", (), np.array(values, dtype=np.float64), mask=bit)

    def constant(self, values) -> Var:
        """Like a leaf but excluded from gradient reports (data, masks)."""
        return self._append("const", (), np.asarray(values, dtype=np.float64))


def _same_tape(op: str, vars_: tuple) -> Tape:
    if not vars_:
        raise ShapeError(f"op '{op}': needs at least one input")
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise AutodiffError(f"op '{op}': operands live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# forward implementations (shared by recording and BatchedReplay)

def _f_add(xs, _):
    total = xs[0] + xs[1]  # a left fold
    for x in xs[2:]:
        total = total + x
    return total


def _f_sub(xs, _):
    return xs[0] - xs[1]


def _f_mul(xs, _):
    return xs[0] * xs[1]


def _f_div(xs, _):
    return xs[0] / xs[1]


def _f_smul(xs, c):
    return xs[0] * c


def _f_sadd(xs, c):
    return xs[0] + c


def _f_matmul(xs, extra):
    # the last two axes, so that a stack of tasks (see BatchedReplay) swaps
    # each task's matrix; for 2-D operands that is `.T`
    a, b = xs
    ta, tb = extra
    if ta:
        a = np.ascontiguousarray(a.swapaxes(-1, -2))
    if tb:
        b = np.ascontiguousarray(b.swapaxes(-1, -2))
    return a @ b


def _f_affine(xs, _):
    return xs[0] @ xs[1] + xs[2]


def _f_affine_tanh(xs, _):
    return np.tanh(xs[0] @ xs[1] + xs[2])


def _count(axis, shape) -> int:
    """Entries a reduction over `axis` (None or non-negative axes) sums.

    sum is np.add.reduce, and mean and mse divide it by the count, which is
    what the np.sum and np.mean wrappers do: the same bits and result type."""
    return math.prod(shape) if axis is None else math.prod([shape[i] for i in axis])


def _f_mse(xs, _):
    # one loss per task over the last two axes, kept as axes of length 1; a
    # 2-D operand is one task, with a 0-d loss
    d = xs[0] - xs[1]
    stacked = d.ndim > 2
    return (np.add.reduce(np.square(d), axis=(-2, -1) if stacked else None, keepdims=stacked)
            / math.prod(d.shape[-2:]))


def _f_mse_grad(xs, c):
    g, p, y = xs
    return (g * c) * ((p - y) * 2.0)


def _f_tanh_grad(xs, _):
    g, out = xs
    return g - g * np.square(out)


def _f_transpose(xs, _):
    return np.ascontiguousarray(xs[0].swapaxes(-1, -2))


def _f_reshape(xs, shape):
    # not ascontiguousarray: it turns a 0-d result into shape (1,)
    return np.asarray(xs[0].reshape(shape), order="C")


def _f_broadcast(xs, shape):
    return np.asarray(np.broadcast_to(xs[0], shape), order="C")


def _f_sum(xs, extra):
    axis, _, keepdims = extra
    return np.add.reduce(xs[0], axis=axis, keepdims=keepdims)


def _f_mean(xs, extra):
    axis, shape = extra
    return np.add.reduce(xs[0], axis=axis) / _count(axis, shape)


def _f_tanh(xs, _):
    return np.tanh(xs[0])


def _f_relu(xs, _):
    return np.maximum(xs[0], 0.0)


def _f_sin(xs, _):
    return np.sin(xs[0])


def _f_cos(xs, _):
    return np.cos(xs[0])


def _f_square(xs, _):
    return np.square(xs[0])


def _f_rsqrt(xs, _):
    return 1.0 / np.sqrt(xs[0])


def _f_concat(xs, axis):
    return np.concatenate(xs, axis=axis)


def _f_slice(xs, extra):
    axis, start, stop = extra
    index = [slice(None)] * xs[0].ndim
    index[axis] = slice(start, stop)
    return np.ascontiguousarray(xs[0][tuple(index)])


def _f_sgd_step(xs, extra):
    # p - g * alpha, or p - r * g with rates r (the last parent); a
    # first-order step holds its detached g in `extra` instead of a parent
    alpha, fixed_g = extra
    g = xs[1] if fixed_g is None else fixed_g
    return xs[0] - g * alpha if alpha is not None else xs[0] - xs[-1] * g


def _f_cosine(xs, _):
    u, v = xs
    ru, rv = u.ravel(order="K"), v.ravel(order="K")  # np.linalg.norm's steps, unwrapped
    return np.array(float(u @ v) / (np.sqrt(ru.dot(ru)) * np.sqrt(rv.dot(rv))))


def _f_cosine_grad(xs, _):
    g, a, b, c = xs
    ra = 1.0 / np.sqrt(np.add.reduce(np.square(a), axis=None))
    rb = 1.0 / np.sqrt(np.add.reduce(np.square(b), axis=None))
    return g * (b * (ra * rb) - a * (c * np.square(ra)))


_FORWARD = {
    "add": _f_add,
    "sub": _f_sub,
    "elementwise-mul": _f_mul,
    "div": _f_div,
    "scalar-mul": _f_smul,
    "scalar-add": _f_sadd,
    "matmul": _f_matmul,
    "affine": _f_affine,
    "affine-tanh": _f_affine_tanh,
    "mse": _f_mse,
    "mse-grad": _f_mse_grad,
    "tanh-grad": _f_tanh_grad,
    "transpose": _f_transpose,
    "reshape": _f_reshape,
    "broadcast": _f_broadcast,
    "sum": _f_sum,
    "mean": _f_mean,
    "tanh": _f_tanh,
    "relu": _f_relu,
    "sin": _f_sin,
    "cos": _f_cos,
    "square": _f_square,
    "rsqrt": _f_rsqrt,
    "concat": _f_concat,
    "slice": _f_slice,
    "cosine-similarity": _f_cosine,
    "cosine-grad": _f_cosine_grad,
    "sgd-step": _f_sgd_step,
}


# ---------------------------------------------------------------------------
# ops API

def _record(op: str, vars_: tuple, extra=None) -> Var:
    """Record `op` on `vars_`, the one path for every non-terminal op.

    The value comes from _FORWARD; numpy's ValueError on operands it cannot
    combine becomes a ShapeError that names the op and the operand shapes."""
    # one- and two-operand ops are most of a tape: they build no list
    n = len(vars_)
    if n == 1:
        a = vars_[0]
        tape, arrays, parents = a.tape, (a.array,), (a.index,)
    elif n == 2:
        a, b = vars_
        tape = a.tape if b.tape is a.tape else _same_tape(op, vars_)
        arrays, parents = (a.array, b.array), (a.index, b.index)
    else:
        tape = _same_tape(op, vars_)
        arrays = [v.array for v in vars_]
        parents = tuple([v.index for v in vars_])
    try:
        arr = _FORWARD[op](arrays, extra)
    except ValueError as exc:
        shapes = ", ".join(str(v.shape) for v in vars_)
        raise ShapeError(f"op '{op}': shapes {shapes} do not broadcast or fit ({exc})") from None
    return tape._append(op, parents, arr, extra)


def add(a: Var, b: Var) -> Var:
    return _record("add", (a, b))


def add_n(vars_) -> Var:
    """Sum of the Vars, valued as the left fold ((v0 + v1) + v2) + ... of `add`.

    One `add` node for the whole sum; a single operand comes back unchanged.
    """
    vars_ = tuple(vars_)
    return vars_[0] if len(vars_) == 1 else _record("add", vars_)


def sub(a: Var, b: Var) -> Var:
    return _record("sub", (a, b))


def mul(a: Var, b: Var) -> Var:
    return _record("elementwise-mul", (a, b))


def div(a: Var, b: Var) -> Var:
    return _record("div", (a, b))


def smul(a: Var, c: float) -> Var:
    return _record("scalar-mul", (a,), float(c))


def sadd(a: Var, c: float) -> Var:
    return _record("scalar-add", (a,), float(c))


def matmul(a: Var, b: Var, ta: bool = False, tb: bool = False) -> Var:
    """a @ b over the last two axes, with `ta`/`tb` reading that operand's
    last two axes transposed; leading (task) axes broadcast.

    A transposed operand is copied contiguous first, so the value equals
    `matmul(transpose(a), b)` bit for bit.
    """
    if (a.array.ndim < 2 or b.array.ndim < 2
            or a.shape[-2 if ta else -1] != b.shape[-1 if tb else -2]):
        raise ShapeError(f"op 'matmul': incompatible shapes {a.shape} @ {b.shape}"
                         f" (ta={ta}, tb={tb})")
    return _record("matmul", (a, b), (bool(ta), bool(tb)))


def affine(h: Var, w: Var, b: Var) -> Var:
    """h @ w + b for an (..., n, i) batch, (..., i, o) weights and an (o,) or
    (..., 1, o) bias; leading (task) axes broadcast, so 2-D weights serve
    every task of a stack."""
    _check_affine("affine", h, w, b)
    return _record("affine", (h, w, b))


def affine_tanh(h: Var, w: Var, b: Var) -> Var:
    """tanh(h @ w + b), one tanh layer in one node: bitwise `tanh(affine(h, w, b))`."""
    _check_affine("affine-tanh", h, w, b)
    return _record("affine-tanh", (h, w, b))


def _check_affine(op: str, h: Var, w: Var, b: Var) -> None:
    if (h.array.ndim < 2 or w.array.ndim < 2 or h.shape[-1] != w.shape[-2]
            or b.shape[-1:] != w.shape[-1:] or (b.array.ndim > 1 and b.shape[-2] != 1)):
        raise ShapeError(f"op '{op}': incompatible shapes {h.shape} @ {w.shape} + {b.shape}")


def mse(pred: Var, y: Var) -> Var:
    """mean((pred - y)^2) over equal-shaped operands' last two axes: a
    scalar for 2-D operands; a stack of them, (..., k, m), has one loss
    per task, (..., 1, 1), which keeps the stack's rank."""
    if pred.shape != y.shape:
        raise ShapeError(f"op 'mse': shapes {pred.shape} and {y.shape} differ")
    return _record("mse", (pred, y))


def transpose(a: Var) -> Var:
    if a.array.ndim != 2:
        raise ShapeError(f"op 'transpose': expected 2-D, got shape {a.shape}")
    return _record("transpose", (a,))


def reshape(a: Var, shape) -> Var:
    return _record("reshape", (a,), tuple(shape))


def broadcast_to(a: Var, shape) -> Var:
    return _record("broadcast", (a,), tuple(shape))


def _norm_axis(op: str, axis, ndim: int):
    """`axis` (None, an int or a tuple) as non-negative axes of an ndim-D operand."""
    if axis is None:
        return None
    if type(axis) is int and -ndim <= axis < ndim:
        return (axis % ndim,)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if axes and (min(axes) < -ndim or max(axes) >= ndim):
        raise ShapeError(f"op '{op}': axis {axis} is out of range for a {ndim}-D operand")
    return tuple(ax % ndim for ax in axes)


def vsum(a: Var, axis=None, keepdims: bool = False) -> Var:
    return _record("sum", (a,), (_norm_axis("sum", axis, a.array.ndim), a.shape, bool(keepdims)))


def mean(a: Var, axis=None) -> Var:
    return _record("mean", (a,), (_norm_axis("mean", axis, a.array.ndim), a.shape))


def tanh(a: Var) -> Var:
    return _record("tanh", (a,))


def relu(a: Var) -> Var:
    return _record("relu", (a,))


def sin(a: Var) -> Var:
    return _record("sin", (a,))


def cos(a: Var) -> Var:
    return _record("cos", (a,))


def square(a: Var) -> Var:
    return _record("square", (a,))


def rsqrt(a: Var) -> Var:
    return _record("rsqrt", (a,))


def concat(vars_, axis: int = 0) -> Var:
    return _record("concat", tuple(vars_), axis)


def slice_axis(a: Var, axis: int, start: int, stop: int) -> Var:
    (axis,) = _norm_axis("slice", axis, a.array.ndim)
    if not 0 <= start <= stop <= a.shape[axis]:
        raise ShapeError(f"op 'slice': [{start}, {stop}) is not a range of axis {axis} of {a.shape}")
    return _record("slice", (a,), (axis, start, stop))


def cosine_similarity(u: Var, v: Var) -> Var:
    """cos(u, v) = <u,v> / (|u| |v|) for 1-D inputs; scalar output.

    Zero-norm inputs make the value undefined; callers guard (see
    relation.build_matrix).
    """
    if u.array.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"op 'cosine-similarity': expected equal 1-D shapes, got {u.shape}, {v.shape}")
    return _record("cosine-similarity", (u, v))


def detach(a: Var) -> Var:
    """Copy a value onto the tape as a constant, severing its gradient path."""
    return a.tape._append("const", (), a.array)


# ---------------------------------------------------------------------------
# VJP builders: each returns per-parent adjoints, written once against the op
# set `ops` it is handed: `_TapeOps`, whose results are differentiable tape
# nodes, or `_ArrayOps`, the same floats on bare ndarrays.  `need` holds one
# flag per parent; a builder returns None for a parent whose flag is false
# (single-parent ops are only reached when their parent is needed).

class _TapeOps:
    """The VJP builders' ops in `grad`'s recording walk: each records a node."""

    record, add, sub, mul, div, smul, matmul, transpose, reshape = map(
        staticmethod, (_record, add, sub, mul, div, smul, matmul, transpose, reshape))
    broadcast_to, vsum, sin, cos, square, rsqrt, concat, slice_axis = map(
        staticmethod, (broadcast_to, vsum, sin, cos, square, rsqrt, concat, slice_axis))
    value = staticmethod(lambda v: v.array)

    def __init__(self, tape: Tape):
        self.constant = tape.constant


class _ArrayOps:
    """The same ops on bare ndarrays: each applies its `_FORWARD` entry, looked
    up per call, and records nothing.  Used as is, never instantiated."""

    add, sub, mul, div, transpose, sin, cos, square, rsqrt = (
        staticmethod(lambda *xs, kind=kind: _FORWARD[kind](xs, None))
        for kind in ("add", "sub", "elementwise-mul", "div", "transpose", "sin", "cos", "square", "rsqrt"))
    record = staticmethod(lambda op, xs, extra=None: _FORWARD[op](xs, extra))
    smul = staticmethod(lambda a, c: _FORWARD["scalar-mul"]((a,), c))
    matmul = staticmethod(lambda a, b, ta=False, tb=False: _FORWARD["matmul"]((a, b), (ta, tb)))
    reshape = staticmethod(lambda a, shape: _FORWARD["reshape"]((a,), shape))
    broadcast_to = staticmethod(lambda a, shape: _FORWARD["broadcast"]((a,), shape))
    vsum = staticmethod(lambda a, axis=None: _FORWARD["sum"]((a,), (_norm_axis("sum", axis, a.ndim), a.shape, False)))
    concat = staticmethod(lambda xs, axis=0: _FORWARD["concat"](xs, axis))
    slice_axis = staticmethod(lambda a, axis, start, stop: _FORWARD["slice"]((a,), (axis, start, stop)))
    value = staticmethod(lambda v: v)
    constant = staticmethod(lambda values: np.asarray(values, dtype=np.float64))


def _unbroadcast(ops, g, shape: tuple):
    if g.shape == shape:
        return g
    extra = len(g.shape) - len(shape)
    axes = tuple(range(extra)) + tuple(
        i + extra for i, n in enumerate(shape) if n == 1 and g.shape[i + extra] != 1
    )
    # vsum, axes already normal; a same-rank adjoint keeps its axes: no reshape fixes its task count
    s = ops.record("sum", (g,), (axes, g.shape, not extra)) if axes else g
    if s.shape != shape:
        s = ops.reshape(s, shape)
    return s


def _v_add(ops, out, ins, g, _, need):
    return tuple(_unbroadcast(ops, g, v.shape) if wanted else None for v, wanted in zip(ins, need))


def _v_sub(ops, out, ins, g, _, need):
    a, b = ins
    return (_unbroadcast(ops, g, a.shape) if need[0] else None,
            _unbroadcast(ops, ops.smul(g, -1.0), b.shape) if need[1] else None)


def _v_mul(ops, out, ins, g, _, need):
    a, b = ins
    return (_unbroadcast(ops, ops.mul(g, b), a.shape) if need[0] else None,
            _unbroadcast(ops, ops.mul(g, a), b.shape) if need[1] else None)


def _v_div(ops, out, ins, g, _, need):
    a, b = ins
    ga = _unbroadcast(ops, ops.div(g, b), a.shape) if need[0] else None
    gb = _unbroadcast(ops, ops.smul(ops.mul(g, ops.div(out, b)), -1.0), b.shape) if need[1] else None
    return (ga, gb)


def _v_smul(ops, out, ins, g, c, need):
    return (ops.smul(g, c),)


def _v_sadd(ops, out, ins, g, c, need):
    return (g,)


def _v_matmul(ops, out, ins, g, extra, need):
    # out = A @ B with A = a.T if ta else a, B = b.T if tb else b; an operand
    # broadcast over leading axes sums its adjoint over them
    a, b = ins
    ta, tb = extra
    ga = gb = None
    if need[0]:
        ga = ops.matmul(b, g, ta=tb, tb=True) if ta else ops.matmul(g, b, tb=not tb)
        ga = _unbroadcast(ops, ga, a.shape)
    if need[1]:
        gb = ops.matmul(g, a, ta=True, tb=ta) if tb else ops.matmul(a, g, ta=not ta)
        gb = _unbroadcast(ops, gb, b.shape)
    return (ga, gb)


def _v_affine(ops, out, ins, g, _, need):
    h, w, b = ins
    # Recorded in the order of the add-then-matmul chain this op replaces;
    # on 2-D operands the bias adjoint is the one sum over the batch axis.
    gb = _unbroadcast(ops, g, b.shape) if need[2] else None
    gh = _unbroadcast(ops, ops.matmul(g, w, tb=True), h.shape) if need[0] else None
    gw = _unbroadcast(ops, ops.matmul(h, g, ta=True), w.shape) if need[1] else None
    return (gh, gw, gb)


def _v_affine_tanh(ops, out, ins, g, _, need):
    # the tanh step's tanh-grad node, then the affine VJP: the nodes, in the
    # order, that the tanh(affine) chain this op replaces recorded
    return _v_affine(ops, None, ins, ops.record("tanh-grad", (g, out)), None, need)


def _v_mse(ops, out, ins, g, _, need):
    p, y = ins
    gp = ops.record("mse-grad", (g, p, y), 1.0 / float(math.prod(p.shape[-2:])))
    return (gp if need[0] else None, ops.smul(gp, -1.0) if need[1] else None)


def _v_mse_grad(ops, out, ins, h, c, need):
    # out = (g * c) * ((p - y) * 2), g one adjoint per task; the adjoints
    # follow the steps of the mean(square(sub)) chain this op replaces, so
    # second order keeps its bits
    g, p, y = ins
    gg = gp = gy = None
    if need[0]:
        gg = _unbroadcast(ops, ops.smul(ops.mul(h, ops.smul(ops.sub(p, y), 2.0)), c), g.shape)
    if need[1] or need[2]:
        gp = ops.smul(ops.mul(h, ops.smul(g, c)), 2.0)
        gy = ops.smul(gp, -1.0) if need[2] else None
    return (gg, gp if need[1] else None, gy)


def _v_transpose(ops, out, ins, g, _, need):
    return (ops.transpose(g),)


def _v_reshape(ops, out, ins, g, _, need):
    return (ops.reshape(g, ins[0].shape),)


def _v_broadcast(ops, out, ins, g, _, need):
    return (_unbroadcast(ops, g, ins[0].shape),)


def _expand(ops, g, axis, in_shape):
    if axis is None:
        return ops.broadcast_to(ops.reshape(g, (1,) * len(in_shape)) if in_shape else g, in_shape)
    kept = tuple(1 if i in axis else n for i, n in enumerate(in_shape))
    return ops.broadcast_to(ops.reshape(g, kept), in_shape)


def _v_sum(ops, out, ins, g, extra, need):
    axis, in_shape, keepdims = extra
    return (ops.broadcast_to(g, in_shape) if keepdims else _expand(ops, g, axis, in_shape),)


def _v_mean(ops, out, ins, g, extra, need):
    axis, in_shape = extra
    return (ops.smul(_expand(ops, g, axis, in_shape), 1.0 / _count(axis, in_shape)),)


def _v_tanh(ops, out, ins, g, _, need):
    return (ops.record("tanh-grad", (g, out)),)


def _v_tanh_grad(ops, out, ins, h, _, need):
    # out = g - g * y^2 with y the tanh output
    g, y = ins
    gg = ops.record("tanh-grad", (h, y)) if need[0] else None
    gy = ops.mul(ops.mul(ops.smul(h, -1.0), g), ops.smul(y, 2.0)) if need[1] else None
    return (gg, gy)


def _v_relu(ops, out, ins, g, _, need):
    mask = ops.constant((ops.value(ins[0]) > 0.0).astype(np.float64))
    return (ops.mul(g, mask),)


def _v_sin(ops, out, ins, g, _, need):
    return (ops.mul(g, ops.cos(ins[0])),)


def _v_cos(ops, out, ins, g, _, need):
    return (ops.smul(ops.mul(g, ops.sin(ins[0])), -1.0),)


def _v_square(ops, out, ins, g, _, need):
    return (ops.mul(g, ops.smul(ins[0], 2.0)),)


def _v_rsqrt(ops, out, ins, g, _, need):
    return (ops.smul(ops.mul(g, ops.mul(out, ops.square(out))), -0.5),)


def _v_concat(ops, out, ins, g, axis, need):
    grads = []
    start = 0
    for v, wanted in zip(ins, need):
        stop = start + v.shape[axis]
        grads.append(ops.slice_axis(g, axis, start, stop) if wanted else None)
        start = stop
    return tuple(grads)


def _v_slice(ops, out, ins, g, extra, need):
    axis, start, stop = extra
    a = ins[0]
    pieces = []
    if start > 0:
        pieces.append(ops.constant(np.zeros(a.shape[:axis] + (start,) + a.shape[axis + 1:])))
    pieces.append(g)
    if stop < a.shape[axis]:
        pieces.append(ops.constant(np.zeros(a.shape[:axis] + (a.shape[axis] - stop,) + a.shape[axis + 1:])))
    return (ops.concat(pieces, axis=axis) if len(pieces) > 1 else g,)


def _v_sgd_step(ops, out, ins, h, extra, need):
    # the adjoints of the sub(p, smul(g, alpha)) and sub(p, mul(r, g)) chains
    # this op replaces, with (h * -1) * alpha recorded as h * -alpha (same
    # bits); rates shared by a stack of tasks sum their adjoint over it
    alpha, fixed_g = extra
    gp = h if need[0] else None
    if fixed_g is not None:  # first order: p, and r with rates
        if alpha is not None:
            return (gp,)
        return (gp, _unbroadcast(ops, ops.mul(ops.smul(h, -1.0), ops.constant(fixed_g)), ins[1].shape)
                if need[1] else None)
    if alpha is not None:
        return (gp, ops.smul(h, -alpha) if need[1] else None)
    if not (need[1] or need[2]):
        return (gp, None, None)
    neg = ops.smul(h, -1.0)
    gr = _unbroadcast(ops, ops.mul(neg, ins[1]), ins[2].shape) if need[2] else None
    return (gp, ops.mul(neg, ins[2]) if need[1] else None, gr)


def _v_cosine(ops, out, ins, g, _, need):
    # d cos / du = v/(|u||v|) - cos * u/|u|^2, times g: one cosine-grad node
    u, v = ins
    return (ops.record("cosine-grad", (g, u, v, out)) if need[0] else None,
            ops.record("cosine-grad", (g, v, u, out)) if need[1] else None)


def _v_cosine_grad(ops, out, ins, h, _, need):
    # out = g (b p - a q) with p = ra rb, q = c ra^2, ra = |a|^-1, rb = |b|^-1;
    # with sa = <h, a>, sb = <h, b>:  <h, out> = g (sb p - sa q)
    g, a, b, c = ins
    ra, rb = ops.rsqrt(ops.vsum(ops.square(a))), ops.rsqrt(ops.vsum(ops.square(b)))
    ra2, rb2 = ops.square(ra), ops.square(rb)
    sa, sb = ops.vsum(ops.mul(h, a)), ops.vsum(ops.mul(h, b))
    p, q = ops.mul(ra, rb), ops.mul(c, ra2)
    gp, gq = ops.mul(g, p), ops.mul(g, q)
    gg = ops.sub(ops.mul(sb, p), ops.mul(sa, q))
    # through ra (d ra / da = -ra^3 a) and rb (d rb / db = -rb^3 b)
    ka = ops.mul(ra2, ops.sub(ops.mul(sb, gp), ops.smul(ops.mul(sa, gq), 2.0)))
    ga = ops.smul(ops.add(ops.mul(h, gq), ops.mul(a, ka)), -1.0)
    gb = ops.sub(ops.mul(h, gp), ops.mul(b, ops.mul(sb, ops.mul(gp, rb2))))
    gc = ops.smul(ops.mul(g, ops.mul(sa, ra2)), -1.0)
    return tuple(x if wanted else None for x, wanted in zip((gg, ga, gb, gc), need))


_VJP = {
    "add": _v_add,
    "sub": _v_sub,
    "elementwise-mul": _v_mul,
    "div": _v_div,
    "scalar-mul": _v_smul,
    "scalar-add": _v_sadd,
    "matmul": _v_matmul,
    "affine": _v_affine,
    "affine-tanh": _v_affine_tanh,
    "mse": _v_mse,
    "mse-grad": _v_mse_grad,
    "tanh-grad": _v_tanh_grad,
    "transpose": _v_transpose,
    "reshape": _v_reshape,
    "broadcast": _v_broadcast,
    "sum": _v_sum,
    "mean": _v_mean,
    "tanh": _v_tanh,
    "relu": _v_relu,
    "sin": _v_sin,
    "cos": _v_cos,
    "square": _v_square,
    "rsqrt": _v_rsqrt,
    "concat": _v_concat,
    "slice": _v_slice,
    "cosine-similarity": _v_cosine,
    "cosine-grad": _v_cosine_grad,
    "sgd-step": _v_sgd_step,
}


# ---------------------------------------------------------------------------
# backward engine

def _walk(output: Var, wanted: list, record: bool = True) -> dict:
    """Reverse walk from `output`; the adjoint Var of every index in `wanted`.

    The walk stops at wanted nodes as well as at leaves and constants.  It
    builds an adjoint toward a parent only when the parent's leaf mask
    meets the union of the wanted nodes' masks and holds every bit they all
    share, as a node that depends on a wanted node does; when a wanted node
    depends on no leaf, every adjoint is built.  It visits only the indices
    that hold an adjoint, in strict descending order, so contributions arrive
    in a deterministic order independent of graph construction details.
    Each contribution to a node that already holds one is added to it on
    arrival, one binary `add`: the left fold ((c0 + c1) + c2) + ... of an
    n-ary `add`, so the walk holds one adjoint per node it has reached, not
    every contribution.  Wanted nodes the walk never reaches get recorded
    zero constants, marked so downstream consumers can tell them from
    detached values.

    With `record` false it runs on bare ndarrays (`_ArrayOps`): the same
    floats, no Var and no node, and it returns the bare adjoints of the
    reached wanted nodes only.
    """
    tape = output.tape
    nodes = tape.nodes
    ops = _TapeOps(tape) if record else _ArrayOps
    # np.array(1.0) is np.ones(()) at a fifth of the cost
    seed = np.ones(output.shape) if output.shape else np.array(1.0)
    if record:
        seed = tape._append("const", (), seed, _SEED)
    wanted_set = set(wanted)
    need, common = 0, -1  # the union and the intersection of the wanted masks
    for idx in wanted_set:
        mask = nodes[idx].mask
        if not mask:
            need = None
            break
        need |= mask
        common &= mask
    if need is None or not wanted_set:
        common = 0
    found: dict[int, Var] = {}
    # index -> the sum of its adjoint contributions so far; `pending` is a
    # max-heap (negated indices) of the keys, popped in descending order
    adjoint: dict = {}
    pending: list[int] = []
    out_mask = nodes[output.index].mask
    if need is None or (out_mask & common == common if common else out_mask & need):
        adjoint[output.index] = seed
        pending.append(-output.index)
    while pending:
        idx = -heappop(pending)
        g = adjoint.pop(idx)
        if idx in wanted_set:
            found[idx] = g
            continue
        node = nodes[idx]
        if node.op in _TERMINAL:
            continue
        parents = node.parents
        if need is None:
            flags = (True,) * len(parents)
        elif common:
            flags = [nodes[p].mask & common == common for p in parents]
        else:
            flags = [nodes[p].mask & need for p in parents]
        if record:
            out, ins = Var(tape, idx, node.array), [Var(tape, p, nodes[p].array) for p in parents]
        else:
            out, ins = node.array, [nodes[p].array for p in parents]
        for parent, gp in zip(parents, _VJP[node.op](ops, out, ins, g, node.extra, flags)):
            if gp is None:
                continue
            cur = adjoint.get(parent)
            if cur is None:
                adjoint[parent] = gp
                heappush(pending, -parent)
            else:
                adjoint[parent] = ops.add(cur, gp)
    if record:
        for idx in dict.fromkeys(wanted):  # in order, a repeated index once
            if idx not in found:
                found[idx] = _zero_grad(tape, idx)
    return found


def _zero_grad(tape: Tape, idx: int) -> Var:
    """A recorded zero adjoint for node `idx`, marked as unreached."""
    return tape._append("const", (), np.zeros(tape.nodes[idx].array.shape), _ZERO_GRAD)


def backward(output: Var) -> dict[int, Var]:
    """Gradient of `output` w.r.t. every leaf of its tape, keyed by leaf index.

    The walk starts from ones (use a scalar output) and runs on bare ndarrays:
    the tape gains one constant per leaf, its adjoint or a marked zero for a
    leaf the sweep never reaches.  Use :func:`grad` to differentiate further.
    """
    tape = output.tape
    adjoints = _walk(output, tape.leaves, record=False)
    for idx in tape.leaves:
        adjoints[idx] = tape.constant(adjoints[idx]) if idx in adjoints else _zero_grad(tape, idx)
    return adjoints


def grad(output: Var, wrt, record: bool = True) -> list:
    """Differentiable gradients of `output` w.r.t. the given Vars.

    The returned Vars are recorded on the same tape, so they support
    further composition (inner-update paths).  Unreached entries come back
    as recorded zero constants.  With `record` false the walk runs on bare
    ndarrays, as :func:`backward`'s does, and the gradients come back as
    ndarrays, zeros where unreached: the tape gains no node.
    """
    wrt = list(wrt)
    adjoints = _walk(output, [v.index for v in wrt], record)
    if record:
        return [adjoints[v.index] for v in wrt]
    return [np.asarray(adjoints[v.index]) if v.index in adjoints else np.zeros(v.shape) for v in wrt]


def is_detached(v: Var) -> bool:
    """True when `v` carries no gradient path (leaf or constant node)."""
    node = v.tape.nodes[v.index]
    return node.op in _TERMINAL and node.extra != _ZERO_GRAD


def check_replayable(tape: Tape, inputs) -> None:
    """Raise AutodiffError unless replaying `tape` with new values at the
    `inputs` indices recomputes every value that depends on them.

    A replay reruns each node's op on its parents' replayed values, so the
    rest of the graph must not hold values computed at recording time: no
    `relu` node (its VJP records the sign mask as a constant), no
    first-order `sgd-step` (it holds its gradient's value), and every other
    constant is a walk's seed or a marked zero gradient.
    """
    inputs = set(inputs)
    for idx, node in enumerate(tape.nodes):
        if (node.op == "relu" or (node.op == "sgd-step" and node.extra[1] is not None)
                or (node.op == "const" and idx not in inputs and node.extra not in (_SEED, _ZERO_GRAD))):
            raise AutodiffError(f"node {idx} ({node.op}) holds a recorded value a replay cannot recompute")


#: ops whose value fixes its operands' shapes, or mixes their entries across
#: the leading axis: on a stack, a batched replay cannot compute them
_UNSTACKABLE = frozenset(("reshape", "broadcast", "concat", "slice", "transpose",
                          "cosine-similarity", "cosine-grad"))


def _stack_error(node: Node, nodes: list, stacked: set):
    """Why a batched replay cannot compute `node`, whose stacked parents are
    in `stacked`, for a stack of tasks; None when it can."""
    op, shape = node.op, node.array.shape
    if op in _UNSTACKABLE:
        return "fixes its operands' shapes"
    if op in ("sum", "mean") and (node.extra[0] is None or 0 in node.extra[0]):
        return "reduces over the task axis"
    if not shape or shape[0] != 1:
        return "has no leading task axis of length 1"
    if op in ("matmul", "affine", "affine-tanh") and len(shape) < 3:
        return "multiplies over the task axis"
    # a stacked operand of another rank would broadcast its task axis onto
    # another axis; reductions keep it first, and a per-task value (an
    # mse's, its adjoint's) keeps the stack's rank
    ranks = {nodes[p].array.ndim for p in node.parents if p in stacked}
    if op not in ("sum", "mean") and ranks - {len(shape)}:
        return "broadcasts a stacked operand's task axis onto another axis"


class BatchedReplay:
    """A tape recorded for a stack of one task, replayed on a stack of T.

    `inputs` are leaf or constant indices, and a call hands each one its
    node's value for T tasks, (T, ...) for (1, ...).  Every node that
    depends on an input and that an output reads is computed once for the
    stack by its `_FORWARD` entry and recorded `extra`; no op mixes tasks,
    so each task's slice holds the bits of the graph recorded afresh on
    that task's data.  Of the recorded values, the plan keeps only those of
    the nodes the steps read and do not compute, and the inputs', for their
    shapes.
    A node that would mix tasks or fix their count (see `_stack_error`) is
    rejected here.
    Each stacked value is dropped after its last reader, so a call keeps
    alive only the values still to be read and the stacks at `outputs`,
    which it returns; every output must depend on an input.

    `width` is the largest per-task size of a stacked node, in floats: a
    stack of T tasks holds at most T·width floats in one value.
    """

    __slots__ = ("inputs", "outputs", "values", "steps", "width")

    def __init__(self, tape: Tape, inputs, outputs):
        nodes = tape.nodes
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        for idx in self.inputs:
            if not 0 <= idx < len(nodes) or nodes[idx].op not in _TERMINAL:
                raise AutodiffError(f"replay: node {idx} is not a leaf or constant of the tape")
        check_replayable(tape, self.inputs)
        read = set(self.outputs)  # the nodes an output reads, directly or not
        for idx in range(max(self.outputs, default=-1), -1, -1):
            if idx in read:
                read.update(nodes[idx].parents)
        stacked = set(self.inputs)
        steps, last = [], {}
        for idx, node in enumerate(nodes):
            if idx not in read or not any(p in stacked for p in node.parents):
                continue
            if error := _stack_error(node, nodes, stacked):
                raise AutodiffError(f"node {idx} ({node.op}) {error}: a batched replay cannot stack it")
            stacked.add(idx)
            for p in node.parents:
                last[p] = len(steps)
            steps.append((idx, _FORWARD[node.op], node.extra, node.parents, []))
        for idx in self.outputs:
            if idx not in stacked:
                raise AutodiffError(f"replay: output node {idx} depends on no input")
        for p, step in last.items():
            if p in stacked and p not in self.outputs:
                steps[step][4].append(p)
        # the recorded values a step reads, and the inputs' for their shapes
        kept = {p for _, _, _, parents, _ in steps for p in parents if p not in stacked}.union(self.inputs)
        self.values = [node.array if idx in kept else None for idx, node in enumerate(nodes)]
        self.steps = steps
        self.width = max(nodes[idx].array.size for idx in stacked)

    def __call__(self, stacks) -> list[np.ndarray]:
        if len(stacks) != len(self.inputs):
            raise AutodiffError(f"replay: {len(self.inputs)} input stacks expected, got {len(stacks)}")
        values = list(self.values)
        tasks = None
        for idx, stack in zip(self.inputs, stacks):
            shape = values[idx].shape
            stack = np.asarray(stack, dtype=np.float64)
            if tasks is None:
                tasks = stack.shape[0] if stack.ndim else -1
            if stack.shape != (tasks,) + shape[1:]:
                raise ShapeError(f"replay: node {idx} holds shape {shape}, got a stack of {stack.shape}")
            values[idx] = stack
        for idx, fn, extra, parents, dead in self.steps:
            values[idx] = fn([values[p] for p in parents], extra)
            for p in dead:
                values[p] = None
        return [values[idx] for idx in self.outputs]


def grad_through_update(params, inner_grads, alpha=0.01, first_order=False, rates=None):
    """Apply ``p <- p - a * g`` for each param and its inner gradient ``g``.

    Each update is one `sgd-step` node.  In second-order mode (default) the
    gradients must themselves be tape nodes so a later backward pass flows
    through them; passing detached gradients (or bare arrays) raises instead
    of silently degrading to first order.  With ``first_order=True`` only
    the gradients' values enter the update: ndarrays, as
    ``grad(..., record=False)`` returns them, or Vars.

    ``rates`` (elementwise learning-rate Vars, one per param) replaces the
    scalar ``alpha`` when given.
    """
    params = list(params)
    inner_grads = list(inner_grads)
    if len(inner_grads) != len(params):
        raise AutodiffError("grad_through_update: params and inner_grads lengths differ")
    if not first_order:
        for g in inner_grads:
            if not isinstance(g, Var) or is_detached(g):
                raise DetachedGradientError(
                    "grad_through_update: detached inner gradient in second-order mode; "
                    "pass first_order=True to request the first-order approximation explicitly"
                )
    if rates is None:
        return [_sgd_step(p, g, None, float(alpha), first_order) for p, g in zip(params, inner_grads)]
    if len(rates) != len(params):
        raise AutodiffError("grad_through_update: params and rates lengths differ")
    return [_sgd_step(p, g, r, None, first_order) for p, g, r in zip(params, inner_grads, rates)]


def _sgd_step(p: Var, g, r, alpha, first_order: bool) -> Var:
    """One `sgd-step` node: p - g * alpha, or p - r * g with a rate Var r.

    Second order makes the Var g a parent.  First order keeps g's value (g
    itself when it is an ndarray) in the node instead, so the node carries
    p's leaf mask (and r's) only.
    """
    if first_order:
        parents, fixed_g = (p,), g.array if isinstance(g, Var) else g
    else:
        parents, fixed_g = (p, g), None
    if r is not None:
        parents += (r,)
    return _record("sgd-step", parents, (alpha, fixed_g))
