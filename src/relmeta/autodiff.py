"""Reverse-mode automatic differentiation on a single append-only tape.

Values are dense float64 tensors.  Every primitive operation appends one
node to a :class:`Tape`; a node only references lower-indexed nodes, so a
plain reverse walk implements backpropagation.

The distinguishing feature is that the backward pass itself is *recorded*:
each op's vector-Jacobian product is built out of the same primitives, so
the gradients returned by :func:`grad` are ordinary tape variables.  An
update of the form ``p - a * grad(loss, p)`` therefore stays inside the
graph, and a later backward pass differentiates straight through it.  That
is exactly what one recorded inner gradient-descent step of the bi-level
training loop needs (see :mod:`relmeta.metalearn`).

A tape is single-owner: record and differentiate from one execution
context.  Independent tapes are cheap; the training loop makes a fresh one
per meta-batch.
"""

from __future__ import annotations

import numpy as np


class AutodiffError(Exception):
    """Base class for tape errors."""


class ShapeError(AutodiffError):
    """Operands have shapes the op cannot accept."""


class NonFiniteError(AutodiffError):
    """A NaN or Inf appeared while checked mode was on."""


class DetachedGradientError(AutodiffError):
    """A second-order path was requested through a detached gradient."""


class Tensor:
    """Dense float64 array with shape metadata; row-major storage.

    Construction copies and, in checked mode, rejects NaN/Inf.
    """

    __slots__ = ("array",)

    def __init__(self, values, checked: bool = False):
        arr = np.array(values, dtype=np.float64, order="C")
        if checked and not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor contains NaN or Inf")
        self.array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = object.__new__(cls)
        t.array = arr
        return t

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, data={self.data.tolist()})"


class Node:
    __slots__ = ("op", "parents", "array", "extra")

    def __init__(self, op, parents, array, extra):
        self.op = op
        self.parents = parents
        self.array = array
        self.extra = extra


class Var:
    """Handle to one tape node: (tape, index, forward value)."""

    __slots__ = ("tape", "index", "array")

    def __init__(self, tape: "Tape", index: int, array: np.ndarray):
        self.tape = tape
        self.index = index
        self.array = array

    @property
    def value(self) -> Tensor:
        return Tensor._wrap(self.array)

    @property
    def shape(self) -> tuple:
        return self.array.shape

    def item(self) -> float:
        return float(self.array)

    # Operator sugar; scalars route to the scalar ops.
    def __add__(self, other):
        return sadd(self, other) if isinstance(other, (int, float)) else add(self, other)

    def __sub__(self, other):
        return sadd(self, -other) if isinstance(other, (int, float)) else sub(self, other)

    def __mul__(self, other):
        return smul(self, other) if isinstance(other, (int, float)) else mul(self, other)

    def __rmul__(self, other):
        return smul(self, other)

    def __truediv__(self, other):
        return smul(self, 1.0 / other) if isinstance(other, (int, float)) else div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return smul(self, -1.0)

    def __repr__(self):
        return f"Var(index={self.index}, shape={self.shape})"


#: op kinds whose nodes terminate backpropagation
_TERMINAL = ("leaf", "const")

#: marker stored in `extra` for the zero gradients of unreached inputs
_ZERO_GRAD = "zero-grad"


class Tape:
    """Append-only record of primitive operations.

    ``checked=True`` validates every recorded value for NaN/Inf; tests run
    checked, benchmarks do not.
    """

    def __init__(self, checked: bool = False):
        self.nodes: list[Node] = []
        self.checked = checked

    def __len__(self) -> int:
        return len(self.nodes)

    def _append(self, op, parents, array, extra=None) -> Var:
        if self.checked and not np.all(np.isfinite(array)):
            raise NonFiniteError(f"op '{op}' produced a non-finite value")
        idx = len(self.nodes)
        self.nodes.append(Node(op, parents, array, extra))
        return Var(self, idx, array)

    def leaf(self, values) -> Var:
        """A differentiation root; backward() reports gradients for these."""
        arr = values.array if isinstance(values, Tensor) else np.array(values, dtype=np.float64)
        if self.checked and not np.all(np.isfinite(arr)):
            raise NonFiniteError("leaf value contains NaN or Inf")
        return self._append("leaf", (), arr)

    def constant(self, values) -> Var:
        """Like a leaf but excluded from gradient reports (data, masks)."""
        arr = values.array if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
        return self._append("const", (), arr)

    def var(self, index: int) -> Var:
        node = self.nodes[index]
        return Var(self, index, node.array)

    def leaf_indices(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.op == "leaf"]

    def replay(self) -> list[np.ndarray]:
        """Recompute every node value from the leaves, in index order.

        Replaying is bitwise-deterministic: the same primitive sequence on
        the same leaf values reproduces the recorded arrays exactly.
        """
        values: list[np.ndarray] = []
        for node in self.nodes:
            if node.op in _TERMINAL:
                values.append(node.array)
            else:
                fwd = _FORWARD[node.op]
                values.append(fwd([values[p] for p in node.parents], node.extra))
        return values


def _same_tape(op: str, vars_: tuple) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise AutodiffError(f"op '{op}': operands live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# forward implementations (shared by record-time eval and tape replay)

def _f_add(xs, _):
    return xs[0] + xs[1]


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


def _f_matmul(xs, _):
    return xs[0] @ xs[1]


def _f_transpose(xs, _):
    return np.ascontiguousarray(xs[0].T)


def _f_reshape(xs, shape):
    return np.ascontiguousarray(xs[0].reshape(shape))


def _f_broadcast(xs, shape):
    return np.ascontiguousarray(np.broadcast_to(xs[0], shape))


def _f_sum(xs, extra):
    axis, _ = extra
    return np.sum(xs[0], axis=axis)


def _f_mean(xs, extra):
    axis, _ = extra
    return np.mean(xs[0], axis=axis)


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


def _f_cosine(xs, _):
    u, v = xs
    return np.array(float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))


_FORWARD = {
    "add": _f_add,
    "sub": _f_sub,
    "elementwise-mul": _f_mul,
    "div": _f_div,
    "scalar-mul": _f_smul,
    "scalar-add": _f_sadd,
    "matmul": _f_matmul,
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
}


# ---------------------------------------------------------------------------
# ops API

def _binary(op: str, a: Var, b: Var) -> Var:
    """Record a broadcasting elementwise op; its value comes from _FORWARD."""
    try:
        arr = _FORWARD[op]((a.array, b.array), None)
    except ValueError:
        raise ShapeError(f"op '{op}': shapes {a.shape} and {b.shape} do not broadcast") from None
    tape = _same_tape(op, (a, b))
    return tape._append(op, (a.index, b.index), arr)


def add(a: Var, b: Var) -> Var:
    return _binary("add", a, b)


def sub(a: Var, b: Var) -> Var:
    return _binary("sub", a, b)


def mul(a: Var, b: Var) -> Var:
    return _binary("elementwise-mul", a, b)


def div(a: Var, b: Var) -> Var:
    return _binary("div", a, b)


def smul(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape._append("scalar-mul", (a.index,), a.array * c, c)


def sadd(a: Var, c: float) -> Var:
    c = float(c)
    return a.tape._append("scalar-add", (a.index,), a.array + c, c)


def matmul(a: Var, b: Var) -> Var:
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"op 'matmul': incompatible shapes {a.shape} @ {b.shape} (2-D only)")
    tape = _same_tape("matmul", (a, b))
    return tape._append("matmul", (a.index, b.index), a.array @ b.array)


def transpose(a: Var) -> Var:
    if a.array.ndim != 2:
        raise ShapeError(f"op 'transpose': expected 2-D, got shape {a.shape}")
    return a.tape._append("transpose", (a.index,), np.ascontiguousarray(a.array.T))


def reshape(a: Var, shape) -> Var:
    shape = tuple(shape)
    return a.tape._append("reshape", (a.index,), np.ascontiguousarray(a.array.reshape(shape)), shape)


def broadcast_to(a: Var, shape) -> Var:
    shape = tuple(shape)
    try:
        arr = np.broadcast_to(a.array, shape)
    except ValueError:
        raise ShapeError(f"op 'broadcast': cannot broadcast {a.shape} to {shape}") from None
    return a.tape._append("broadcast", (a.index,), np.ascontiguousarray(arr), shape)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def vsum(a: Var, axis=None) -> Var:
    axis = _norm_axis(axis, a.array.ndim)
    extra = (axis, a.shape)
    return a.tape._append("sum", (a.index,), np.sum(a.array, axis=axis), extra)


def mean(a: Var, axis=None) -> Var:
    axis = _norm_axis(axis, a.array.ndim)
    extra = (axis, a.shape)
    return a.tape._append("mean", (a.index,), np.mean(a.array, axis=axis), extra)


def tanh(a: Var) -> Var:
    return a.tape._append("tanh", (a.index,), np.tanh(a.array))


def relu(a: Var) -> Var:
    return a.tape._append("relu", (a.index,), np.maximum(a.array, 0.0))


def sin(a: Var) -> Var:
    return a.tape._append("sin", (a.index,), np.sin(a.array))


def cos(a: Var) -> Var:
    return a.tape._append("cos", (a.index,), np.cos(a.array))


def square(a: Var) -> Var:
    return a.tape._append("square", (a.index,), np.square(a.array))


def rsqrt(a: Var) -> Var:
    return a.tape._append("rsqrt", (a.index,), 1.0 / np.sqrt(a.array))


def concat(vars_, axis: int = 0) -> Var:
    vars_ = tuple(vars_)
    if not vars_:
        raise ShapeError("op 'concat': needs at least one input")
    tape = _same_tape("concat", vars_)
    try:
        arr = np.concatenate([v.array for v in vars_], axis=axis)
    except ValueError:
        shapes = [v.shape for v in vars_]
        raise ShapeError(f"op 'concat': incompatible shapes {shapes} along axis {axis}") from None
    return tape._append("concat", tuple(v.index for v in vars_), arr, axis)


def slice_axis(a: Var, axis: int, start: int, stop: int) -> Var:
    extra = (axis, start, stop)
    return a.tape._append("slice", (a.index,), _f_slice([a.array], extra), extra)


def cosine_similarity(u: Var, v: Var) -> Var:
    """cos(u, v) = <u,v> / (|u| |v|) for 1-D inputs; scalar output.

    Zero-norm inputs make the value undefined; callers guard (see
    relation.compute_relation).
    """
    if u.array.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"op 'cosine-similarity': expected equal 1-D shapes, got {u.shape}, {v.shape}")
    tape = _same_tape("cosine-similarity", (u, v))
    return tape._append("cosine-similarity", (u.index, v.index), _f_cosine([u.array, v.array], None))


def detach(a: Var) -> Var:
    """Copy a value onto the tape as a constant, severing its gradient path."""
    return a.tape._append("const", (), a.array)


# ---------------------------------------------------------------------------
# VJP builders: each returns per-parent adjoints, built from the ops above so
# that gradients are themselves differentiable tape nodes.

def _unbroadcast(g: Var, shape: tuple) -> Var:
    if g.shape == shape:
        return g
    extra = g.array.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        i + extra for i, n in enumerate(shape) if n == 1 and g.shape[i + extra] != 1
    )
    s = vsum(g, axis=axes) if axes else g
    if s.shape != shape:
        s = reshape(s, shape)
    return s


def _v_add(out, ins, g, _):
    a, b = ins
    return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))


def _v_sub(out, ins, g, _):
    a, b = ins
    return (_unbroadcast(g, a.shape), _unbroadcast(smul(g, -1.0), b.shape))


def _v_mul(out, ins, g, _):
    a, b = ins
    return (_unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape))


def _v_div(out, ins, g, _):
    a, b = ins
    ga = _unbroadcast(div(g, b), a.shape)
    gb = _unbroadcast(smul(mul(g, div(out, b)), -1.0), b.shape)
    return (ga, gb)


def _v_smul(out, ins, g, c):
    return (smul(g, c),)


def _v_sadd(out, ins, g, c):
    return (g,)


def _v_matmul(out, ins, g, _):
    a, b = ins
    return (matmul(g, transpose(b)), matmul(transpose(a), g))


def _v_transpose(out, ins, g, _):
    return (transpose(g),)


def _v_reshape(out, ins, g, _):
    return (reshape(g, ins[0].shape),)


def _v_broadcast(out, ins, g, _):
    return (_unbroadcast(g, ins[0].shape),)


def _expand(g: Var, axis, in_shape) -> Var:
    if axis is None:
        return broadcast_to(reshape(g, (1,) * len(in_shape)) if in_shape else g, in_shape)
    kept = tuple(1 if i in axis else n for i, n in enumerate(in_shape))
    return broadcast_to(reshape(g, kept), in_shape)


def _v_sum(out, ins, g, extra):
    axis, in_shape = extra
    return (_expand(g, axis, in_shape),)


def _v_mean(out, ins, g, extra):
    axis, in_shape = extra
    total = np.prod(in_shape) if axis is None else np.prod([in_shape[i] for i in axis])
    return (smul(_expand(g, axis, in_shape), 1.0 / float(total)),)


def _v_tanh(out, ins, g, _):
    return (sub(g, mul(g, square(out))),)


def _v_relu(out, ins, g, _):
    mask = out.tape.constant((ins[0].array > 0.0).astype(np.float64))
    return (mul(g, mask),)


def _v_sin(out, ins, g, _):
    return (mul(g, cos(ins[0])),)


def _v_cos(out, ins, g, _):
    return (smul(mul(g, sin(ins[0])), -1.0),)


def _v_square(out, ins, g, _):
    return (mul(g, smul(ins[0], 2.0)),)


def _v_rsqrt(out, ins, g, _):
    return (smul(mul(g, mul(out, square(out))), -0.5),)


def _v_concat(out, ins, g, axis):
    grads = []
    start = 0
    for v in ins:
        stop = start + v.shape[axis]
        grads.append(slice_axis(g, axis, start, stop))
        start = stop
    return tuple(grads)


def _v_slice(out, ins, g, extra):
    axis, start, stop = extra
    a = ins[0]
    pieces = []
    if start > 0:
        pieces.append(g.tape.constant(np.zeros(a.shape[:axis] + (start,) + a.shape[axis + 1:])))
    pieces.append(g)
    if stop < a.shape[axis]:
        pieces.append(g.tape.constant(np.zeros(a.shape[:axis] + (a.shape[axis] - stop,) + a.shape[axis + 1:])))
    return (concat(pieces, axis=axis) if len(pieces) > 1 else g,)


def _v_cosine(out, ins, g, _):
    u, v = ins
    ru = rsqrt(vsum(square(u)))
    rv = rsqrt(vsum(square(v)))
    # d cos / du = v/(|u||v|) - cos * u/|u|^2
    gu = sub(mul(v, mul(ru, rv)), mul(u, mul(out, square(ru))))
    gv = sub(mul(u, mul(ru, rv)), mul(v, mul(out, square(rv))))
    return (mul(g, gu), mul(g, gv))


_VJP = {
    "add": _v_add,
    "sub": _v_sub,
    "elementwise-mul": _v_mul,
    "div": _v_div,
    "scalar-mul": _v_smul,
    "scalar-add": _v_sadd,
    "matmul": _v_matmul,
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
}


# ---------------------------------------------------------------------------
# backward engine

def _seed_var(output: Var, seed) -> Var:
    if seed is None:
        return output.tape.constant(np.ones(output.shape))
    arr = seed.array if isinstance(seed, (Tensor, Var)) else np.asarray(seed, dtype=np.float64)
    if arr.shape != output.shape:
        raise ShapeError(f"backward: seed shape {arr.shape} does not match output shape {output.shape}")
    return output.tape.constant(arr)


def _backprop(output: Var, seed_var: Var, wanted: dict, stop_at_wanted: bool) -> None:
    """Reverse walk from `output`; fills `wanted[index] = adjoint Var`.

    Adjoints accumulate in strict descending-index order, so the summation
    order is deterministic and independent of graph construction details.
    """
    nodes = output.tape.nodes
    adjoint: dict[int, Var] = {output.index: seed_var}
    for idx in range(output.index, -1, -1):
        g = adjoint.pop(idx, None)
        if g is None:
            continue
        if idx in wanted:
            wanted[idx] = g
            if stop_at_wanted:
                continue
        node = nodes[idx]
        if node.op in _TERMINAL:
            continue
        builder = _VJP.get(node.op)
        if builder is None:
            raise AutodiffError(f"op '{node.op}' has no registered VJP")
        out_var = Var(output.tape, idx, node.array)
        ins = tuple(output.tape.var(p) for p in node.parents)
        for parent, gp in zip(node.parents, builder(out_var, ins, g, node.extra)):
            if gp is None:
                continue
            cur = adjoint.get(parent)
            adjoint[parent] = gp if cur is None else add(cur, gp)


def backward(output: Var, seed=None) -> dict[int, Tensor]:
    """Gradient of `output` w.r.t. every leaf of its tape.

    `seed` defaults to ones (use a scalar output).  Leaves the backward
    sweep never reaches map to zero tensors.
    """
    seed_var = _seed_var(output, seed)
    wanted = {i: None for i in output.tape.leaf_indices()}
    _backprop(output, seed_var, wanted, stop_at_wanted=False)
    out = {}
    for idx, g in wanted.items():
        if g is None:
            out[idx] = Tensor(np.zeros(output.tape.nodes[idx].array.shape))
        else:
            out[idx] = g.value
    return out


def grad(output: Var, wrt, seed=None) -> list[Var]:
    """Differentiable gradients of `output` w.r.t. the given Vars.

    The returned Vars are recorded on the same tape, so they support
    further composition (inner-update paths).  Unreached entries come back
    as recorded zero constants, marked so downstream consumers can tell
    them from genuinely detached values.
    """
    wrt = list(wrt)
    seed_var = _seed_var(output, seed)
    wanted = {v.index: None for v in wrt}
    _backprop(output, seed_var, wanted, stop_at_wanted=True)
    tape = output.tape
    results = []
    for v in wrt:
        g = wanted[v.index]
        if g is None:
            g = tape._append("const", (), np.zeros(v.shape), _ZERO_GRAD)
        results.append(g)
    return results


def is_detached(v: Var) -> bool:
    """True when `v` carries no gradient path (leaf or constant node)."""
    node = v.tape.nodes[v.index]
    return node.op in _TERMINAL and node.extra != _ZERO_GRAD


def grad_through_update(loss_fn, params, inner_grads=None, alpha=0.01, first_order=False, rates=None):
    """Apply ``p <- p - a * dL/dp`` with the subtraction recorded.

    In second-order mode (default) the gradients must themselves be tape
    nodes so a later backward pass flows through them; passing detached
    gradients raises instead of silently degrading to first order.  With
    ``first_order=True`` the gradients are detached before the update.

    ``rates`` (elementwise learning-rate Vars, one per param) replaces the
    scalar ``alpha`` when given.  When ``inner_grads`` is None they are
    computed as grad(loss_fn(params), params).
    """
    params = list(params)
    if inner_grads is None:
        loss = loss_fn(params)
        if loss.array.ndim != 0 and loss.shape != (1,):
            raise ShapeError(f"grad_through_update: loss must be scalar, got shape {loss.shape}")
        inner_grads = grad(loss, params)
    inner_grads = list(inner_grads)
    if len(inner_grads) != len(params):
        raise AutodiffError("grad_through_update: params and inner_grads lengths differ")
    if first_order:
        inner_grads = [detach(g) for g in inner_grads]
    else:
        for g in inner_grads:
            if is_detached(g):
                raise DetachedGradientError(
                    "grad_through_update: detached inner gradient in second-order mode; "
                    "pass first_order=True to request the first-order approximation explicitly"
                )
    if rates is None:
        return [sub(p, smul(g, alpha)) for p, g in zip(params, inner_grads)]
    if len(rates) != len(params):
        raise AutodiffError("grad_through_update: params and rates lengths differ")
    return [sub(p, mul(r, g)) for p, r, g in zip(params, rates, inner_grads)]
