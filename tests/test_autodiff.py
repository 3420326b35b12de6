import functools
import importlib.util
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.array_utils import normalize_axis_tuple

import relmeta.harness as hz
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk
from relmeta import autodiff as ad

from fd import finite_diff, rel_err

TOOL = Path(__file__).resolve().parents[1] / "tools" / "memprobe.py"
_spec = importlib.util.spec_from_file_location("memprobe", TOOL)
memprobe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memprobe)


def scalar_mlp_loss(tape, params, x, y):
    """Two-layer tanh MLP with scalar MSE loss; params = [W1, b1, W2, b2]."""
    w1, b1, w2, b2 = params
    h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
    pred = ad.add(ad.matmul(h, w2), b2)
    return ad.mean(ad.square(ad.sub(pred, y)))


def make_mlp_case(rng, n=5, din=2, dh=4):
    tape = ad.Tape()
    arrs = [
        rng.normal(size=(din, dh)),
        rng.normal(size=(dh,)),
        rng.normal(size=(dh, 1)),
        rng.normal(size=(1,)),
    ]
    params = [tape.leaf(a) for a in arrs]
    x = tape.constant(rng.uniform(-2, 2, size=(n, din)))
    y = tape.constant(rng.normal(size=(n, 1)))
    return tape, params, arrs, x, y


class TestPrimitives:
    def test_add_elementwise(self):
        tape = ad.Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0, 4.0])
        assert np.array_equal(ad.add(a, b).array, [4.0, 6.0])

    def test_matmul_identity(self):
        tape = ad.Tape()
        eye = tape.constant(np.eye(2))
        x = tape.leaf([[5.0], [-3.0]])
        assert np.array_equal(ad.matmul(eye, x).array, x.array)

    def test_tanh_at_zero(self):
        tape = ad.Tape()
        z = tape.leaf(np.zeros((2, 3)))
        assert np.array_equal(ad.tanh(z).array, np.zeros((2, 3)))

    def test_shape_mismatch_names_op(self):
        tape = ad.Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((4, 5)))
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(a, b)
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(a, b)
        c = tape.leaf(np.zeros(3))
        mismatched = [
            ("add", lambda: ad.add_n([a, a, b])),
            ("concat", lambda: ad.concat([a, b], axis=0)),
            ("broadcast", lambda: ad.broadcast_to(a, (4, 5))),
            ("reshape", lambda: ad.reshape(a, (4,))),
            ("sgd-step", lambda: ad.grad_through_update([a], [b], first_order=True)),
            ("sgd-step", lambda: ad.grad_through_update([b], [c], first_order=True, rates=[b])),
            ("slice", lambda: ad.slice_axis(a, 2, 0, 1)),
            ("sum", lambda: ad.vsum(a, axis=5)),
        ]
        for op, record in mismatched:
            with pytest.raises(ad.ShapeError, match=f"op '{op}'"):
                record()

    def test_cross_tape_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.AutodiffError, match="different tapes"):
            ad.add(t1.leaf([1.0]), t2.leaf([1.0]))


BINARY_OPS = {"add": (ad.add, np.add), "sub": (ad.sub, np.subtract),
              "mul": (ad.mul, np.multiply), "div": (ad.div, np.divide)}

BROADCAST_PAIRS = hnp.mutually_broadcastable_shapes(
    num_shapes=2, min_dims=0, max_dims=3, max_side=3).map(lambda s: s.input_shapes)
ANY_SHAPE = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)
SHAPE_PAIRS = st.one_of(BROADCAST_PAIRS, st.tuples(ANY_SHAPE, ANY_SHAPE))


def binary_operands(seed, shape_a, shape_b):
    """Normal numerators; denominators bounded away from zero, either sign."""
    rng = np.random.default_rng(seed)
    a = np.asarray(rng.normal(size=shape_a))
    b = np.asarray(rng.uniform(0.5, 2.0, size=shape_b) * rng.choice([-1.0, 1.0], size=shape_b))
    return rng, a, b


class TestBinaryOpProperties:
    @settings(max_examples=300, deadline=None)
    @given(pair=SHAPE_PAIRS, op=st.sampled_from(sorted(BINARY_OPS)), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_or_raises_shape_error(self, pair, op, seed):
        shape_a, shape_b = pair
        _, a, b = binary_operands(seed, shape_a, shape_b)
        fn, ref = BINARY_OPS[op]
        tape = ad.Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        try:
            np.broadcast_shapes(shape_a, shape_b)
        except ValueError:
            with pytest.raises(ad.ShapeError, match="do not broadcast"):
                fn(va, vb)
            return
        got = fn(va, vb).array
        want = np.asarray(ref(a, b))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(pair=BROADCAST_PAIRS, op=st.sampled_from(sorted(BINARY_OPS)), seed=st.integers(0, 2**32 - 1))
    def test_broadcast_gradients_match_finite_differences(self, pair, op, seed):
        shape_a, shape_b = pair
        rng, a, b = binary_operands(seed, shape_a, shape_b)
        fn, ref = BINARY_OPS[op]
        weights = rng.normal(size=np.broadcast_shapes(shape_a, shape_b))
        tape = ad.Tape()
        va, vb = tape.leaf(a), tape.leaf(b)
        grads = ad.backward(ad.vsum(ad.mul(fn(va, vb), tape.constant(weights))))

        def f_a(x):
            return float(np.sum(ref(x, b) * weights))

        def f_b(x):
            return float(np.sum(ref(a, x) * weights))

        assert grads[va.index].shape == shape_a and grads[vb.index].shape == shape_b
        assert rel_err(grads[va.index].array, finite_diff(f_a, a.copy())) < 1e-6
        assert rel_err(grads[vb.index].array, finite_diff(f_b, b.copy())) < 1e-6


def reduction_axis(ndim):
    """None, a positive int, a negative int or a tuple of distinct axes."""
    if ndim == 0:
        return st.none()
    return st.one_of(
        st.none(),
        st.integers(0, ndim - 1),
        st.integers(-ndim, -1),
        st.lists(st.integers(-ndim, ndim - 1), unique_by=lambda ax: ax % ndim).map(tuple),
    )


def any_axis(ndim):
    """An int or a tuple of ints, in range or up to two past either end."""
    ax = st.integers(-ndim - 2, ndim + 1)
    return st.one_of(ax, st.lists(ax, max_size=3).map(tuple))


REDUCTION_CASES = ANY_SHAPE.flatmap(lambda shape: st.tuples(st.just(shape), reduction_axis(len(shape))))
ANY_AXIS_CASES = ANY_SHAPE.flatmap(lambda shape: st.tuples(st.just(shape), any_axis(len(shape))))
REDUCTIONS = {"sum": (ad.vsum, np.sum), "mean": (ad.mean, np.mean)}


def assert_recorded_value(out, want):
    """`out`'s recorded value has `want`'s type (np.float64 or ndarray) and bits."""
    got = out.array
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestReductionProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(REDUCTION_CASES, ANY_AXIS_CASES), op=st.sampled_from(sorted(REDUCTIONS)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_bitwise(self, case, op, seed):
        # out-of-range and repeated axes: ShapeError exactly when numpy raises
        shape, axis = case
        a = np.asarray(np.random.default_rng(seed).normal(size=shape))
        fn, ref = REDUCTIONS[op]
        try:
            if axis is not None:  # np.sum alone lets a 0-d array take axis 0 or -1
                normalize_axis_tuple(axis, a.ndim)
            want = ref(a, axis=axis)
        except ValueError:  # numpy's AxisError is a ValueError
            with pytest.raises(ad.ShapeError, match=f"op '{op}'"):
                fn(ad.Tape().leaf(a), axis=axis)
            return
        assert_recorded_value(fn(ad.Tape().leaf(a), axis=axis), want)

    @settings(max_examples=100, deadline=None)
    @given(shape=ANY_SHAPE, seed=st.integers(0, 2**32 - 1))
    def test_mse_matches_numpy_bitwise(self, shape, seed):
        # the mean over the last two axes: one loss per task of a 3-D stack,
        # (..., 1, 1), which keeps the stack's rank
        rng = np.random.default_rng(seed)
        p, y = np.asarray(rng.normal(size=shape)), np.asarray(rng.normal(size=shape))
        tape = ad.Tape()
        stacked = len(shape) > 2
        assert_recorded_value(ad.mse(tape.leaf(p), tape.constant(y)),
                              np.mean(np.square(p - y), axis=(-2, -1) if stacked else None, keepdims=stacked))

    @settings(max_examples=100, deadline=None)
    @given(case=REDUCTION_CASES, op=st.sampled_from(sorted(REDUCTIONS)), seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, case, op, seed):
        shape, axis = case
        rng = np.random.default_rng(seed)
        a = np.asarray(rng.normal(size=shape))
        fn, ref = REDUCTIONS[op]
        weights = np.asarray(rng.normal(size=np.shape(ref(a, axis=axis))))
        tape = ad.Tape()
        v = tape.leaf(a)
        got = ad.backward(ad.vsum(ad.mul(fn(v, axis=axis), tape.constant(weights))))[v.index]
        assert got.shape == shape

        def f(x):
            return float(np.sum(ref(x, axis=axis) * weights))

        assert rel_err(got.array, finite_diff(f, a.copy())) < 1e-6


SLICE_CASES = ANY_SHAPE.flatmap(lambda shape: st.tuples(
    st.just(shape), st.integers(-len(shape), len(shape) - 1) if shape else st.just(0),
    st.integers(-2, max(shape, default=1) + 2), st.integers(-2, max(shape, default=1) + 2)))


class TestSliceProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=SLICE_CASES, seed=st.integers(0, 2**32 - 1))
    @example(case=((4,), 0, 3, 1), seed=0)  # start > stop: was a (6,) gradient
    @example(case=((4,), 0, 5, 5), seed=0)  # start > size
    @example(case=((4,), 0, 2, 6), seed=0)  # stop > size
    @example(case=((4, 2), -1, -1, 1), seed=0)  # negative start
    @example(case=((3, 2), 0, 1, 1), seed=0)  # empty range
    def test_value_and_gradient_or_shape_error(self, case, seed):
        shape, axis, start, stop = case
        a = np.asarray(np.random.default_rng(seed).normal(size=shape))
        tape = ad.Tape()
        v = tape.leaf(a)
        if not shape or not 0 <= start <= stop <= shape[axis]:
            with pytest.raises(ad.ShapeError, match="op 'slice'"):
                ad.slice_axis(v, axis, start, stop)
            return
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, stop)
        out = ad.slice_axis(v, axis, start, stop)
        assert out.shape == a[tuple(index)].shape and out.array.tobytes() == a[tuple(index)].tobytes()
        want = np.zeros(shape)
        want[tuple(index)] = 1.0
        got = ad.backward(ad.vsum(out))[v.index].array
        assert got.shape == shape and np.array_equal(got, want)


MIXED_STEPS = st.lists(st.tuples(st.sampled_from(["leaf", "const", "detach", "grad", "mul", "tanh"]),
                                 st.integers(0, 99)), max_size=14)


def build_mixed_tape(steps):
    """(2,) values from `steps`, where a `grad` toward a node its output does
    not reach is a zero-grad constant; the output sums them all."""
    tape = ad.Tape()
    vs = [tape.constant([1.5, -0.5])]
    for kind, k in steps:
        a, b = vs[k % len(vs)], vs[(k // 7) % len(vs)]
        if kind == "leaf":
            vs.append(tape.leaf([0.01 * k, -0.3]))
        elif kind == "const":
            vs.append(tape.constant([0.5, 0.02 * k]))
        elif kind == "detach":
            vs.append(ad.detach(a))
        elif kind == "grad":
            vs.append(ad.grad(ad.vsum(ad.square(a)), [b])[0])
        else:
            vs.append(ad.mul(a, b) if kind == "mul" else ad.tanh(a))
    return tape, ad.vsum(ad.add_n(vs))


class TestBackward:
    @settings(max_examples=100, deadline=None)
    @given(steps=MIXED_STEPS)
    def test_tracked_leaves_match_a_full_scan(self, steps):
        tape, _ = build_mixed_tape(steps)
        assert tape.leaves == [i for i, node in enumerate(tape.nodes) if node.op == "leaf"]

    @settings(max_examples=100, deadline=None)
    @given(steps=MIXED_STEPS)
    def test_backward_records_one_constant_per_leaf(self, steps):
        # the adjoints of the recorded walk on a twin tape, bit for bit
        tape, out = build_mixed_tape(steps)
        twin, twin_out = build_mixed_tape(steps)
        before = len(tape)
        got, want = ad.backward(out), ad._walk(twin_out, twin.leaves)
        assert list(got) == list(want)
        assert [n.op for n in tape.nodes[before:]] == ["const"] * len(tape.leaves)
        for i, v in got.items():
            assert v.shape == want[i].shape and v.array.tobytes() == want[i].array.tobytes()
            assert tape.nodes[v.index].array is v.array
            reached = twin.nodes[want[i].index].extra != ad._ZERO_GRAD
            assert ad.is_detached(v) == reached

    def test_sum_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        grads = ad.backward(ad.vsum(x))
        assert np.array_equal(grads[x.index].array, np.ones((2, 3)))

    def test_square_at_three(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        grads = ad.backward(ad.square(x))
        assert grads[x.index].array == pytest.approx(6.0)

    def test_unreached_leaf_is_zero(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        unused = tape.leaf([[5.0]])
        grads = ad.backward(ad.vsum(x))
        assert np.array_equal(grads[unused.index].array, np.zeros((1, 1)))

    def test_adjoints_are_the_grad_vars(self):
        rng = np.random.default_rng(5)
        tape, params, _, x, y = make_mlp_case(rng)
        loss = scalar_mlp_loss(tape, params, x, y)
        adjoints = ad.backward(loss)
        assert sorted(adjoints) == [p.index for p in params]
        for p, g in zip(params, ad.grad(loss, params)):
            assert isinstance(adjoints[p.index], ad.Var) and adjoints[p.index].tape is tape
            assert np.array_equal(adjoints[p.index].array, g.array)

    def test_mlp_matches_finite_differences(self):
        # oracle: central differences, h=1e-5, over 100 random seeds
        for seed in range(100):
            rng = np.random.default_rng(seed)
            tape, params, arrs, x, y = make_mlp_case(rng)
            loss = scalar_mlp_loss(tape, params, x, y)
            grads = ad.backward(loss)
            for p, arr in zip(params, arrs):
                def f(a, _p=p, _arr=arr):
                    t2 = ad.Tape()
                    params2 = []
                    for q, qa in zip(params, arrs):
                        params2.append(t2.leaf(a if q is _p else qa))
                    x2 = t2.constant(x.array)
                    y2 = t2.constant(y.array)
                    return float(scalar_mlp_loss(t2, params2, x2, y2).array)

                fd = finite_diff(f, arr.copy())
                assert rel_err(grads[p.index].array, fd) < 1e-4

    def test_linearity(self):
        # backward(a*f + b*g) == a*backward(f) + b*backward(g)
        rng = np.random.default_rng(7)
        for _ in range(20):
            tape = ad.Tape()
            x = tape.leaf(rng.normal(size=(4,)))
            f = ad.vsum(ad.square(x))
            g = ad.vsum(ad.sin(x))
            a, b = rng.normal(size=2)
            combo = ad.add(ad.smul(f, a), ad.smul(g, b))
            gc = ad.backward(combo)[x.index].array
            gf = ad.backward(f)[x.index].array
            gg = ad.backward(g)[x.index].array
            assert np.max(np.abs(gc - (a * gf + b * gg))) < 1e-12

    def test_replay_determinism(self):
        # the loss and its backward recorded on two fresh tapes: the same bytes
        tapes = []
        for _ in range(2):
            tape, params, _, x, y = make_mlp_case(np.random.default_rng(3))
            ad.backward(scalar_mlp_loss(tape, params, x, y))
            tapes.append(tape)
        first, second = tapes
        assert len(first) == len(second)
        for a, b in zip(first.nodes, second.nodes):
            assert a.op == b.op and a.array.shape == b.array.shape
            assert a.array.tobytes() == b.array.tobytes()

    def test_every_primitive_against_fd(self):
        rng = np.random.default_rng(11)
        unary = [
            (ad.tanh, (3, 2), None),
            (ad.sin, (4,), None),
            (ad.cos, (4,), None),
            (ad.square, (3,), None),
            (ad.relu, (5,), None),
            (lambda v: ad.rsqrt(ad.sadd(ad.square(v), 1.0)), (3,), None),
            (lambda v: ad.mean(v, axis=0), (4, 3), None),
            (lambda v: ad.vsum(v, axis=1), (2, 3), None),
            (lambda v: ad.reshape(v, (6,)), (2, 3), None),
            (lambda v: ad.broadcast_to(v, (4, 3)), (1, 3), None),
            (lambda v: ad.transpose(v), (2, 3), None),
            (lambda v: ad.slice_axis(v, 0, 1, 3), (4, 2), None),
            (lambda v: ad.slice_axis(v, -1, 0, 1), (4, 2), None),
            (lambda v: ad.smul(v, -2.5), (3,), None),
            (lambda v: ad.sadd(v, 0.7), (3,), None),
        ]
        for fn, shape, _ in unary:
            arr = rng.uniform(0.2, 1.5, size=shape)

            def f(a):
                t = ad.Tape()
                return float(ad.vsum(ad.square(fn(t.leaf(a)))).array)

            t = ad.Tape()
            v = t.leaf(arr)
            loss = ad.vsum(ad.square(fn(v)))
            got = ad.backward(loss)[v.index].array
            assert rel_err(got, finite_diff(f, arr.copy())) < 1e-4

        binary = [
            (ad.add, (3, 2), (3, 2)),
            (ad.add, (3, 2), (2,)),
            (ad.sub, (3,), (3,)),
            (ad.mul, (3, 2), (2,)),
            (ad.div, (3,), (3,)),
            (ad.div, (2, 2), ()),
            (ad.matmul, (3, 4), (4, 2)),
            (ad.cosine_similarity, (5,), (5,)),
        ]
        for fn, sa, sb in binary:
            a0 = rng.uniform(0.3, 1.4, size=sa)
            b0 = rng.uniform(0.3, 1.4, size=sb)
            t = ad.Tape()
            va, vb = t.leaf(a0), t.leaf(b0)
            out = fn(va, vb)
            loss = ad.vsum(ad.square(out)) if out.array.ndim else ad.square(out)
            grads = ad.backward(loss)

            def f_a(a):
                t2 = ad.Tape()
                o = fn(t2.leaf(a), t2.constant(b0))
                return float((ad.vsum(ad.square(o)) if o.array.ndim else ad.square(o)).array)

            def f_b(b):
                t2 = ad.Tape()
                o = fn(t2.constant(a0), t2.leaf(b))
                return float((ad.vsum(ad.square(o)) if o.array.ndim else ad.square(o)).array)

            assert rel_err(grads[va.index].array, finite_diff(f_a, a0.copy())) < 1e-4
            assert rel_err(grads[vb.index].array, finite_diff(f_b, b0.copy())) < 1e-4

        # concat over two pieces
        a0 = rng.normal(size=(2, 2))
        b0 = rng.normal(size=(3, 2))
        t = ad.Tape()
        va, vb = t.leaf(a0), t.leaf(b0)
        loss = ad.vsum(ad.square(ad.concat([va, vb], axis=0)))
        grads = ad.backward(loss)

        def f_cat(a):
            t2 = ad.Tape()
            return float(ad.vsum(ad.square(ad.concat([t2.leaf(a), t2.constant(b0)], axis=0))).array)

        assert rel_err(grads[va.index].array, finite_diff(f_cat, a0.copy())) < 1e-4


def square_step(p, alpha=0.1, **kw):
    """One recorded step on L(p) = sum(p^2), gradient from ad.grad."""
    (g,) = ad.grad(ad.vsum(ad.square(p)), [p])
    return ad.grad_through_update([p], [g], alpha=alpha, **kw)


class TestGradThroughUpdate:
    def test_hand_worked_quadratic(self):
        # L(p) = p^2 at p=1, a=0.1: p' = 0.8, L(p') = 0.64, dL(p')/dp = 2p'(1-2a) = 1.28
        tape = ad.Tape()
        p = tape.leaf(1.0)
        (p1,) = square_step(p)
        assert p1.array == pytest.approx(0.8)
        outer = ad.square(p1)
        assert outer.array == pytest.approx(0.64)
        g = ad.backward(outer)[p.index].array
        assert g == pytest.approx(1.28, rel=1e-12)

    def test_first_order_detaches(self):
        # same case, inner gradient treated as constant: dL(p')/dp = 2p' = 1.6
        tape = ad.Tape()
        p = tape.leaf(1.0)
        (p1,) = square_step(p, first_order=True)
        g = ad.backward(ad.square(p1))[p.index].array
        assert g == pytest.approx(1.6, rel=1e-12)

    def test_alpha_zero_is_plain_gradient(self):
        tape = ad.Tape()
        p = tape.leaf(1.7)
        (p1,) = square_step(p, alpha=0.0)
        assert np.array_equal(p1.array, p.array)
        g = ad.backward(ad.square(p1))[p.index].array
        assert g == pytest.approx(2 * 1.7, rel=1e-12)

    def test_detached_grads_rejected_in_second_order(self):
        tape = ad.Tape()
        p = tape.leaf(2.0)
        fake_grad = tape.constant(4.0)
        with pytest.raises(ad.DetachedGradientError):
            ad.grad_through_update([p], [fake_grad], alpha=0.1)

    def test_unreached_grad_is_not_detached(self):
        # a zero gradient from an unreached param still passes second-order mode
        tape = ad.Tape()
        p, unused = tape.leaf(1.0), tape.leaf([2.0, 3.0])
        gs = ad.grad(ad.square(p), [p, unused])
        assert np.array_equal(gs[1].array, [0.0, 0.0])
        _, u1 = ad.grad_through_update([p, unused], gs, alpha=0.1)
        assert np.array_equal(u1.array, unused.array)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), with_rates=st.booleans())
    def test_sgd_step_is_bitwise_the_sub_chain_on_mlp(self, seed, with_rates):
        # forward and second-order outer gradient against sub(p, smul(g, a))
        # and sub(p, mul(r, g)), recorded on a tape of their own
        rng = np.random.default_rng(seed)
        alpha = 0.05
        arrs = [rng.normal(size=s) * 0.5 for s in [(1, 3), (3,), (3, 1), (1,)]]
        rates = [rng.uniform(0.01, 0.1, size=a.shape) for a in arrs] if with_rates else None
        data = [rng.uniform(-2, 2, size=(4, 1)), rng.normal(size=(4, 1)),
                rng.uniform(-2, 2, size=(4, 1)), rng.normal(size=(4, 1))]

        def one_step(update):
            t = ad.Tape()
            params = [t.leaf(a) for a in arrs]
            rs = [t.leaf(r) for r in rates] if with_rates else None
            xs, ys, xq, yq = (t.constant(d) for d in data)
            adapted = update(params, ad.grad(scalar_mlp_loss(t, params, xs, ys), params), rs)
            outer = scalar_mlp_loss(t, adapted, xq, yq)
            grads = ad.grad(outer, params + (rs or []))
            return [v.array.tobytes() for v in adapted + [outer] + grads]

        def chain(params, grads, rs):
            if rs is None:
                return [ad.sub(p, ad.smul(g, alpha)) for p, g in zip(params, grads)]
            return [ad.sub(p, ad.mul(r, g)) for p, r, g in zip(params, rs, grads)]

        fused = one_step(lambda ps, gs, rs: ad.grad_through_update(ps, gs, alpha=alpha, rates=rs))
        assert fused == one_step(chain)

    def test_first_order_step_carries_only_p_mask(self):
        # g depends on q too; the first-order step must not: no VJP toward q
        tape = ad.Tape()
        p, q, r = tape.leaf([1.0, -2.0]), tape.leaf([0.5, 3.0]), tape.leaf([0.1, 0.2])
        (g,) = ad.grad(ad.vsum(ad.mul(ad.square(p), q)), [p])
        mask = tape.nodes[p.index].mask
        before = len(tape)
        (p1,) = ad.grad_through_update([p], [g], alpha=0.1, first_order=True)
        (p2,) = ad.grad_through_update([p], [g], first_order=True, rates=[r])
        assert [n.op for n in tape.nodes[before:]] == ["sgd-step", "sgd-step"]
        assert tape.nodes[p1.index].mask == mask
        assert tape.nodes[p2.index].mask == mask | tape.nodes[r.index].mask
        assert np.array_equal(p2.array, p.array - r.array * g.array)
        grads = ad.backward(ad.vsum(ad.square(p2)))
        assert np.array_equal(grads[q.index].array, [0.0, 0.0])
        assert np.array_equal(grads[r.index].array, -2.0 * p2.array * g.array)

    def test_second_order_matches_fd_on_mlp(self):
        # composed outer loss after one recorded inner step, rel-err 1e-3
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            alpha = 0.05

            def outer_value(arrs, xs_arr, ys_arr, xq_arr, yq_arr):
                t = ad.Tape()
                params = [t.leaf(a) for a in arrs]
                xs, ys = t.constant(xs_arr), t.constant(ys_arr)
                xq, yq = t.constant(xq_arr), t.constant(yq_arr)
                inner = ad.grad(scalar_mlp_loss(t, params, xs, ys), params)
                adapted = ad.grad_through_update(params, inner, alpha=alpha)
                return params, scalar_mlp_loss(t, adapted, xq, yq)

            arrs = [
                rng.normal(size=(1, 3)) * 0.5,
                rng.normal(size=(3,)) * 0.5,
                rng.normal(size=(3, 1)) * 0.5,
                rng.normal(size=(1,)) * 0.5,
            ]
            xs_arr = rng.uniform(-2, 2, size=(4, 1))
            ys_arr = rng.normal(size=(4, 1))
            xq_arr = rng.uniform(-2, 2, size=(4, 1))
            yq_arr = rng.normal(size=(4, 1))

            params, outer = outer_value(arrs, xs_arr, ys_arr, xq_arr, yq_arr)
            grads = ad.backward(outer)
            for k, (p, arr) in enumerate(zip(params, arrs)):
                def f(a, _k=k):
                    trial = [x if j != _k else a for j, x in enumerate(arrs)]
                    _, o = outer_value(trial, xs_arr, ys_arr, xq_arr, yq_arr)
                    return float(o.array)

                assert rel_err(grads[p.index].array, finite_diff(f, arr.copy())) < 1e-3

    def test_rates_update(self):
        # elementwise rates replace the scalar step size
        tape = ad.Tape()
        p = tape.leaf([1.0, 2.0])
        r = tape.leaf([0.1, 0.5])
        (p1,) = square_step(p, rates=[r])
        assert np.allclose(p1.array, [1.0 - 0.1 * 2.0, 2.0 - 0.5 * 4.0])


# ---------------------------------------------------------------------------
# fused ops: each stands for a chain of primitives and must compute its bits


def signed_uniform(rng, shape):
    """Entries of magnitude 0.5-1.5 and either sign: norms stay away from 0."""
    return rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _transposed(v, flag):
    return ad.transpose(v) if flag else v


def _old_cosine_vjp(g, u, v, out):
    """The primitive chain the cosine VJP replaced, toward u and v."""
    ru = ad.rsqrt(ad.vsum(ad.square(u)))
    rv = ad.rsqrt(ad.vsum(ad.square(v)))
    gu = ad.sub(ad.mul(v, ad.mul(ru, rv)), ad.mul(u, ad.mul(out, ad.square(ru))))
    gv = ad.sub(ad.mul(u, ad.mul(ru, rv)), ad.mul(v, ad.mul(out, ad.square(rv))))
    return [ad.mul(g, gu), ad.mul(g, gv)]


def _tanh_vjp(vs):
    x, w = vs
    (gx,) = ad.grad(ad.vsum(ad.mul(ad.tanh(x), w)), [x])
    return gx


def _cosine_vjp(vs):
    u, v = vs
    return ad.concat(ad.grad(ad.cosine_similarity(u, v), [u, v]))


def _old_cosine_chain(vs):
    u, v = vs
    out = ad.cosine_similarity(u, v)
    return ad.concat(_old_cosine_vjp(u.tape.constant(np.ones(())), u, v, out))


@st.composite
def fused_cases(draw):
    """(name, operand shapes, fused builder, primitive-chain builder)."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    t = draw(st.integers(1, 3))  # tasks on a leading axis
    kind = draw(st.sampled_from(["matmul", "affine", "affine-tanh", "mse", "tanh-vjp", "cosine-vjp",
                                 "add-n", "sgd-step", "sgd-step-rates", "affine-tasks",
                                 "affine-tanh-tasks", "mse-tasks", "sgd-step-tasks", "sum-keepdims"]))
    if kind in ("affine-tasks", "affine-tanh-tasks"):
        # a stack of batches, with weights per task or 2-D ones every task shares
        per_task = draw(st.booleans())
        shapes = [(t, n, k), (t, k, m) if per_task else (k, m), (t, 1, m) if per_task else (m,)]
        if kind == "affine-tasks":
            return (kind, shapes, lambda vs: ad.affine(*vs), lambda vs: ad.add(ad.matmul(vs[0], vs[1]), vs[2]))
        return (kind, shapes, lambda vs: ad.affine_tanh(*vs),
                lambda vs: ad.tanh(ad.add(ad.matmul(vs[0], vs[1]), vs[2])))
    if kind == "mse-tasks":  # one loss per task, (t, 1, 1)
        return (kind, [(t, n, m)] * 2, lambda vs: ad.mse(*vs),
                lambda vs: ad.reshape(ad.mean(ad.square(ad.sub(vs[0], vs[1])), axis=(1, 2)), (t, 1, 1)))
    if kind == "sgd-step-tasks":  # 2-D rates every task shares, as MetaSGD's
        return (kind, [(t, n, m), (t, n, m), (n, m)],
                lambda vs: ad.grad_through_update([vs[0]], [ad.sin(vs[1])], rates=[vs[2]])[0],
                lambda vs: ad.sub(vs[0], ad.mul(vs[2], ad.sin(vs[1]))))
    if kind == "sum-keepdims":  # as a same-rank bias adjoint sums a stack's batch axis
        axes = draw(st.sampled_from([(0,), (1,), (2,), (1, 2), (0, 2), None]))
        kept = tuple(1 if axes is None or i in axes else s for i, s in enumerate((t, n, m)))
        return (f"sum-keepdims({axes})", [(t, n, m)], lambda vs: ad.vsum(vs[0], axes, keepdims=True),
                lambda vs: ad.reshape(ad.vsum(vs[0], axes), kept))
    if kind == "matmul":
        ta, tb = draw(st.booleans()), draw(st.booleans())
        shapes = [(k, n) if ta else (n, k), (m, k) if tb else (k, m)]
        return (f"matmul(ta={ta}, tb={tb})", shapes,
                lambda vs: ad.matmul(vs[0], vs[1], ta=ta, tb=tb),
                lambda vs: ad.matmul(_transposed(vs[0], ta), _transposed(vs[1], tb)))
    if kind == "affine":
        return ("affine", [(n, k), (k, m), (m,)], lambda vs: ad.affine(*vs),
                lambda vs: ad.add(ad.matmul(vs[0], vs[1]), vs[2]))
    if kind == "affine-tanh":
        return ("affine-tanh", [(n, k), (k, m), (m,)], lambda vs: ad.affine_tanh(*vs),
                lambda vs: ad.tanh(ad.affine(*vs)))
    if kind == "mse":
        return ("mse", [(n, m)] * 2, lambda vs: ad.mse(*vs),
                lambda vs: ad.mean(ad.square(ad.sub(vs[0], vs[1]))))
    if kind == "tanh-vjp":
        return ("tanh-vjp", [(n, m)] * 2, _tanh_vjp,
                lambda vs: ad.sub(vs[1], ad.mul(vs[1], ad.square(ad.tanh(vs[0])))))
    if kind == "add-n":
        count = draw(st.integers(1, 6))
        return (f"add-n({count})", [(n, m)] * count, ad.add_n, lambda vs: functools.reduce(ad.add, vs))
    if kind == "sgd-step":
        # g is a recorded function of the second operand, as an inner gradient is
        return ("sgd-step", [(n, m)] * 2,
                lambda vs: ad.grad_through_update([vs[0]], [ad.sin(vs[1])], alpha=0.3)[0],
                lambda vs: ad.sub(vs[0], ad.smul(ad.sin(vs[1]), 0.3)))
    if kind == "sgd-step-rates":
        return ("sgd-step-rates", [(n, m)] * 3,
                lambda vs: ad.grad_through_update([vs[0]], [ad.sin(vs[1])], rates=[vs[2]])[0],
                lambda vs: ad.sub(vs[0], ad.mul(vs[2], ad.sin(vs[1]))))
    return ("cosine-vjp", [(k + 1,)] * 2, _cosine_vjp, _old_cosine_chain)


def scalarize(out, weights):
    """sum(sin(out) * weights): the upstream gradient depends on the operands."""
    return ad.vsum(ad.mul(ad.sin(out), out.tape.constant(weights)))


def value_of(build, arrays, weights):
    t = ad.Tape()
    return float(scalarize(build([t.leaf(a) for a in arrays]), weights).array)


def first_gradient(build, arrays, weights, dirs):
    """sum_j <d f / d x_j, dirs_j> from a fresh tape, as a float."""
    t = ad.Tape()
    vs = [t.leaf(a) for a in arrays]
    grads = ad.grad(scalarize(build(vs), weights), vs)
    return float(sum(np.sum(g.array * d) for g, d in zip(grads, dirs)))


class TestFusedOpProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=fused_cases(), seed=st.integers(0, 2**32 - 1))
    def test_forward_is_bitwise_the_primitive_chain(self, case, seed):
        _, shapes, fused, chain = case
        rng = np.random.default_rng(seed)
        arrays = [signed_uniform(rng, s) for s in shapes]
        tape = ad.Tape()
        vs = [tape.leaf(a) for a in arrays]
        got, want = fused(vs).array, chain(vs).array
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(case=fused_cases(), seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, case, seed):
        _, shapes, fused, _ = case
        rng = np.random.default_rng(seed)
        arrays = [signed_uniform(rng, s) for s in shapes]
        tape = ad.Tape()
        vs = [tape.leaf(a) for a in arrays]
        out = fused(vs)
        weights = rng.normal(size=out.shape)
        grads = ad.grad(scalarize(out, weights), vs)
        for j, (g, a) in enumerate(zip(grads, arrays)):
            def f(x, _j=j):
                return value_of(fused, [x if i == _j else b for i, b in enumerate(arrays)], weights)

            assert g.shape == a.shape
            assert rel_err(g.array, finite_diff(f, a.copy())) < 1e-6

    @settings(max_examples=80, deadline=None)
    @given(case=fused_cases(), seed=st.integers(0, 2**32 - 1))
    def test_second_order_matches_finite_differences(self, case, seed):
        # d/dx_k of sum_j <grad_j f, v_j> against FD of the first gradient
        _, shapes, fused, _ = case
        rng = np.random.default_rng(seed)
        arrays = [signed_uniform(rng, s) for s in shapes]
        tape = ad.Tape()
        vs = [tape.leaf(a) for a in arrays]
        out = fused(vs)
        weights = rng.normal(size=out.shape)
        dirs = [rng.normal(size=s) for s in shapes]
        grads = ad.grad(scalarize(out, weights), vs)
        inner = None
        for g, d in zip(grads, dirs):
            term = ad.vsum(ad.mul(g, tape.constant(d)))
            inner = term if inner is None else ad.add(inner, term)
        second = ad.grad(inner, vs)
        for k, (g2, a) in enumerate(zip(second, arrays)):
            def f(x, _k=k):
                trial = [x if i == _k else b for i, b in enumerate(arrays)]
                return first_gradient(fused, trial, weights, dirs)

            assert rel_err(g2.array, finite_diff(f, a.copy())) < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1))
    def test_affine_tanh_vjps_are_bitwise_the_chain(self, shape, seed):
        # recorded first- and second-order gradients, and the values walk,
        # against tanh(affine(.)) on a twin tape: the same nodes, the same bits
        n, k, m = shape
        rng = np.random.default_rng(seed)
        arrays = [signed_uniform(rng, s) for s in [(n, k), (k, m), (m,)]]
        weights = rng.normal(size=(n, m))
        dirs = [rng.normal(size=a.shape) for a in arrays]

        def gradients(layer):
            tape = ad.Tape()
            vs = [tape.leaf(a) for a in arrays]
            out = scalarize(layer(*vs), weights)
            first = ad.grad(out, vs)
            values = ad.grad(out, vs, record=False)
            inner = ad.add_n([ad.vsum(ad.mul(g, tape.constant(d))) for g, d in zip(first, dirs)])
            second = ad.grad(inner, vs)
            kinds = [node.op for node in tape.nodes if node.op not in ("affine-tanh", "tanh", "affine")]
            return [g.array for g in first + second] + values, kinds

        (got, got_kinds), (want, want_kinds) = gradients(ad.affine_tanh), gradients(
            lambda h, w, b: ad.tanh(ad.affine(h, w, b)))
        assert got_kinds == want_kinds
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_vjps_record_no_transpose(self):
        rng = np.random.default_rng(2)
        tape = ad.Tape()
        h, w, b = (tape.leaf(rng.normal(size=s)) for s in [(3, 4), (4, 2), (2,)])
        loss = ad.mse(ad.tanh(ad.affine(h, w, b)), tape.constant(rng.normal(size=(3, 2))))
        grads = ad.grad(loss, [h, w, b])
        ad.grad(ad.vsum(ad.concat([ad.reshape(g, (-1,)) for g in grads])), [h, w, b])
        assert "transpose" not in {n.op for n in tape.nodes}

    def test_a_stacked_bias_adjoint_is_one_sum_that_keeps_its_axes(self):
        # one adjoint per task, so the recording fixes no task count
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        arrays = [rng.normal(size=s) for s in [(3, 5, 2), (3, 2, 4), (3, 1, 4), (3, 5, 4)]]
        h, w, b = (tape.leaf(a) for a in arrays[:3])
        loss = ad.mse(ad.affine(h, w, b), tape.constant(arrays[3]))
        before = len(tape)
        (gb,) = ad.grad(loss, [b])
        assert [n.op for n in tape.nodes[before:]] == ["const", "mse-grad", "sum"]
        assert tape.nodes[gb.index].extra == ((1,), (3, 5, 4), True) and gb.shape == (3, 1, 4)

        # second order through the stacked mse-grad: weights s on the
        # per-task losses put its adjoint g on s's path, so the walk builds
        # g's own adjoint; each task's slice holds the bits of its 2-D graph,
        # in the recorded walk and the values walk
        arrays += [rng.normal(size=(3, 1, 1)), rng.normal(size=(3, 2, 4))]

        def second_order(h, w, b, y, s, d, record):
            t = ad.Tape()
            h, w, b, s = (t.leaf(a) for a in (h, w, b, s))
            loss = ad.vsum(ad.mul(ad.mse(ad.affine(h, w, b), t.constant(y)), s))
            (gw,) = ad.grad(loss, [w])
            grads = ad.grad(ad.vsum(ad.mul(gw, t.constant(d))), [s, w], record=record)
            kinds = [n.op for n in t.nodes]
            return [g.array if record else g for g in grads], kinds

        for record in (True, False):
            stacked, kinds = second_order(*arrays, record)
            assert [g.shape for g in stacked] == [(3, 1, 1), (3, 2, 4)]
            assert "mse-grad" in kinds
            for i in range(3):
                alone, _ = second_order(*(a[i] for a in arrays), record)
                assert [g[i].tobytes() for g in stacked] == [g.tobytes() for g in alone]


# ---------------------------------------------------------------------------
# one recording path


def count_forward_calls(monkeypatch):
    """Wrap every `_FORWARD` entry to log its calls; returns the log, a list
    of (kind, extra, value) in call order."""
    calls = []
    for kind, fwd in list(ad._FORWARD.items()):
        def counted(xs, extra, kind=kind, fwd=fwd):
            calls.append((kind, extra, fwd(xs, extra)))
            return calls[-1][2]
        monkeypatch.setitem(ad._FORWARD, kind, counted)
    return calls


def every_vjp_kind(tape):
    """A scalar on `tape` whose graph holds a node of every `_VJP` kind, and a
    name -> Var map of the nodes the `grad` tests ask for.

    The inner gradients are recorded, so the outer walk meets the VJP kinds
    (`mse-grad`, `tanh-grad`, `cosine-grad`) and every `sgd-step` variant;
    the relu mask is mixed, the slice is padded on both sides, and one leaf
    (and `lonely`) is reached by nothing.
    """
    rng = np.random.default_rng(4)
    x, w, b = (tape.leaf(signed_uniform(rng, s)) for s in [(3, 2), (2, 2), (2,)])
    u, rates = tape.leaf(signed_uniform(rng, (4,))), tape.leaf(rng.uniform(0.1, 0.3, size=(2, 2)))
    unused = tape.leaf(np.ones(3))
    y = tape.constant(signed_uniform(rng, (3, 2)))
    h = ad.tanh(ad.affine(x, w, b))
    inner = ad.add_n([ad.mse(h, y), ad.smul(ad.vsum(ad.affine_tanh(y, w, b)), 0.1),
                      ad.cosine_similarity(u, ad.concat([b, b]))])
    gw, gu = ad.grad(inner, [w, u])
    steps = [ad.grad_through_update([w], [gw], alpha=0.1)[0],
             ad.grad_through_update([w], [gw], rates=[rates])[0],
             ad.grad_through_update([w], [gw], alpha=0.1, first_order=True)[0],
             ad.grad_through_update([w], [gw], rates=[rates], first_order=True)[0]]
    u1 = ad.grad_through_update([u], [gu], alpha=0.2)[0]
    m1 = ad.matmul(x, ad.transpose(steps[0]), tb=True)
    m2 = ad.matmul(h, x, ta=True)
    m3 = ad.matmul(steps[2], m2, ta=True, tb=True)
    r = ad.relu(ad.sub(m1, y))
    d = ad.div(r, ad.sadd(ad.square(x), 1.0))
    e = ad.mul(ad.smul(ad.sin(d), 0.5), ad.cos(b))
    rs = ad.rsqrt(ad.sadd(ad.square(steps[3]), 1.0))
    bc = ad.broadcast_to(ad.reshape(ad.vsum(rs, axis=0), (1, 2)), (3, 2))
    cat = ad.concat([e, bc, m3], axis=0)
    y2 = ad.square(y)
    out = ad.add_n([ad.vsum(ad.mean(ad.slice_axis(cat, 0, 1, 6), axis=0)),
                    ad.cosine_similarity(u1, ad.reshape(m2, (4,))), ad.mse(h, y),
                    ad.mean(ad.mul(steps[1], m2)), ad.vsum(ad.mul(y2, r))])
    named = dict(x=x, h=h, gw=gw, gu=gu, r=r, cat=cat, y2=y2, lonely=ad.sin(unused))
    return out, named


# each public op: the kind it records, and a call on operands `o` made beforehand
PUBLIC_OPS = {
    "add": ("add", lambda o: ad.add(o.a, o.b)),
    "add_n": ("add", lambda o: ad.add_n([o.a, o.b, o.a])),
    "sub": ("sub", lambda o: ad.sub(o.a, o.b)),
    "mul": ("elementwise-mul", lambda o: ad.mul(o.a, o.b)),
    "div": ("div", lambda o: ad.div(o.a, o.b)),
    "smul": ("scalar-mul", lambda o: ad.smul(o.a, 2.0)),
    "sadd": ("scalar-add", lambda o: ad.sadd(o.a, 2.0)),
    "matmul": ("matmul", lambda o: ad.matmul(o.a, o.b, tb=True)),
    "affine": ("affine", lambda o: ad.affine(o.a, o.w, o.c)),
    "affine_tanh": ("affine-tanh", lambda o: ad.affine_tanh(o.a, o.w, o.c)),
    "mse": ("mse", lambda o: ad.mse(o.a, o.b)),
    "transpose": ("transpose", lambda o: ad.transpose(o.a)),
    "reshape": ("reshape", lambda o: ad.reshape(o.a, (6,))),
    "broadcast_to": ("broadcast", lambda o: ad.broadcast_to(o.c, (3, 2))),
    "vsum": ("sum", lambda o: ad.vsum(o.a, axis=0)),
    "vsum(keepdims)": ("sum", lambda o: ad.vsum(o.a, axis=1, keepdims=True)),
    "mean": ("mean", lambda o: ad.mean(o.a)),
    "tanh": ("tanh", lambda o: ad.tanh(o.a)),
    "relu": ("relu", lambda o: ad.relu(o.a)),
    "sin": ("sin", lambda o: ad.sin(o.a)),
    "cos": ("cos", lambda o: ad.cos(o.a)),
    "square": ("square", lambda o: ad.square(o.a)),
    "rsqrt": ("rsqrt", lambda o: ad.rsqrt(o.b)),
    "concat": ("concat", lambda o: ad.concat([o.a, o.b, o.a], axis=1)),
    "slice_axis": ("slice", lambda o: ad.slice_axis(o.a, -1, 0, 1)),
    "cosine_similarity": ("cosine-similarity", lambda o: ad.cosine_similarity(o.c, o.c)),
    "grad_through_update": ("sgd-step", lambda o: ad.grad_through_update([o.a], [o.g])[0]),
    "grad_through_update(first_order)": (
        "sgd-step", lambda o: ad.grad_through_update([o.a], [o.b], first_order=True)[0]),
    "grad_through_update(rates)": (
        "sgd-step", lambda o: ad.grad_through_update([o.a], [o.g], rates=[o.b])[0]),
}


class TestOneRecordingPath:
    @pytest.mark.parametrize("name", sorted(PUBLIC_OPS))
    def test_each_op_takes_its_value_from_one_forward_call(self, name, monkeypatch):
        calls = count_forward_calls(monkeypatch)
        tape, rng = ad.Tape(), np.random.default_rng(0)
        a, b = tape.leaf(rng.normal(size=(3, 2))), tape.leaf(rng.uniform(1.0, 2.0, size=(3, 2)))
        o = SimpleNamespace(a=a, b=b, c=tape.leaf(rng.normal(size=2)),
                            w=tape.leaf(rng.normal(size=(2, 2))), g=ad.sin(b))
        calls.clear()
        kind, record = PUBLIC_OPS[name]
        out = record(o)
        assert [k for k, _, _ in calls] == [kind]
        assert out.array is calls[0][2]

    def test_values_walk_takes_every_float_from_a_forward_call(self, monkeypatch):
        # the values walk makes the calls the recorded walk makes, which are
        # the nodes it records; each adjoint it returns is one call's value
        calls = count_forward_calls(monkeypatch)
        tape, twin = ad.Tape(), ad.Tape()
        out, _ = every_vjp_kind(tape)
        twin_out, _ = every_vjp_kind(twin)
        calls.clear()
        got = ad.backward(out)
        computed = list(calls)
        calls.clear()
        before = len(twin)
        ad._walk(twin_out, twin.leaves)
        recorded = [(n.op, n.extra) for n in twin.nodes[before:] if n.op not in ad._TERMINAL]
        assert [(k, e) for k, e, _ in computed] == [(k, e) for k, e, _ in calls] == recorded
        assert len(recorded) > len(ad._VJP)
        values = [v for _, _, v in computed]
        for g in got.values():
            if tape.nodes[g.index].extra != ad._ZERO_GRAD:
                assert any(g.array is v for v in values)

    def test_every_op_kind_but_the_vjp_nodes_is_public(self):
        public = {kind for kind, _ in PUBLIC_OPS.values()}
        assert set(ad._FORWARD) - public == {"mse-grad", "tanh-grad", "cosine-grad"}


# ---------------------------------------------------------------------------
# pruned reverse walk


def _ancestors(tape, roots):
    seen, stack = set(), list(roots)
    while stack:
        idx = stack.pop()
        if idx not in seen:
            seen.add(idx)
            stack.extend(tape.nodes[idx].parents)
    return seen


class TestPrunedWalk:
    def test_leaf_masks(self):
        tape = ad.Tape()
        a, b = tape.leaf(1.0), tape.leaf(2.0)
        c = tape.constant(3.0)
        masks = [tape.nodes[v.index].mask for v in (a, b, c, ad.mul(a, c), ad.add(a, b))]
        assert masks == [0b01, 0b10, 0, 0b01, 0b11]

    def test_outer_backward_builds_only_used_adjoints(self):
        # one sinusoid meta-batch shaped like the paper's treated arm
        config = ml.MetaConfig(method="maml", trlearner=True, lam=0.6, sim_heads=4,
                               batch_tasks=4, hidden=(40, 40), alpha=0.05, beta=0.01)
        model = nn.init_model([1, 40, 40], 4, seed=0)
        layer = rel.SimilarityLayer(4, 40)
        source = tk.TaskSource("sinusoid", 10, 15, seed=0, pool_size=480)
        batch = tk.make_task_batch(source.train_batch(0, 0, 4), seed=(0, 4, 0, 0))
        objective = ml._record_batch(model, layer, batch, config)[2]
        tape = objective.tape
        before = len(tape)
        # the recorded walk: backward itself records no VJP to prune
        adjoints = ad._walk(objective, tape.leaves)
        reached = _ancestors(tape, [v.index for v in adjoints.values()])
        unused = [i for i in range(before, len(tape)) if i not in reached]
        assert unused == [] and len(tape) > before

    def test_outer_backward_retains_only_the_adjoints(self):
        # one N=16 harmonic TRLearner meta-batch with the harm-wide-trl model shape
        config = ml.MetaConfig(method="maml", trlearner=True, lam=0.6, sim_heads=4,
                               batch_tasks=16, hidden=(40, 40), alpha=0.05, beta=0.01)
        model = nn.init_model([1, 40, 40], 16, seed=0, input_scale=tk.INPUT_SCALES["harmonic"])
        layer = rel.SimilarityLayer(4, 40)
        source = tk.TaskSource("harmonic", 10, 15, seed=0)
        batch = tk.make_task_batch(source.train_batch(0, 0, 16), seed=(0, 4, 0, 0))
        objective = ml._record_batch(model, layer, batch, config)[2]
        # the only reshapes: one per omega mask (K=4), then the two head
        # stacks; each task's view is a slice of a stacked parameter
        nodes = objective.tape.nodes
        assert [nodes[n.parents[0]].op for n in nodes if n.op == "reshape"] == ["slice"] * 4 + ["concat"] * 2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = ad.backward(objective)
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(grads) == len(objective.tape.leaves) == 37
        # a recorded outer backward retains 13.9 MB here; the peak (1.29 MB,
        # 3.89 MB when the walk kept every contribution until its visit)
        # stays under the 6,144,336 bytes this forward tape held when each
        # tanh layer was two nodes (it holds 3.45 MB with one)
        assert retained < 1e6 and peak < 6_144_336

    def test_walk_memory_grows_linearly_with_the_tasks(self):
        # the consistency term reads every task's view N times: a walk that
        # kept each contribution until its visit held 3.5x at twice the
        # tasks (0.28 -> 0.99 MB), one running sum per node holds 2.1x
        held = [memprobe.measure(hz.parse_config(overrides={
            "dataset": "harmonic", "hidden": "40,40", "trlearner": "on", "seed": "0",
            "batch_tasks": str(n)}))["held"] for n in (4, 8)]
        assert held[1] <= 2.5 * held[0]

    def test_grad_toward_a_constant(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, -2.0])
        c = tape.constant([3.0, 5.0])
        f = ad.vsum(ad.mul(ad.square(x), c))
        gc, gx = ad.grad(f, [c, x])
        assert np.array_equal(gc.array, [1.0, 4.0]) and np.array_equal(gx.array, [6.0, -20.0])
        (gc_only,) = ad.grad(ad.vsum(ad.mul(c, c)), [c])
        assert np.array_equal(gc_only.array, [6.0, 10.0])

    def test_unrelated_output_records_no_adjoint(self):
        tape = ad.Tape()
        x, y = tape.leaf([1.0, 2.0]), tape.leaf([3.0])
        f = ad.vsum(ad.tanh(x))
        before = len(tape)
        (gy,) = ad.grad(f, [y])
        assert np.array_equal(gy.array, [0.0]) and not ad.is_detached(gy)
        assert [n.op for n in tape.nodes[before:]] == ["const", "const"]  # seed, zero

    def test_walk_visits_only_indices_with_an_adjoint(self, monkeypatch):
        # nodes that no adjoint reaches (the tanh chain) are never visited
        visited = []
        pop = ad.heappop
        monkeypatch.setattr(ad, "heappop", lambda heap: visited.append(-heap[0]) or pop(heap))
        tape = ad.Tape()
        x, y = tape.leaf([1.0, -2.0]), tape.leaf([0.5])
        h = y
        for _ in range(20):
            h = ad.tanh(h)
        s = ad.square(x)
        f = ad.vsum(s)
        (gx,) = ad.grad(f, [x])
        assert visited == [f.index, s.index, x.index]
        assert np.array_equal(gx.array, [2.0, -4.0])

    def test_contributions_fold_into_one_binary_add_each(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, -2.0])
        before = len(tape)
        f = ad.vsum(ad.add(ad.mul(x, x), x))   # x reached three times
        (gx,) = ad.grad(f, [x])
        added = [n for n in tape.nodes[before:] if n.op == "add"]
        # the forward add, then one add per contribution after the first
        assert [(n.op, len(n.parents)) for n in added] == [("add", 2), ("add", 2), ("add", 2)]
        assert added[2].parents[0] == tape.nodes.index(added[1])
        assert np.array_equal(gx.array, [3.0, -3.0])

    def test_anil_evaluation_records_no_vjp_toward_extractor(self, monkeypatch):
        calls = []
        forward = nn.forward_features_with
        monkeypatch.setattr(nn, "forward_features_with",
                            lambda *args: calls.append(1) or forward(*args))
        computed = count_forward_calls(monkeypatch)
        model = nn.init_model([1, 8, 8], 2, seed=3)
        config = ml.MetaConfig(method="anil", trlearner=False, eval_inner_steps=7)
        task = tk.TaskSource("sinusoid", 10, 15, seed=3).eval_task(0)
        tape = ad.Tape()
        mv = nn.bind(model, tape)
        head = [tape.leaf(np.zeros((8, 1))), tape.leaf(np.zeros(1))]
        x, y = tape.constant(task.support_x), tape.constant(task.support_y)
        ml._adapt(mv, head, x, y, config, 7, True, "an evaluation task")
        ops = [n.op for n in tape.nodes]
        assert len(calls) == 1 and ops.count("affine-tanh") == 2
        # first order: the inner gradients are computed, not recorded
        assert "tanh-grad" not in ops and "matmul" not in ops
        assert "tanh-grad" not in {kind for kind, _, _ in computed}
        # the only matmuls are the head-weight gradients features^T @ g
        assert {extra for kind, extra, _ in computed if kind == "matmul"} == {(True, False)}

    def test_shared_leaves_of_the_wanted_nodes_prune_a_frozen_branch(self):
        # a recorded second step of head-only adaptation: each updated head
        # depends on the frozen `a` through its gradient, but the features
        # carry a's bit only, so no VJP is recorded toward them
        tape = ad.Tape()
        a, w = tape.leaf([[0.5, -1.0]]), tape.leaf([[0.3], [0.2]])
        x, y = tape.constant([[1.0], [2.0]]), tape.constant([[1.0], [-1.0]])
        feats = ad.tanh(ad.matmul(x, a))
        (g,) = ad.grad(ad.mse(ad.matmul(feats, w), y), [w])
        (w1,) = ad.grad_through_update([w], [g], alpha=0.1)
        loss = ad.mse(ad.matmul(feats, w1), y)
        before = len(tape)
        (g1,) = ad.grad(loss, [w1])
        assert set(range(before, len(tape))) <= _ancestors(tape, [g1.index])
        assert "tanh-grad" not in [n.op for n in tape.nodes[before:]]
        (want,) = ad.grad(loss, [w1], record=False)
        assert g1.array.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# values-only walk: the recorded walk's floats on bare ndarrays


def assert_walks_agree(tape, before, got, twin, want):
    """Adjoint Vars `got`, from a values walk that started at `before` on
    `tape`, equal `want` from the recorded walk on its twin bit for bit; the
    values walk added one constant per wanted node and nothing else."""
    assert [n.op for n in tape.nodes[before:]] == ["const"] * len({g.index for g in got})
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.array.tobytes() == w.array.tobytes()
        unreached = twin.nodes[w.index].extra == ad._ZERO_GRAD
        assert (tape.nodes[g.index].extra == ad._ZERO_GRAD) == unreached
        assert ad.is_detached(g) != unreached


def assert_values_agree(tape, before, got, twin, want):
    """ndarrays `got`, from `grad(..., record=False)` called at `before` on
    `tape`, equal the recorded walk's `want` on its twin bit for bit, zeros
    where it marked an unreached node; the values walk added no node."""
    assert len(tape) == before and len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is np.ndarray
        assert g.shape == w.shape and g.tobytes() == w.array.tobytes()
        if twin.nodes[w.index].extra == ad._ZERO_GRAD:
            assert not g.any()


CHAIN_OPS = ["leaf", "constant", "add", "sub", "mul", "div", "smul", "sadd", "matmul", "affine",
             "affine-tanh", "mse", "transpose", "reshape", "sum", "mean", "tanh", "relu", "sin", "cos", "square", "rsqrt",
             "concat-slice", "cosine", "grad", "sgd-step"]
CHAIN_STEPS = st.lists(st.tuples(st.sampled_from(CHAIN_OPS), st.integers(0, 99), st.integers(0, 99)),
                       max_size=12)


def _scalar_to_2x2(s):
    return ad.broadcast_to(ad.reshape(s, (1, 1)), (2, 2))


def build_chain(steps):
    """(2, 2) values from `steps`; the output sums them all (n-ary accumulation)."""
    tape = ad.Tape()
    rng = np.random.default_rng(0)
    vs = [tape.leaf(rng.normal(size=(2, 2))), tape.constant(rng.normal(size=(2, 2)))]
    for kind, k, j in steps:
        a, b, c = vs[k % len(vs)], vs[j % len(vs)], vs[(k + j) % len(vs)]
        if kind in ("leaf", "constant"):
            v = getattr(tape, kind)(np.full((2, 2), 0.02 * k - 1.0) + [[0.0, 0.3], [0.1, -0.2]])
        elif kind in ("add", "sub", "mul"):
            v = getattr(ad, kind)(a, b)
        elif kind == "div":
            v = ad.div(a, ad.sadd(ad.square(b), 0.5))
        elif kind in ("smul", "sadd"):
            v = getattr(ad, kind)(a, 0.02 * j - 1.0)
        elif kind == "matmul":
            v = ad.matmul(a, b, ta=k % 2 == 1, tb=j % 2 == 1)
        elif kind in ("affine", "affine-tanh"):
            v = (ad.affine if kind == "affine" else ad.affine_tanh)(a, b, ad.vsum(c, axis=0))
        elif kind in ("mse", "mean"):
            v = _scalar_to_2x2(ad.mse(a, b) if kind == "mse" else ad.mean(a))
        elif kind == "transpose":
            v = ad.transpose(a)
        elif kind == "reshape":
            v = ad.reshape(ad.reshape(a, (4,)), (2, 2))
        elif kind == "sum":
            v = ad.broadcast_to(ad.reshape(ad.vsum(a, axis=k % 2), (1, 2)), (2, 2))
        elif kind == "rsqrt":
            v = ad.rsqrt(ad.sadd(ad.square(a), 0.5))
        elif kind == "concat-slice":
            v = ad.slice_axis(ad.concat([a, b], axis=k % 2), k % 2, j % 3, j % 3 + 2)
        elif kind == "cosine":
            v = _scalar_to_2x2(ad.cosine_similarity(ad.reshape(a, (4,)), ad.reshape(b, (4,))))
        elif kind == "grad":
            inner = [ad.mse(ad.tanh(a), b), ad.vsum(ad.mul(ad.relu(a), b)),
                     ad.cosine_similarity(ad.reshape(a, (4,)), ad.reshape(b, (4,)))][j % 3]
            v = ad.grad(inner, [c])[0]
        elif kind == "sgd-step":
            first_order = ad.is_detached(b) or k % 2 == 1
            rates = [c] if j % 2 else None
            v = ad.grad_through_update([a], [b], alpha=0.1, first_order=first_order, rates=rates)[0]
        else:
            v = getattr(ad, kind)(a)
        vs.append(v)
    return tape, vs, ad.vsum(ad.add_n(vs))


class TestValuesWalk:
    def test_case_reaches_every_vjp_kind(self):
        tape = ad.Tape()
        out, named = every_vjp_kind(tape)
        assert {tape.nodes[i].op for i in _ancestors(tape, [out.index])} >= set(ad._VJP)
        assert 0 < np.count_nonzero(named["r"].array) < named["r"].array.size  # a mixed relu mask

    def test_backward_is_bitwise_the_recorded_walk(self):
        tape, twin = ad.Tape(), ad.Tape()
        (out, _), (twin_out, _) = every_vjp_kind(tape), every_vjp_kind(twin)
        before = len(tape)
        got, want = ad.backward(out), ad._walk(twin_out, twin.leaves)
        assert list(got) == list(want) and sorted(got) == tape.leaves
        assert_walks_agree(tape, before, list(got.values()), twin, list(want.values()))
        assert sum(tape.nodes[g.index].extra == ad._ZERO_GRAD for g in got.values()) == 1

    @pytest.mark.parametrize("names", [("h", "gw", "cat", "lonely", "x", "h"), ("y2", "gu", "lonely", "y2")])
    def test_grad_toward_inner_nodes_is_bitwise_the_recorded_walk(self, names):
        # the second case asks for a node on no leaf: every adjoint is built
        tape, twin = ad.Tape(), ad.Tape()
        (out, named), (twin_out, twin_named) = every_vjp_kind(tape), every_vjp_kind(twin)
        before = len(tape)
        got = ad.grad(out, [named[n] for n in names], record=False)
        want = ad.grad(twin_out, [twin_named[n] for n in names])
        assert_values_agree(tape, before, got, twin, want)

    def test_contributions_sum_in_arrival_order(self):
        # x's adjoint gets g, then -1e16 g, then 1e16 g: only that order gives 0
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        out = ad.vsum(ad.add_n([ad.smul(x, 1e16), x, ad.smul(x, -1e16)]))
        (got,), (want,) = ad.grad(out, [x], record=False), ad.grad(out, [x])
        assert got.tobytes() == want.array.tobytes()
        assert np.array_equal(got, [0.0, 0.0]) and (1e16 + -1e16) + 1.0 == 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), shape=hnp.array_shapes(max_dims=2, max_side=3))
    def test_k_consumers_fold_their_contributions_in_arrival_order(self, data, k, shape):
        # x * d_k for k consumers, weighted by w: x's adjoint is the left fold
        # of the contributions w * d_k, which arrive from the last consumer
        floats = hnp.arrays(np.float64, shape, elements=st.floats(-1e12, 1e12))
        d = [data.draw(floats) for _ in range(k)]
        w = data.draw(floats)
        tape = ad.Tape()
        x = tape.leaf(np.ones(shape))
        out = ad.vsum(ad.mul(ad.add_n([ad.mul(x, tape.constant(a)) for a in d]), tape.constant(w)))
        (got,) = ad.grad(out, [x], record=False)
        before = len(tape)
        (want,) = ad.grad(out, [x])
        fold = functools.reduce(np.add, [w * a for a in reversed(d)])
        assert got.tobytes() == want.array.tobytes() == fold.tobytes()
        assert [n.op for n in tape.nodes[before:]].count("add") == k - 1

    @settings(max_examples=150, deadline=None)
    @given(steps=CHAIN_STEPS, picks=st.lists(st.integers(0, 99), min_size=1, max_size=4))
    def test_random_op_chains_walk_bitwise_alike(self, steps, picks):
        with np.errstate(all="ignore"):
            tape, vs, out = build_chain(steps)
            twin, twin_vs, twin_out = build_chain(steps)
            before = len(tape)
            got, want = ad.backward(out), ad._walk(twin_out, twin.leaves)
            assert_walks_agree(tape, before, list(got.values()), twin, list(want.values()))
            before = len(tape)
            got = ad.grad(out, [vs[p % len(vs)] for p in picks], record=False)
            want = ad.grad(twin_out, [twin_vs[p % len(vs)] for p in picks])
        assert_values_agree(tape, before, got, twin, want)


# ---------------------------------------------------------------------------
# replaying a recorded graph on new data


def two_step_adaptation(x_arr, y_arr):
    """Two recorded inner steps of a tanh MLP on the constants x, y, then the
    loss at the adapted parameters; returns (tape, x, y, step losses, loss).
    Data with a leading task axis, (1, k, 1), is a stack of one task: as
    `metalearn` records one, it adapts its own copies of the parameters."""
    tape = ad.Tape()
    rng = np.random.default_rng(2)
    params = [tape.leaf(rng.normal(size=s)) for s in [(1, 6), (6,), (6, 1), (1,)]]
    x, y = tape.constant(x_arr), tape.constant(y_arr)
    if x.array.ndim == 3:
        params = [ad.broadcast_to(p, (1,) * (3 - p.array.ndim) + p.shape) for p in params]
    losses = []
    for _ in range(2):
        pred = ad.affine(ad.affine_tanh(x, params[0], params[1]), params[2], params[3])
        losses.append(ad.mse(pred, y))
        params = ad.grad_through_update(params, ad.grad(losses[-1], params), alpha=0.3)
    pred = ad.affine(ad.affine_tanh(x, params[0], params[1]), params[2], params[3])
    return tape, x, y, losses, ad.mse(pred, y)


class TestReplay:
    def test_rejects_non_terminal_indices_and_wrong_shapes(self):
        tape, x, y, losses, loss = two_step_adaptation(np.ones((1, 5, 1)), np.zeros((1, 5, 1)))
        for idx in (loss.index, losses[0].index, len(tape), -1):
            with pytest.raises(ad.AutodiffError, match="not a leaf or constant"):
                ad.BatchedReplay(tape, [x.index, y.index, idx], [loss.index])
        replay = ad.BatchedReplay(tape, [x.index, y.index], [loss.index])
        with pytest.raises(ad.ShapeError, match=r"\(1, 5, 1\)"):
            replay([np.ones((3, 4, 1)), np.ones((3, 5, 1))])
        with pytest.raises(ad.ShapeError):
            replay([np.ones((3, 5, 1)), np.ones((3, 5))])
        # a call leaves the recorded tape as it was
        recorded = [n.array.tobytes() for n in tape.nodes]
        replay([np.full((3, 5, 1), 2.0), np.ones((3, 5, 1))])
        assert [n.array.tobytes() for n in tape.nodes] == recorded

    def test_graphs_holding_recorded_values_are_not_replayable(self):
        tape, x, y, _, _ = two_step_adaptation(np.ones((5, 1)), np.zeros((5, 1)))
        ad.check_replayable(tape, [x.index, y.index])
        with pytest.raises(ad.AutodiffError, match=f"node {y.index} \\(const\\)"):
            ad.check_replayable(tape, [x.index])  # y stays a recorded data array
        for build in (
            lambda t, v: ad.relu(v),
            lambda t, v: ad.detach(ad.sin(v)),
            lambda t, v: ad.grad_through_update([v], [np.ones(2)], first_order=True)[0],
        ):
            t = ad.Tape()
            v = t.leaf([1.0, -1.0])
            build(t, v)
            with pytest.raises(ad.AutodiffError, match="a replay cannot recompute"):
                ad.check_replayable(t, [])


def stacked_case(x_arr, y_arr, seed):
    """A graph of every op kind a batched replay computes, recorded for a
    stack of one task on the (1, n, m) constants x, y, with weights drawn
    from `seed`: reductions over each axis past the task axis, with and
    without their summed axes kept, shared 2-D weights and biases,
    transposed products, and recorded gradient steps toward per-task
    parameter copies, one with MetaSGD's shared 2-D rates."""
    _, n, m = np.shape(x_arr)
    rng = np.random.default_rng(seed)
    tape = ad.Tape()
    w, b = tape.leaf(rng.normal(size=(m, m))), tape.leaf(rng.normal(size=(m,)))
    rw, rb = (tape.leaf(rng.uniform(0.5, 1.5, size=s)) for s in [(m, m), (m,)])
    x, y = tape.constant(x_arr), tape.constant(y_arr)
    h = ad.affine_tanh(ad.smul(x, 1.5), w, b)
    s1, s2 = ad.vsum(h, axis=1), ad.vsum(h, axis=2, keepdims=True)  # (1, m), (1, n, 1)
    s12 = ad.vsum(h, axis=(1, 2), keepdims=True)
    m12, m2 = ad.mean(ad.mul(h, y), axis=(1, 2)), ad.mean(ad.sub(h, y), axis=2)  # (1,), (1, n)
    gram = ad.matmul(h, y, ta=True)  # (1, m, m)
    outer = ad.matmul(ad.sadd(y, 0.5), h, tb=True)  # (1, n, n)
    mixed = ad.add_n([ad.mul(s2, b), ad.div(s12, ad.sadd(ad.square(h), 1.0)), b])  # (1, n, m)
    pred = ad.affine(h, ad.sub(gram, ad.smul(w, 0.1)), ad.vsum(mixed, axis=1, keepdims=True))
    scaled = ad.mul(ad.tanh(pred), ad.rsqrt(ad.sadd(ad.square(pred), 1.0)))
    wt, bt = ad.broadcast_to(w, (1, m, m)), ad.broadcast_to(b, (1, 1, m))
    loss = ad.mse(ad.affine(h, wt, bt), y)  # one loss per task
    gw, gb = ad.grad(loss, [wt, bt])
    steps = ad.grad_through_update([wt, bt], [gw, gb], alpha=0.3)
    rated = ad.grad_through_update([wt, bt], [gw, gb], rates=[rw, rb])
    outputs = [loss, s1, m12, m2, ad.vsum(outer, axis=2), scaled, *steps, *rated,
               ad.mean(ad.sin(ad.cos(s1)), axis=1)]
    return tape, (x.index, y.index), outputs


class TestBatchedReplay:
    """A stack of tasks replayed at once carries, in each task's slice, the
    bits of the graph recorded afresh on that task's data."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 5),
           tasks=st.integers(1, 5))
    def test_each_slice_is_the_task_replayed_alone(self, seed, n, m, tasks):
        rng = np.random.default_rng(seed)
        stacks = [rng.normal(size=(tasks, n, m)) for _ in range(2)]
        tape, inputs, outputs = stacked_case(np.zeros((1, n, m)), np.zeros((1, n, m)), seed)
        got = ad.BatchedReplay(tape, inputs, [v.index for v in outputs])(stacks)
        for t in range(tasks):
            _, _, alone = stacked_case(*(stack[t:t + 1] for stack in stacks), seed)
            for v, stacked in zip(alone, got):
                assert stacked.shape == (tasks,) + v.shape[1:]
                assert stacked[t:t + 1].tobytes() == v.array.tobytes()

    def test_a_recorded_adaptation_replays_on_every_task(self):
        # each slice: the bits of the stack of one and of the 2-D adaptation,
        # each recorded afresh on that task's data
        tape, x, y, losses, loss = two_step_adaptation(np.ones((1, 5, 1)), np.zeros((1, 5, 1)))
        rng = np.random.default_rng(0)
        xs, ys = rng.normal(size=(4, 5, 1)), rng.normal(size=(4, 5, 1))
        outputs = [lv.index for lv in losses] + [loss.index]
        got = ad.BatchedReplay(tape, (x.index, y.index), outputs)([xs, ys])
        for t in range(4):
            _, _, _, fresh_losses, fresh_loss = two_step_adaptation(xs[t:t + 1], ys[t:t + 1])
            want = [v.array.tobytes() for v in fresh_losses + [fresh_loss]]
            assert [v[t:t + 1].tobytes() for v in got] == want
            _, _, _, flat_losses, flat_loss = two_step_adaptation(xs[t], ys[t])
            assert [v[t].tobytes() for v in got] == [v.array.tobytes() for v in flat_losses + [flat_loss]]

    def test_rejects_what_it_cannot_stack(self):
        tape, x, y, losses, loss = two_step_adaptation(np.ones((1, 5, 1)), np.zeros((1, 5, 1)))
        with pytest.raises(ad.AutodiffError, match="not a leaf or constant"):
            ad.BatchedReplay(tape, [loss.index], [loss.index])
        with pytest.raises(ad.AutodiffError, match="a replay cannot recompute"):
            ad.BatchedReplay(tape, [x.index], [loss.index])  # y stays a recorded data array
        with pytest.raises(ad.AutodiffError, match="depends on no input"):
            ad.BatchedReplay(tape, [x.index, y.index], [tape.leaves[0]])
        replay = ad.BatchedReplay(tape, [x.index, y.index], [loss.index])
        with pytest.raises(ad.ShapeError, match=r"\(1, 5, 1\)"):
            replay([np.ones((2, 4, 1)), np.ones((2, 5, 1))])
        with pytest.raises(ad.ShapeError):
            replay([np.ones((2, 5, 1)), np.ones((3, 5, 1))])  # unequal task counts
        with pytest.raises(ad.AutodiffError, match="2 input stacks"):
            replay([np.ones((2, 5, 1))])
        flat, fx, fy, _, flat_loss = two_step_adaptation(np.ones((5, 1)), np.zeros((5, 1)))
        with pytest.raises(ad.AutodiffError, match="no leading task axis"):
            ad.BatchedReplay(flat, [fx.index, fy.index], [flat_loss.index])

    @pytest.mark.parametrize("kind, build", [
        ("reshape", lambda t, c: ad.reshape(c, (1, 4))),
        ("broadcast", lambda t, c: ad.broadcast_to(c, (1, 2, 2))),
        ("concat", lambda t, c: ad.concat([c, c], axis=1)),
        ("slice", lambda t, c: ad.slice_axis(c, 2, 0, 1)),
        ("transpose", lambda t, c: ad.transpose(ad.mean(ad.vsum(c, axis=1, keepdims=True), axis=2))),
        ("cosine", lambda t, c: ad.cosine_similarity(ad.vsum(c, axis=(1, 2)), ad.mean(c, axis=(1, 2)))),
        ("sum over the task axis", lambda t, c: ad.vsum(c, axis=0)),
        ("kept sum over the task axis", lambda t, c: ad.vsum(c, axis=(0, 2), keepdims=True)),
        ("sum over every axis", lambda t, c: ad.vsum(c)),
        ("mean over the task axis", lambda t, c: ad.mean(ad.vsum(c, axis=1, keepdims=True), axis=0)),
        ("mean over every axis", lambda t, c: ad.mean(c)),
        ("no leading axis of length 1", lambda t, c: ad.add(c, t.leaf(np.ones((3, 1, 1))))),
        ("a 2-D loss", lambda t, c: ad.mse(ad.vsum(c, axis=2), ad.mean(c, axis=2))),
        ("a task axis broadcast onto another", lambda t, c: ad.add(ad.vsum(c, axis=2), t.leaf(np.ones((1, 1, 2))))),
        ("a product over the task axis", lambda t, c: ad.matmul(ad.vsum(c, axis=2), t.leaf(np.ones((2, 3))))),
    ])
    def test_rejects_each_kind_of_node_it_cannot_stack(self, kind, build):
        # at construction, whatever the shape of the recorded value
        t = ad.Tape()
        c = t.constant(np.arange(1.0, 5.0).reshape(1, 2, 2))
        out = build(t, c)
        with pytest.raises(ad.AutodiffError, match="cannot stack"):
            ad.BatchedReplay(t, [c.index], [out.index])
