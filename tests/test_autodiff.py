import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relmeta import autodiff as ad

from fd import finite_diff, rel_err


def scalar_mlp_loss(tape, params, x, y):
    """Two-layer tanh MLP with scalar MSE loss; params = [W1, b1, W2, b2]."""
    w1, b1, w2, b2 = params
    h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
    pred = ad.add(ad.matmul(h, w2), b2)
    return ad.mean(ad.square(ad.sub(pred, y)))


def make_mlp_case(rng, n=5, din=2, dh=4):
    tape = ad.Tape(checked=True)
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

    def test_cross_tape_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.AutodiffError, match="different tapes"):
            ad.add(t1.leaf([1.0]), t2.leaf([1.0]))

    def test_checked_mode_rejects_nonfinite(self):
        tape = ad.Tape(checked=True)
        a = tape.leaf([1e308])
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="square"):
            ad.square(a)
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor([np.nan], checked=True)

    def test_tensor_contract(self):
        t = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert list(t.data) == [1.0, 2.0, 3.0, 4.0]
        assert int(np.prod(t.shape)) == t.data.size


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
        tape = ad.Tape(checked=True)
        va, vb = tape.leaf(a), tape.leaf(b)
        grads = ad.backward(ad.vsum(ad.mul(fn(va, vb), tape.constant(weights))))

        def f_a(x):
            return float(np.sum(ref(x, b) * weights))

        def f_b(x):
            return float(np.sum(ref(a, x) * weights))

        assert grads[va.index].shape == shape_a and grads[vb.index].shape == shape_b
        assert rel_err(grads[va.index].array, finite_diff(f_a, a.copy())) < 1e-6
        assert rel_err(grads[vb.index].array, finite_diff(f_b, b.copy())) < 1e-6


class TestBackward:
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

    def test_seed_shape_mismatch(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ad.ShapeError, match="seed"):
            ad.backward(ad.square(x), seed=np.ones((3,)))

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
        rng = np.random.default_rng(3)
        tape, params, arrs, x, y = make_mlp_case(rng)
        loss = scalar_mlp_loss(tape, params, x, y)
        ad.backward(loss)
        recorded = [n.array for n in tape.nodes]
        replayed = tape.replay()
        assert len(recorded) == len(replayed)
        for a, b in zip(recorded, replayed):
            assert np.array_equal(a, b)  # bitwise

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


class TestGradThroughUpdate:
    def test_hand_worked_quadratic(self):
        # L(p) = p^2 at p=1, a=0.1: p' = 0.8, L(p') = 0.64, dL(p')/dp = 2p'(1-2a) = 1.28
        tape = ad.Tape()
        p = tape.leaf(1.0)

        def loss_fn(ps):
            return ad.square(ps[0])

        (p1,) = ad.grad_through_update(loss_fn, [p], alpha=0.1)
        assert p1.array == pytest.approx(0.8)
        outer = ad.square(p1)
        assert outer.array == pytest.approx(0.64)
        g = ad.backward(outer)[p.index].array
        assert g == pytest.approx(1.28, rel=1e-12)

    def test_first_order_detaches(self):
        # same case, inner gradient treated as constant: dL(p')/dp = 2p' = 1.6
        tape = ad.Tape()
        p = tape.leaf(1.0)

        def loss_fn(ps):
            return ad.square(ps[0])

        (p1,) = ad.grad_through_update(loss_fn, [p], alpha=0.1, first_order=True)
        g = ad.backward(ad.square(p1))[p.index].array
        assert g == pytest.approx(1.6, rel=1e-12)

    def test_alpha_zero_is_plain_gradient(self):
        tape = ad.Tape()
        p = tape.leaf(1.7)

        def loss_fn(ps):
            return ad.square(ps[0])

        (p1,) = ad.grad_through_update(loss_fn, [p], alpha=0.0)
        assert np.array_equal(p1.array, p.array)
        g = ad.backward(ad.square(p1))[p.index].array
        assert g == pytest.approx(2 * 1.7, rel=1e-12)

    def test_detached_grads_rejected_in_second_order(self):
        tape = ad.Tape()
        p = tape.leaf(2.0)
        fake_grad = tape.constant(4.0)
        with pytest.raises(ad.DetachedGradientError):
            ad.grad_through_update(None, [p], inner_grads=[fake_grad], alpha=0.1)

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

                def loss_fn(ps):
                    return scalar_mlp_loss(t, ps, xs, ys)

                adapted = ad.grad_through_update(loss_fn, params, alpha=alpha)
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

        def loss_fn(ps):
            return ad.vsum(ad.square(ps[0]))

        (p1,) = ad.grad_through_update(loss_fn, [p], rates=[r])
        assert np.allclose(p1.array, [1.0 - 0.1 * 2.0, 2.0 - 0.5 * 4.0])
