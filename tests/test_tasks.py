import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relmeta.tasks as tk


def spread(xs):
    """Smallest pairwise distance of a 1-D set of at least two points."""
    return float(min(abs(a - b) for a, b in itertools.combinations(xs, 2)))


def make_task(family="sinusoid", **params):
    """Hand-built noise-free task on a fixed x grid."""
    defaults = {
        "sinusoid": {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
        "harmonic": {"omega": 5.0, "phase1": 0.0, "phase2": 0.0, "amp1": 0.0, "amp2": 0.0},
    }[family]
    defaults.update(params)
    xs = np.linspace(-4, 4, 8)
    t = tk.TaskInstance(family, defaults, 0.0, xs[:5], np.zeros(5), xs[5:], np.zeros(3))
    t.support_y[:, 0] = t.analytic(t.support_x[:, 0])
    t.query_y[:, 0] = t.analytic(t.query_x[:, 0])
    return t


class TestGenerators:
    def test_sinusoid_known_point(self):
        t = make_task("sinusoid", amplitude=1.0, frequency=1.0, offset=0.0)
        assert t.analytic(np.pi / 2) == pytest.approx(1.0)

    def test_harmonic_zero_amplitudes(self):
        t = make_task("harmonic", amp1=0.0, amp2=0.0)
        xs = np.linspace(-5, 5, 50)
        assert np.all(t.analytic(xs) == 0.0)

    def test_harmonic_frequency_ratio(self):
        # With amp1=0 the signal must be periodic in pi/omega exactly.
        t = make_task("harmonic", amp1=0.0, amp2=1.0, omega=5.0, phase2=0.3)
        xs = np.linspace(-4, 4, 33)
        period = 2.0 * np.pi / (2 * 5.0)
        assert np.allclose(t.analytic(xs), t.analytic(xs + period), atol=1e-12)

    def test_sinusoid_parameter_ranges(self):
        for seed in range(10_000):
            t = tk.gen_sinusoid(seed, 1, 1, 0.0)
            p = t.params
            assert 0.1 <= p["amplitude"] <= 5.0
            assert 0.5 <= p["frequency"] <= 2.0
            assert 0.0 <= p["offset"] <= 2.0 * np.pi

    def test_harmonic_parameter_ranges(self):
        for seed in range(10_000):
            p = tk.gen_harmonic(seed, 1, 1, 0.0).params
            assert 5.0 <= p["omega"] <= 7.0
            assert 0.0 <= p["phase1"] <= 2.0 * np.pi
            assert 0.0 <= p["phase2"] <= 2.0 * np.pi

    def test_x_domain_per_family(self):
        for gen, family in ((tk.gen_sinusoid, "sinusoid"), (tk.gen_harmonic, "harmonic")):
            low, high = tk.X_RANGES[family]
            for seed in range(200):
                t = gen(seed, 10, 15)
                xs = np.concatenate([t.support_x, t.query_x])
                assert np.all((xs >= low) & (xs <= high))

    def test_split_sizes(self):
        t = tk.gen_harmonic(3, 10, 15)
        assert t.n_support == 10 and t.n_query == 15

    def test_determinism(self):
        a = tk.gen_sinusoid(42, 10, 15)
        b = tk.gen_sinusoid(42, 10, 15)
        assert a.params == b.params
        assert np.array_equal(a.support_x, b.support_x)
        assert np.array_equal(a.query_y, b.query_y)
        c = tk.gen_sinusoid(43, 10, 15)
        assert a.params != c.params

    def test_noise_free_fidelity(self):
        for gen in (tk.gen_sinusoid, tk.gen_harmonic):
            for seed in range(50):
                t = gen(seed, 10, 15, noise_sd=0.0)
                assert np.max(np.abs(t.support_y - t.analytic(t.support_x))) == 0.0
                assert np.max(np.abs(t.query_y - t.analytic(t.query_x))) == 0.0

    def test_noise_changes_targets(self):
        clean = tk.gen_sinusoid(7, 10, 15, noise_sd=0.0)
        noisy = tk.gen_sinusoid(7, 10, 15, noise_sd=0.3)
        assert np.array_equal(clean.support_x, noisy.support_x)
        assert not np.array_equal(clean.support_y, noisy.support_y)

    def test_support_query_disjoint(self):
        for seed in range(500):
            t = tk.gen_sinusoid(seed, 10, 15)
            assert not set(t.support_x[:, 0]) & set(t.query_x[:, 0])

    def test_rejects_bad_args(self):
        with pytest.raises(tk.TaskError):
            tk.gen_sinusoid(0, 0, 5)
        with pytest.raises(tk.TaskError):
            tk.gen_sinusoid(0, 5, 0)
        with pytest.raises(tk.TaskError, match="noise_sd"):
            tk.gen_harmonic(0, 5, 5, noise_sd=-0.1)

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [
        lambda sd: tk.gen_sinusoid(0, 5, 5, noise_sd=sd),
        lambda sd: tk.gen_harmonic(0, 5, 5, noise_sd=sd),
        lambda sd: tk.TaskSource("sinusoid", 5, 5, noise_sd=sd),
    ], ids=["sinusoid", "harmonic", "source"])
    def test_rejects_non_finite_noise(self, make, noise_sd):
        # NaN would read as noise-free (nan > 0 is false); inf gives infinite targets
        with pytest.raises(tk.TaskError, match="noise_sd must be finite"):
            make(noise_sd)


class TestMetadata:
    def test_full_uniform_equals_support(self):
        t = tk.gen_sinusoid(0, 10, 15)
        md = tk.extract_metadata(t, "uniform", m_samples=10, seed=5)
        assert np.array_equal(md.support_x, t.support_x)
        assert np.array_equal(md.support_y, t.support_y)
        assert np.array_equal(md.query_x, t.query_x)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           strategy=st.sampled_from(tk.METADATA_STRATEGIES), m_is_none=st.booleans())
    def test_full_support_is_the_drawn_subset(self, n, seed, strategy, m_is_none):
        # the shortcut for m = n (or None) returns what the draw would select,
        # as writeable copies, also of a read-only (pool) task
        t = tk.gen_harmonic(seed, n, 3)
        for arr in (t.support_x, t.support_y, t.query_x, t.query_y):
            arr.flags.writeable = False
        md = tk.extract_metadata(t, strategy, None if m_is_none else n, seed=(seed, 17))
        idx = tk._support_index(t, strategy, n, (seed, 17))
        pairs = [(md.support_x, t.support_x[idx]), (md.support_y, t.support_y[idx]),
                 (md.query_x, t.query_x), (md.query_y, t.query_y)]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.writeable and not any(
                np.shares_memory(got, a) for a in (t.support_x, t.support_y, t.query_x, t.query_y))

    @pytest.mark.parametrize("seed", [0, (3, 4, 1, 2)])
    def test_batch_draws_from_its_seed_sequence(self, seed):
        tasks = [tk.gen_sinusoid(i, 10, 5) for i in range(3)]
        batch = tk.make_task_batch(tasks, "uniform", 4, seed=seed)
        base = seed if isinstance(seed, tuple) else (seed,)
        for i, (t, md) in enumerate(zip(tasks, batch.metadata)):
            want = tk.extract_metadata(t, "uniform", 4, np.random.SeedSequence(base + (17, i)))
            assert np.array_equal(md.support_x, want.support_x)
            assert np.array_equal(md.support_y, want.support_y)

    def test_default_is_full_support(self):
        t = tk.gen_sinusoid(1, 10, 15)
        md = tk.extract_metadata(t)
        assert md.support_x.shape == (10, 1)

    def test_uniform_subset_and_determinism(self):
        t = tk.gen_sinusoid(2, 10, 15)
        a = tk.extract_metadata(t, "uniform", 4, seed=9)
        b = tk.extract_metadata(t, "uniform", 4, seed=9)
        assert np.array_equal(a.support_x, b.support_x)
        support = set(t.support_x[:, 0])
        assert set(a.support_x[:, 0]) <= support
        c = tk.extract_metadata(t, "uniform", 4, seed=10)
        assert a.support_x.shape == c.support_x.shape == (4, 1)

    def test_scored_picks_extreme_pair(self):
        t = make_task()
        t.support_x = np.array([[0.0], [0.01], [5.0]])
        t.support_y = t.analytic(t.support_x)
        md = tk.extract_metadata(t, "scored", 2)
        assert sorted(md.support_x[:, 0]) == [0.0, 5.0]
        assert spread(md.support_x[:, 0]) == pytest.approx(5.0)

    def test_scored_matches_brute_force(self):
        # Greedy spread must match exhaustive max-min search on small sets.
        def brute(xs, m):
            best = max(
                itertools.combinations(range(len(xs)), m),
                key=lambda c: spread(xs[list(c)]),
            )
            return spread(xs[list(best)])

        rng = np.random.default_rng(0)
        for _ in range(100):
            t = make_task()
            t.support_x = rng.uniform(-5, 5, size=(7, 1))
            t.support_y = t.analytic(t.support_x)
            md = tk.extract_metadata(t, "scored", 2)
            assert spread(md.support_x[:, 0]) == pytest.approx(brute(t.support_x[:, 0], 2), abs=1e-12)

    def test_subset_membership(self):
        t = tk.gen_harmonic(4, 8, 8)
        md = tk.extract_metadata(t, "scored", 5)
        support = {(x, y) for x, y in zip(t.support_x[:, 0], t.support_y[:, 0])}
        got = {(x, y) for x, y in zip(md.support_x[:, 0], md.support_y[:, 0])}
        assert got <= support and len(got) == 5

    def test_rejects_bad_sizes(self):
        t = tk.gen_sinusoid(0, 5, 5)
        with pytest.raises(tk.TaskError, match="m_samples"):
            tk.extract_metadata(t, "uniform", 0)
        with pytest.raises(tk.TaskError, match="exceeds"):
            tk.extract_metadata(t, "uniform", 6)
        with pytest.raises(tk.TaskError, match="strategy"):
            tk.extract_metadata(t, "nope", 2)


class TestTaskSource:
    def test_namespaces_disjoint(self):
        src = tk.TaskSource("sinusoid", 10, 15, seed=1)
        train = src.train_task(0, 0, 0)
        val = src.val_task(0)
        ev = src.eval_task(0)
        assert train.params != val.params != ev.params

    def test_stream_determinism(self):
        a = tk.TaskSource("harmonic", 5, 5, seed=3)
        b = tk.TaskSource("harmonic", 5, 5, seed=3)
        for t1, t2 in zip(a.train_batch(1, 2, 4), b.train_batch(1, 2, 4)):
            assert t1.params == t2.params
            assert np.array_equal(t1.query_y, t2.query_y)

    def test_slots_differ(self):
        src = tk.TaskSource("sinusoid", 5, 5, seed=0)
        batch = src.train_batch(0, 0, 4)
        params = [tuple(t.params.values()) for t in batch]
        assert len(set(params)) == 4

    def test_rejects_unknown_family(self):
        with pytest.raises(tk.TaskError, match="family"):
            tk.TaskSource("images", 5, 5)


class TestTaskPool:
    def test_pool_task_deterministic(self):
        src = tk.TaskSource("sinusoid", 10, 15, seed=5, pool_size=32)
        a, b = src.pool_task(7), src.pool_task(7)
        assert a.params == b.params
        assert np.array_equal(a.support_y, b.support_y)

    def test_pool_index_wraps(self):
        src = tk.TaskSource("sinusoid", 5, 5, seed=5, pool_size=8)
        assert src.pool_task(3).params == src.pool_task(11).params

    def test_train_draws_come_from_pool(self):
        src = tk.TaskSource("sinusoid", 5, 5, seed=9, pool_size=16)
        pool = {tuple(src.pool_task(i).params.values()) for i in range(16)}
        for epoch in range(3):
            for batch in range(4):
                for t in src.train_batch(epoch, batch, 4):
                    assert tuple(t.params.values()) in pool

    def test_pool_reuses_tasks_across_epochs(self):
        # 200 draws from a 16-task pool must collide; an unpooled stream never does.
        pooled = tk.TaskSource("sinusoid", 5, 5, seed=9, pool_size=16)
        seen = [tuple(t.params.values()) for e in range(10)
                for t in pooled.train_batch(e, 0, 20)]
        assert len(set(seen)) <= 16
        fresh = tk.TaskSource("sinusoid", 5, 5, seed=9)
        seen = [tuple(t.params.values()) for e in range(10)
                for t in fresh.train_batch(e, 0, 20)]
        assert len(set(seen)) == len(seen)

    def test_val_and_eval_stay_fresh(self):
        src = tk.TaskSource("sinusoid", 5, 5, seed=9, pool_size=4)
        pool = {tuple(src.pool_task(i).params.values()) for i in range(4)}
        for i in range(20):
            assert tuple(src.val_task(i).params.values()) not in pool
            assert tuple(src.eval_task(i).params.values()) not in pool

    def test_each_pool_index_generated_once(self, monkeypatch):
        calls = []
        gen = tk.GENERATORS["sinusoid"]

        def counting(seed, *args, **kwargs):
            calls.append(tuple(seed.entropy))
            return gen(seed, *args, **kwargs)

        monkeypatch.setitem(tk.GENERATORS, "sinusoid", counting)
        src = tk.TaskSource("sinusoid", 5, 5, seed=9, pool_size=16)
        assert calls == []  # filled lazily, not at construction
        for epoch in range(10):
            src.train_batch(epoch, 0, 20)
        assert len(calls) == len(set(calls)) == 16
        src.pool_task(3), src.pool_task(19)
        assert len(calls) == 16

    def test_cached_draw_is_bitwise_fresh(self):
        src = tk.TaskSource("harmonic", 5, 7, seed=4, pool_size=8)
        for idx in (0, 5, 13):
            src.pool_task(idx)
            cached = src.pool_task(idx)
            fresh = src._gen((src._POOL, idx % 8))
            assert cached.params == fresh.params
            for name in ("support_x", "support_y", "query_x", "query_y"):
                assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes()

    def test_cached_arrays_are_read_only(self):
        src = tk.TaskSource("sinusoid", 5, 5, seed=9, pool_size=4)
        task = src.train_batch(0, 0, 1)[0]
        for name in ("support_x", "support_y", "query_x", "query_y"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(task, name)[0, 0] = 1.0
        assert src.pool_task(0).support_y is src.pool_task(4).support_y

    def test_no_pool_raises(self):
        src = tk.TaskSource("sinusoid", 5, 5, seed=0)
        with pytest.raises(tk.TaskError, match="pool"):
            src.pool_task(0)

    def test_rejects_bad_pool_size(self):
        with pytest.raises(tk.TaskError, match="pool_size"):
            tk.TaskSource("sinusoid", 5, 5, pool_size=0)


class TestBatchAndDump:
    def test_batch_parallel_lists(self):
        src = tk.TaskSource("sinusoid", 10, 15, seed=0)
        batch = tk.make_task_batch(src.train_batch(0, 0, 4), seed=0)
        assert len(batch) == 4
        assert all(md.support_x.shape == (10, 1) for md in batch.metadata)
        with pytest.raises(tk.TaskError, match="metadata"):
            tk.TaskBatch(tasks=batch.tasks, metadata=batch.metadata[:2])
