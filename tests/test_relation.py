import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relmeta.autodiff as ad
import relmeta.metalearn as ml
import relmeta.nn as nn
import relmeta.relation as rel
import relmeta.tasks as tk
from fd import finite_diff, rel_err


def vec(tape, values):
    return tape.leaf(np.asarray(values, dtype=np.float64))


def plain_cosine(u, v):
    return float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


class TestSimilarityLayer:
    def test_init_all_ones(self):
        layer = rel.SimilarityLayer(4, 40)
        assert layer.omega.shape == (4, 40)
        assert np.all(layer.omega == 1.0)

    def test_rejects_bad_config(self):
        with pytest.raises(rel.RelationError):
            rel.SimilarityLayer(0, 40)
        with pytest.raises(rel.RelationError):
            rel.SimilarityLayer(4, 0)


class TestTaskRepresentation:
    def test_single_sample_is_feature_row(self):
        m = nn.init_model([1, 8, 8], 1, seed=0)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        md = tk.MetaData(np.array([[0.7]]), np.array([[0.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
        z = rel.task_representation(mv, md)
        feats = nn.forward_features(mv, tape.constant(np.array([[0.7]])))
        assert np.allclose(z.array, feats.array[0], atol=1e-15)

    def test_duplicate_samples_idempotent(self):
        m = nn.init_model([1, 8, 8], 1, seed=1)
        tape = ad.Tape()
        mv = nn.bind(m, tape)
        one = tk.MetaData(np.array([[1.2]]), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        two = tk.MetaData(np.array([[1.2], [1.2]]), np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.allclose(rel.task_representation(mv, one).array,
                           rel.task_representation(mv, two).array, atol=1e-15)

    def test_zero_extractor_gives_zero_vector(self):
        m = nn.init_model([1, 8], 1, seed=0)
        m.extractor[0][0].fill(0.0)
        mv = nn.bind(m, ad.Tape())
        md = tk.MetaData(np.array([[1.0], [2.0]]), np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.all(rel.task_representation(mv, md).array == 0.0)

    def test_empty_metadata_rejected(self):
        m = nn.init_model([1, 8], 1, seed=0)
        mv = nn.bind(m, ad.Tape())
        md = tk.MetaData(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(rel.RelationError, match="support"):
            rel.task_representation(mv, md)


def relation(omega, z_i, z_j):
    """The one relation value of a two-task matrix."""
    return float(rel.build_matrix(omega, [z_i, z_j]).values()[0, 1])


def weight(omega, z_i, z_j):
    """The one trust weight of a two-task matrix, a 0-d Var."""
    return rel.build_matrix(omega, [z_i, z_j]).weights[0][1]


def positive_pair(omega0, z1, z2):
    """z1 and z2 or -z2, whichever makes the relation positive (it is odd in
    z2); there the weight's gradient is the relation's."""
    tape = ad.Tape()
    m = relation(tape.leaf(omega0), vec(tape, z1), vec(tape, z2))
    assert m != 0.0
    return z1, (z2 if m > 0 else -z2)


class TestComputeRelation:
    """One relation and its weight: build_matrix on two tasks."""

    def test_self_relation_is_one(self):
        tape = ad.Tape()
        omega = tape.leaf(np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 5)))
        z = vec(tape, [1.0, -2.0, 0.5, 3.0, 0.1])
        assert relation(omega, z, z) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((4, 2)))
        a = vec(tape, [1.0, 0.0])
        b = vec(tape, [0.0, 1.0])
        assert relation(omega, a, b) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tape = ad.Tape()
            omega = tape.leaf(rng.uniform(0.1, 2.0, size=(2, 6)))
            z1 = rng.normal(size=6)
            z2 = rng.normal(size=6)
            c = rng.uniform(1e-3, 10.0)
            base = relation(omega, vec(tape, z1), vec(tape, z2))
            scaled = relation(omega, vec(tape, c * z1), vec(tape, z2))
            assert abs(base - scaled) < 1e-9

    def test_all_ones_masks_reduce_to_plain_cosine(self):
        rng = np.random.default_rng(4)
        for k in (1, 3, 7):
            tape = ad.Tape()
            omega = tape.leaf(np.ones((k, 8)))
            z1, z2 = rng.normal(size=8), rng.normal(size=8)
            got = relation(omega, vec(tape, z1), vec(tape, z2))
            assert abs(got - plain_cosine(z1, z2)) < 1e-12

    def test_zero_norm_contributes_zero_not_nan(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((2, 3)))
        z = vec(tape, [0.0, 0.0, 0.0])
        other = vec(tape, [1.0, 2.0, 3.0])
        assert relation(omega, z, other) == 0.0

    def test_mask_zeroing_one_head(self):
        # One head masked to a zero vector: that head yields 0, the other
        # the plain cosine, so the mean halves it.
        tape = ad.Tape()
        omega = tape.leaf(np.array([[1.0, 1.0], [0.0, 0.0]]))
        a = vec(tape, [1.0, 1.0])
        b = vec(tape, [1.0, 0.0])
        want = plain_cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) / 2.0
        assert relation(omega, a, b) == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((2, 3)))
        with pytest.raises(rel.RelationError, match="width"):
            rel.build_matrix(omega, [vec(tape, [1.0, 2.0]), vec(tape, [1.0, 2.0])])
        with pytest.raises(rel.RelationError, match="1-D"):
            rel.build_matrix(omega, [vec(tape, [[1.0, 2.0, 3.0]]), vec(tape, [[1.0, 2.0, 3.0]])])
        with pytest.raises(rel.RelationError, match="1-D"):
            rel.build_matrix(omega, [vec(tape, [1.0, 2.0, 3.0]), vec(tape, [1.0, 2.0])])

    def test_gradient_wrt_masks_matches_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            omega0 = rng.uniform(0.5, 1.5, size=(2, 4))
            z1, z2 = positive_pair(omega0, rng.normal(size=4), rng.normal(size=4))

            def f(flat):
                tape = ad.Tape()
                om = tape.leaf(flat.reshape(2, 4))
                return float(weight(om, vec(tape, z1), vec(tape, z2)).array)

            tape = ad.Tape()
            om = tape.leaf(omega0)
            w = weight(om, vec(tape, z1), vec(tape, z2))
            analytic = ad.backward(w)[om.index].array.ravel()
            numeric = finite_diff(f, omega0.ravel())
            assert rel_err(analytic, numeric) < 1e-4

    def test_gradient_wrt_representations_matches_fd(self):
        rng = np.random.default_rng(6)
        omega0 = rng.uniform(0.5, 1.5, size=(3, 4))
        z1, z2 = positive_pair(omega0, rng.normal(size=4), rng.normal(size=4))

        def f(flat):
            tape = ad.Tape()
            om = tape.leaf(omega0)
            return float(weight(om, tape.leaf(flat), vec(tape, z2)).array)

        tape = ad.Tape()
        v1 = tape.leaf(z1)
        w = weight(tape.leaf(omega0), v1, vec(tape, z2))
        analytic = ad.backward(w)[v1.index].array
        assert rel_err(analytic, finite_diff(f, z1)) < 1e-4


class TestBuildMatrix:
    def rand_reps(self, tape, rng, n, width=6):
        return [vec(tape, rng.normal(size=width)) for _ in range(n)]

    def test_identical_reps_all_ones(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((2, 4)))
        z = np.array([0.3, -1.0, 2.0, 0.5])
        matrix = rel.build_matrix(omega, [vec(tape, z) for _ in range(4)])
        m = matrix.values()
        off = m[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)

    def test_two_tasks_single_value(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((1, 3)))
        matrix = rel.build_matrix(omega, self.rand_reps(tape, np.random.default_rng(0), 2, 3))
        m = matrix.values()
        assert m[0, 1] == m[1, 0]
        assert matrix.weights[0][1] is matrix.weights[1][0]

    def test_one_var_per_pair_and_values_are_its_floats(self):
        n = 4
        tape = ad.Tape()
        omega = tape.leaf(np.ones((2, 3)))
        matrix = rel.build_matrix(omega, self.rand_reps(tape, np.random.default_rng(9), n, 3))
        values = matrix.values()
        assert not values.flags.writeable and np.all(np.diag(values) == 0.0)
        weights = matrix.weights
        assert len({id(w) for row in weights for w in row if w is not None}) == n * (n - 1) // 2
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert weights[i][j] is weights[j][i]
                    assert float(weights[i][j].array) == max(values[i, j], 0.0) + rel.WEIGHT_FLOOR

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            tape = ad.Tape()
            omega0 = rng.uniform(0.2, 2.0, size=(3, 5))
            omega = tape.leaf(omega0)
            zs = [rng.normal(size=5) for _ in range(4)]
            matrix = rel.build_matrix(omega, [vec(tape, z) for z in zs])
            m = matrix.values()
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    want = np.mean([plain_cosine(omega0[k] * zs[i], omega0[k] * zs[j])
                                    for k in range(3)])
                    assert m[i, j] == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_bounds_random_batches(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            tape = ad.Tape()
            omega = tape.leaf(rng.uniform(0.1, 3.0, size=(2, 4)))
            n = int(rng.integers(2, 6))
            m = rel.build_matrix(omega, self.rand_reps(tape, rng, n, 4)).values()
            assert np.array_equal(m, m.T)
            assert np.all(m >= -1.0 - 1e-12) and np.all(m <= 1.0 + 1e-12)

    def test_one_masked_product_per_head_and_task(self):
        n, k = 5, 3
        tape = ad.Tape()
        omega = tape.leaf(np.random.default_rng(5).uniform(0.5, 1.5, size=(k, 4)))
        reps = self.rand_reps(tape, np.random.default_rng(6), n, 4)
        before = len(tape)
        rel.build_matrix(omega, reps)
        ops = [node.op for node in tape.nodes[before:]]
        assert ops.count("elementwise-mul") == k * n
        assert ops.count("cosine-similarity") == k * n * (n - 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(1, 4),
           width=st.integers(1, 6))
    def test_values_are_bitwise_the_per_pair_products(self, seed, n, k, width):
        # the per-pair form: both masked products recorded again for every pair
        rng = np.random.default_rng(seed)
        omega0 = rng.uniform(0.1, 3.0, size=(k, width))
        zs = [rng.normal(size=width) for _ in range(n)]
        tape = ad.Tape()
        omega = tape.leaf(omega0)
        reps = [vec(tape, z) for z in zs]
        masks = [ad.reshape(ad.slice_axis(omega, 0, h, h + 1), (width,)) for h in range(k)]
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                total = None
                for w_k in masks:
                    c = ad.cosine_similarity(ad.mul(w_k, reps[i]), ad.mul(w_k, reps[j]))
                    total = c if total is None else ad.add(total, c)
                want[i, j] = want[j, i] = float(ad.smul(total, 1.0 / k).array)
        assert rel.build_matrix(omega, reps).values().tobytes() == want.tobytes()

    def test_rejects_single_task(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((1, 3)))
        with pytest.raises(rel.RelationError, match="at least 2"):
            rel.build_matrix(omega, [vec(tape, [1.0, 2.0, 3.0])])

    def test_zero_norm_heads_warn_once_with_count(self, caplog):
        # One zero representation among 4 tasks with 4 heads: its 3 pairs
        # have 12 zero-norm masked cosines out of 24, reported once.
        tape = ad.Tape()
        omega = tape.leaf(np.ones((4, 3)))
        reps = [vec(tape, [0.0, 0.0, 0.0])] + self.rand_reps(tape, np.random.default_rng(2), 3, 3)
        with caplog.at_level(logging.WARNING, logger="relmeta.relation"):
            rel.build_matrix(omega, reps)
        assert [r.getMessage() for r in caplog.records] == [
            "12 of 24 masked cosines had a zero-norm representation and contribute 0"
        ]

    def test_diagonal_undefined(self):
        tape = ad.Tape()
        omega = tape.leaf(np.ones((1, 3)))
        matrix = rel.build_matrix(omega, self.rand_reps(tape, np.random.default_rng(1), 3, 3))
        assert [matrix.weights[i][i] for i in range(3)] == [None] * 3
        assert np.all(np.diag(matrix.values()) == 0.0)

    def test_entries_reach_omega_gradient(self):
        tape = ad.Tape()
        omega = tape.leaf(np.random.default_rng(2).uniform(0.5, 1.5, size=(2, 4)))
        matrix = rel.build_matrix(omega, self.rand_reps(tape, np.random.default_rng(6), 3, 4))
        assert np.any(matrix.values() > 0.0)
        total = matrix.weights[0][1]
        for i, j in ((0, 2), (1, 2)):
            total = ad.add(total, matrix.weights[i][j])
        g = ad.backward(total)[omega.index].array
        assert np.any(g != 0.0)


class TestMatrixInvariants:
    """Permutation equivariance and invariance to scaling one omega row."""

    @staticmethod
    def case(seed, n, k, width):
        rng = np.random.default_rng(seed)
        return rng, rng.uniform(0.1, 3.0, size=(k, width)), [rng.normal(size=width) for _ in range(n)]

    @staticmethod
    def values(omega0, zs):
        tape = ad.Tape()
        return rel.build_matrix(tape.leaf(omega0), [vec(tape, z) for z in zs]).values()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(1, 3),
           width=st.integers(1, 6))
    def test_permuting_representations_permutes_matrix(self, seed, n, k, width):
        rng, omega0, zs = self.case(seed, n, k, width)
        perm = rng.permutation(n)
        permuted = self.values(omega0, [zs[p] for p in perm])
        assert permuted.tobytes() == self.values(omega0, zs)[np.ix_(perm, perm)].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(1, 3),
           width=st.integers(1, 6), c=st.floats(1e-3, 1e3))
    def test_scaling_one_omega_row_moves_nothing(self, seed, n, k, width, c):
        rng, omega0, zs = self.case(seed, n, k, width)
        scaled = omega0.copy()
        scaled[rng.integers(k)] *= c
        assert np.max(np.abs(self.values(scaled, zs) - self.values(omega0, zs))) <= 1e-12


class TestWeights:
    @staticmethod
    def make_matrix(reps):
        """build_matrix on the plain cosines (one all-ones head) of `reps`."""
        tape = ad.Tape()
        reps = [vec(tape, z) for z in reps]
        return rel.build_matrix(tape.leaf(np.ones((1, reps[0].shape[0]))), reps)

    @staticmethod
    def dense(matrix):
        return np.array([[0.0 if w is None else float(w.array) for w in row] for row in matrix.weights])

    def test_clamp_examples(self):
        # cosines: (0, 1) -1, (0, 2) 0.8, (1, 2) -0.8
        matrix = self.make_matrix([[1.0, 0.0], [-1.0, 0.0], [0.8, 0.6]])
        w = self.dense(matrix)
        assert w[0, 1] == rel.WEIGHT_FLOOR and w[1, 2] == rel.WEIGHT_FLOOR
        assert w[0, 2] == pytest.approx(0.8 + 1e-6, abs=1e-15)
        assert np.all(np.diag(w) == 0.0)

    def test_all_negative_row_positive_sum(self):
        # task 0 is opposed to both others
        matrix = self.make_matrix([[1.0, 0.0], [-1.0, 0.1], [-1.0, -0.1]])
        assert np.all(matrix.values()[0, 1:] < 0.0)
        assert np.all(self.dense(matrix).sum(axis=1) > 0.0)

    def test_weights_are_the_clamped_values(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            matrix = self.make_matrix([rng.normal(size=3) for _ in range(n)])
            want = np.maximum(matrix.values(), 0.0) + rel.WEIGHT_FLOOR
            np.fill_diagonal(want, 0.0)
            assert self.dense(matrix).tobytes() == want.tobytes()

    def test_weights_follow_their_pair(self):
        # each pair's relation (its scalar-mul) is followed by its relu and
        # scalar-add; trlearner_loss records no weight of its own
        n = 4
        config = ml.MetaConfig(hidden=(8,), batch_tasks=n)
        model = nn.init_model([1, 8], n, 0)
        source = tk.TaskSource("sinusoid", 5, 5, seed=0)
        batch = tk.make_task_batch(source.train_batch(0, 0, n), "uniform", None, seed=(0, 4, 0, 0))
        tape = ad.Tape()
        mv = nn.bind(model, tape)
        reps = [rel.task_representation(mv, md) for md in batch.metadata]
        before = len(tape)
        matrix = rel.build_matrix(tape.leaf(np.ones((2, 8))), reps)
        ops = [node.op for node in tape.nodes[before:]]
        pairs = [k for k, op in enumerate(ops) if op == "scalar-mul"]
        assert len(pairs) == n * (n - 1) // 2
        assert all(ops[k + 1:k + 3] == ["relu", "scalar-add"] for k in pairs)
        assert ops.count("relu") == ops.count("scalar-add") == len(pairs)
        adapted = [ml.inner_adapt(mv, i, batch.metadata[i], config) for i in range(n)]
        x, y = tape.constant(batch.metadata[0].query_x), tape.constant(batch.metadata[0].query_y)
        before = len(tape)
        ml.trlearner_loss(adapted, matrix, 0, x, y)
        assert not {node.op for node in tape.nodes[before:]} & {"relu", "scalar-add"}

    def test_dense_view_built_once_read_only(self):
        matrix = self.make_matrix(np.random.default_rng(1).normal(size=(3, 4)))
        dense = matrix.values()
        assert matrix.values() is dense and not dense.flags.writeable
        w = self.dense(matrix)
        assert rel.export_normalized(matrix)[1, 2] == w[1, 2] / (w[1, 0] + w[1, 2])

    def test_normalized_two_tasks(self):
        matrix = self.make_matrix([[0.3, 1.0], [1.0, 0.2]])
        norm = rel.export_normalized(matrix)
        assert norm[0, 1] == 1.0 and norm[1, 0] == 1.0

    def test_normalized_uniform(self):
        matrix = self.make_matrix([[0.5, -1.0, 2.0]] * 4)
        norm = rel.export_normalized(matrix)
        off = norm[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 1.0 / 3.0, atol=1e-12)

    def test_normalized_row_sums(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            norm = rel.export_normalized(self.make_matrix(rng.normal(size=(n, 3))))
            assert np.allclose(norm.sum(axis=1), 1.0, atol=1e-12)
