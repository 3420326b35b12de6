"""Synthetic few-shot regression task streams.

Two families: sinusoid (amplitude/frequency/offset) and harmonic (sum of
two sine waves at a fixed 1:2 frequency ratio).  Every task carries a
support split for adaptation and a query split for evaluation, with
distinct x draws.  A TaskSource hands out tasks from namespaced seed
streams so train, validation, and evaluation never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TaskError(Exception):
    pass


# Input ranges per family.  Harmonic frequencies (5 to 14 rad/unit) sit far
# above what a unit-scale tanh net resolves over a wide window, so the family
# uses a narrow window; the model widens it back (see nn input_scale).
X_RANGES = {"sinusoid": (-5.0, 5.0), "harmonic": (-1.0, 1.0)}
DEFAULT_NOISE_SD = 0.3


class TaskInstance:
    __slots__ = ("family", "params", "noise_sd", "support_x", "support_y", "query_x", "query_y")

    def __init__(self, family, params, noise_sd, support_x, support_y, query_x, query_y):
        self.family = family
        self.params = dict(params)
        self.noise_sd = float(noise_sd)
        self.support_x = np.asarray(support_x, dtype=np.float64).reshape(-1, 1)
        self.support_y = np.asarray(support_y, dtype=np.float64).reshape(-1, 1)
        self.query_x = np.asarray(query_x, dtype=np.float64).reshape(-1, 1)
        self.query_y = np.asarray(query_y, dtype=np.float64).reshape(-1, 1)

    @property
    def n_support(self) -> int:
        return self.support_x.shape[0]

    @property
    def n_query(self) -> int:
        return self.query_x.shape[0]

    def analytic(self, x):
        """Noise-free target at x; the ground truth the noisy y wraps."""
        p = self.params
        x = np.asarray(x, dtype=np.float64)
        if self.family == "sinusoid":
            return p["amplitude"] * np.sin(p["frequency"] * x) + p["offset"]
        if self.family == "harmonic":
            return p["amp1"] * np.sin(p["omega"] * x + p["phase1"]) + p["amp2"] * np.sin(
                2.0 * p["omega"] * x + p["phase2"]
            )
        raise TaskError(f"unknown family {self.family!r}")


@dataclass
class MetaData:
    """Per-task subset used for task representations and adaptation."""

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    score: float


@dataclass
class TaskBatch:
    tasks: list
    metadata: list
    batch_seed: object

    def __post_init__(self):
        if len(self.tasks) != len(self.metadata):
            raise TaskError(
                f"batch has {len(self.tasks)} tasks but {len(self.metadata)} metadata entries"
            )

    def __len__(self) -> int:
        return len(self.tasks)


def _check_gen_args(n_support: int, n_query: int, noise_sd: float) -> None:
    if n_support < 1 or n_query < 1:
        raise TaskError(f"need n_support, n_query >= 1, got {n_support}, {n_query}")
    if noise_sd < 0:
        raise TaskError(f"noise_sd must be nonnegative, got {noise_sd}")


def _draw_x(rng, n: int, family: str) -> np.ndarray:
    # Redraw on exact collisions so support and query x never coincide.
    low, high = X_RANGES[family]
    xs = rng.uniform(low, high, size=n)
    while np.unique(xs).size != n:
        dup = np.ones(n, dtype=bool)
        dup[np.unique(xs, return_index=True)[1]] = False
        xs[dup] = rng.uniform(low, high, size=int(dup.sum()))
    return xs


def _finish(family, params, rng, n_support, n_query, noise_sd) -> TaskInstance:
    xs = _draw_x(rng, n_support + n_query, family)
    task = TaskInstance(family, params, noise_sd, xs[:n_support], np.zeros(n_support),
                        xs[n_support:], np.zeros(n_query))
    clean = task.analytic(xs)
    ys = clean + rng.normal(0.0, noise_sd, size=xs.shape) if noise_sd > 0 else clean
    task.support_y[:, 0] = ys[:n_support]
    task.query_y[:, 0] = ys[n_support:]
    return task


def gen_sinusoid(seed, n_support: int, n_query: int, noise_sd: float = DEFAULT_NOISE_SD) -> TaskInstance:
    """y = amplitude * sin(frequency * x) + offset, plus Gaussian noise."""
    _check_gen_args(n_support, n_query, noise_sd)
    rng = np.random.default_rng(seed)
    params = {
        "amplitude": rng.uniform(0.1, 5.0),
        "frequency": rng.uniform(0.5, 2.0),
        "offset": rng.uniform(0.0, 2.0 * np.pi),
    }
    return _finish("sinusoid", params, rng, n_support, n_query, noise_sd)


def gen_harmonic(seed, n_support: int, n_query: int, noise_sd: float = DEFAULT_NOISE_SD) -> TaskInstance:
    """y = amp1 * sin(omega x + phase1) + amp2 * sin(2 omega x + phase2), plus noise."""
    _check_gen_args(n_support, n_query, noise_sd)
    rng = np.random.default_rng(seed)
    params = {
        "omega": rng.uniform(5.0, 7.0),
        "phase1": rng.uniform(0.0, 2.0 * np.pi),
        "phase2": rng.uniform(0.0, 2.0 * np.pi),
        "amp1": rng.normal(0.0, 1.0),
        "amp2": rng.normal(0.0, 1.0),
    }
    return _finish("harmonic", params, rng, n_support, n_query, noise_sd)


GENERATORS = {"sinusoid": gen_sinusoid, "harmonic": gen_harmonic}


def _spread(xs: np.ndarray) -> float:
    if xs.size < 2:
        return 0.0
    d = np.abs(xs[:, None] - xs[None, :])
    return float(d[np.triu_indices(xs.size, k=1)].min())


def extract_metadata(task: TaskInstance, strategy: str = "uniform", m_samples=None, seed=0) -> MetaData:
    """Select the support subset a task is represented and adapted by.

    `uniform` draws a seeded subsample without replacement; `scored`
    greedily keeps the m points with maximal pairwise x separation
    (furthest pair first, then max-min additions).  The query subset is
    always the full query set.  Index order of the original support is
    preserved so m = n_support reproduces it exactly.
    """
    n = task.n_support
    if m_samples is None:
        m_samples = n
    if m_samples < 1:
        raise TaskError(f"m_samples must be >= 1, got {m_samples}")
    if m_samples > n:
        raise TaskError(f"m_samples {m_samples} exceeds support size {n}")

    xs = task.support_x.ravel()
    if strategy == "uniform":
        idx = np.sort(np.random.default_rng(seed).choice(n, size=m_samples, replace=False))
    elif strategy == "scored":
        if m_samples == 1:
            idx = np.array([0])
        else:
            d = np.abs(xs[:, None] - xs[None, :])
            chosen = list(np.unravel_index(np.argmax(d), d.shape))
            while len(chosen) < m_samples:
                rest = [i for i in range(n) if i not in chosen]
                chosen.append(max(rest, key=lambda i: (d[i, chosen].min(), -i)))
            idx = np.sort(np.array(chosen))
    else:
        raise TaskError(f"unknown metadata strategy {strategy!r}")

    return MetaData(
        support_x=task.support_x[idx].copy(),
        support_y=task.support_y[idx].copy(),
        query_x=task.query_x.copy(),
        query_y=task.query_y.copy(),
        score=_spread(xs[idx]),
    )


class TaskSource:
    """Deterministic task stream with disjoint train/val/eval namespaces.

    Each namespace folds a distinct tag into the seed material, so the
    three streams never share a task and paired experiments that reuse
    the base seed see identical streams.  With `pool_size` set, training
    batches resample a fixed pool of that many tasks (points and noise
    frozen per pool entry); validation and evaluation tasks are always
    fresh draws, so the pool's generalization gap is observable.
    """

    __slots__ = ("family", "n_support", "n_query", "noise_sd", "seed", "pool_size")

    _TRAIN, _VAL, _EVAL, _POOL = 1, 2, 3, 4

    def __init__(self, family: str, n_support: int, n_query: int,
                 noise_sd: float = DEFAULT_NOISE_SD, seed: int = 0, pool_size=None):
        if family not in GENERATORS:
            raise TaskError(f"unknown family {family!r}, expected one of {sorted(GENERATORS)}")
        _check_gen_args(n_support, n_query, noise_sd)
        if pool_size is not None and pool_size < 1:
            raise TaskError(f"pool_size must be >= 1, got {pool_size}")
        self.family = family
        self.n_support = n_support
        self.n_query = n_query
        self.noise_sd = noise_sd
        self.seed = int(seed)
        self.pool_size = pool_size

    def _gen(self, tag: tuple) -> TaskInstance:
        ss = np.random.SeedSequence((self.seed,) + tag)
        return GENERATORS[self.family](ss, self.n_support, self.n_query, self.noise_sd)

    def pool_task(self, idx: int) -> TaskInstance:
        if self.pool_size is None:
            raise TaskError("source has no task pool")
        return self._gen((self._POOL, idx % self.pool_size))

    def train_task(self, epoch: int, batch: int, slot: int) -> TaskInstance:
        if self.pool_size is None:
            return self._gen((self._TRAIN, epoch, batch, slot))
        ss = np.random.SeedSequence((self.seed, self._TRAIN, epoch, batch, slot))
        idx = int(np.random.default_rng(ss).integers(self.pool_size))
        return self.pool_task(idx)

    def train_batch(self, epoch: int, batch: int, n_tasks: int) -> list:
        return [self.train_task(epoch, batch, slot) for slot in range(n_tasks)]

    def val_task(self, idx: int) -> TaskInstance:
        return self._gen((self._VAL, idx))

    def eval_task(self, idx: int) -> TaskInstance:
        return self._gen((self._EVAL, idx))


def make_task_batch(tasks: list, strategy: str = "uniform", m_samples=None, seed=0,
                    batch_seed=None) -> TaskBatch:
    base = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    metadata = [
        extract_metadata(t, strategy, m_samples, np.random.SeedSequence(base + (17, i)))
        for i, t in enumerate(tasks)
    ]
    return TaskBatch(tasks=tasks, metadata=metadata, batch_seed=batch_seed)
