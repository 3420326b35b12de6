"""The meta-model: a shared MLP feature extractor plus a bank of task heads.

The extractor maps scalar inputs through tanh layers; each head is an
affine map from the feature width to a scalar prediction.  Head ``i`` is
bound to batch slot ``i`` for one meta-batch and re-initialized between
batches (the training loop owns that policy, see metalearn).

Per-parameter inner learning rates (the learnable-step-size method) live
here as well: one rate tensor per extractor parameter plus one shared pair
for the head shape, all initialized to the scalar inner rate.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class ModelError(Exception):
    pass



class MetaModel:
    """Parameter container; immutable during a meta-batch's inner loops.

    `layer_sizes` gives [input_width, hidden..., feature_width]; a single
    entry means an identity extractor.  Weights use seeded uniform fan-in
    initialization, biases start at zero, so two models built from the
    same seed are bitwise identical.

    `input_scale` multiplies inputs before the first layer.  Task families
    whose natural x range is much narrower than their frequencies demand
    (weights would have to grow by the frequency factor before anything
    fits) get a fixed widening factor here instead.
    """

    def __init__(self, layer_sizes, n_heads: int, seed: int, input_scale: float = 1.0):
        layer_sizes = list(layer_sizes)
        if not layer_sizes:
            raise ModelError("layer_sizes must be non-empty")
        if any(int(w) <= 0 for w in layer_sizes):
            raise ModelError(f"zero-width layer in {layer_sizes}")
        if n_heads < 1:
            raise ModelError("n_heads must be >= 1")
        if not np.isfinite(input_scale) or input_scale <= 0:
            raise ModelError(f"input_scale must be finite and positive, got {input_scale}")
        self.input_scale = float(input_scale)
        self.layer_sizes = [int(w) for w in layer_sizes]
        self.n_heads = int(n_heads)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self.extractor = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            lim = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-lim, lim, size=(fan_in, fan_out))
            self.extractor.append((w, np.zeros(fan_out)))
        d = self.feature_width
        lim = 1.0 / np.sqrt(d)
        self.heads = [
            (rng.uniform(-lim, lim, size=(d, 1)), np.zeros(1)) for _ in range(self.n_heads)
        ]
        self.inner_rates = None

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def feature_width(self) -> int:
        return self.layer_sizes[-1]

    def enable_inner_rates(self, alpha: float) -> None:
        """Elementwise inner rates, all initialized to the scalar alpha.

        Extractor rates are per parameter; head rates are shared across
        slots (and by evaluation heads), which keeps their meaning stable
        while heads are re-initialized every batch.
        """
        self.inner_rates = {
            "extractor": [
                (np.full_like(w, alpha), np.full_like(b, alpha)) for w, b in self.extractor
            ],
            "head": (np.full((self.feature_width, 1), alpha), np.full(1, alpha)),
        }

    def zero_heads(self) -> None:
        for w, b in self.heads:
            w.fill(0.0)
            b.fill(0.0)

    def named_params(self):
        """Stable (name, array) ordering: extractor layers, then heads, then rates."""
        for li, (w, b) in enumerate(self.extractor):
            yield f"g{li}.w", w
            yield f"g{li}.b", b
        for hi, (w, b) in enumerate(self.heads):
            yield f"h{hi}.w", w
            yield f"h{hi}.b", b
        if self.inner_rates is not None:
            for li, (w, b) in enumerate(self.inner_rates["extractor"]):
                yield f"lr.g{li}.w", w
                yield f"lr.g{li}.b", b
            yield "lr.h.w", self.inner_rates["head"][0]
            yield "lr.h.b", self.inner_rates["head"][1]


def init_model(layer_sizes, n_heads: int, seed: int, input_scale: float = 1.0) -> MetaModel:
    return MetaModel(layer_sizes, n_heads, seed, input_scale=input_scale)


class ModelVars:
    """Leaf Vars for one model on one tape; the unit the engine works on.

    `named` holds one (name, leaf) pair per `model.named_params()` entry, in
    that order; `extractor`, `heads` and `rates` are (w, b) views of the
    same leaves (`rates` is None without inner rates).
    """

    __slots__ = ("model", "tape", "named", "extractor", "heads", "rates")

    def __init__(self, model: MetaModel, tape: ad.Tape):
        self.model = model
        self.tape = tape
        self.named = [(name, tape.leaf(arr)) for name, arr in model.named_params()]
        leaves = [v for _, v in self.named]
        pairs = list(zip(leaves[0::2], leaves[1::2]))
        n_ext, n_heads = len(model.extractor), len(model.heads)
        self.extractor = pairs[:n_ext]
        self.heads = pairs[n_ext:n_ext + n_heads]
        self.rates = pairs[n_ext + n_heads:] or None

    def extractor_params(self) -> list:
        return [v for pair in self.extractor for v in pair]

    def head_params(self, i: int) -> list:
        if not 0 <= i < len(self.heads):
            raise ModelError(f"head index {i} out of range [0, {len(self.heads)})")
        return list(self.heads[i])

    def extractor_rate_params(self) -> list:
        """Rates of the extractor parameters, flat in extractor_params() order."""
        return [v for pair in self.rates[:-1] for v in pair]

    def head_rate_params(self) -> list:
        """The one (w, b) rate pair that every head shares."""
        return list(self.rates[-1])


def bind(model: MetaModel, tape: ad.Tape) -> ModelVars:
    return ModelVars(model, tape)


def forward_features(mv: ModelVars, x: ad.Var) -> ad.Var:
    """Extractor activations for a batch of inputs, recorded on the tape.

    `x` has shape (n, input_width); the result has shape (n, feature_width).
    """
    if x.array.ndim != 2 or x.shape[1] != mv.model.input_width:
        raise ModelError(
            f"input width mismatch: got shape {x.shape}, extractor expects (n, {mv.model.input_width})"
        )
    h = _scaled_input(mv, x)
    for w, b in mv.extractor:
        h = ad.tanh(ad.add(ad.matmul(h, w), b))
    return h


def _scaled_input(mv: ModelVars, x: ad.Var) -> ad.Var:
    # Scale 1.0 stays off the tape so unscaled graphs are unchanged.
    if mv.model.input_scale == 1.0:
        return x
    return ad.smul(x, mv.model.input_scale)


def forward_features_with(mv: ModelVars, params: list, x: ad.Var) -> ad.Var:
    """Extractor forward using an explicit flat [w0, b0, w1, b1, ...] list."""
    h = _scaled_input(mv, x)
    for li in range(len(mv.extractor)):
        h = ad.tanh(ad.add(ad.matmul(h, params[2 * li]), params[2 * li + 1]))
    return h


def head_apply(params: list, features: ad.Var) -> ad.Var:
    return ad.add(ad.matmul(features, params[0]), params[1])
