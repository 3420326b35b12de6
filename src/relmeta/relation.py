"""Task representations and the pairwise task relation matrix.

A task's representation is the mean extractor feature of its meta-data
support points.  Relations are masked cosine similarities averaged over K
learnable mask vectors (all-ones at init, so the layer starts as plain
cosine similarity).  Each unordered pair's trust weight
max(m_ij, 0) + floor is recorded right after its relation m_ij; the
consistency regularizer reads those weights, trusting predictions from
related tasks more than unrelated ones.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from . import nn

log = logging.getLogger(__name__)

WEIGHT_FLOOR = 1e-6


class RelationError(Exception):
    pass


class SimilarityLayer:
    """K mask vectors over the representation width; trained by the outer loop."""

    __slots__ = ("omega",)

    def __init__(self, k: int, width: int):
        if k < 1:
            raise RelationError(f"need at least one similarity head, got {k}")
        if width < 1:
            raise RelationError(f"representation width must be positive, got {width}")
        self.omega = np.ones((k, width))


def task_representation(mv: nn.ModelVars, metadata) -> ad.Var:
    """Mean extractor feature over the meta-data support points."""
    if metadata.support_x.shape[0] == 0:
        raise RelationError("metadata has no support points")
    x = mv.tape.constant(metadata.support_x)
    return ad.mean(nn.forward_features(mv, x), axis=0)


class RelationMatrix:
    """Read-only relation `values()` and a symmetric grid of trust-weight 0-d Vars.

    One Var per unordered pair, at (i, j) and (j, i), None on the diagonal;
    on the tape, so outer gradients reach the masks (and, when enabled, the extractor).
    """

    __slots__ = ("_values", "weights")

    def __init__(self, values: np.ndarray, weights: list):
        values.flags.writeable = False
        self._values = values
        self.weights = weights

    def values(self) -> np.ndarray:
        """The dense matrix, diagonal 0; read-only."""
        return self._values


def build_matrix(omega: ad.Var, representations: list) -> RelationMatrix:
    """Mean over heads k of cos(omega_k * z_i, omega_k * z_j) for every pair i < j.

    Each relation is followed on the tape by its trust weight.  A head
    whose masked representation has zero norm has no cosine; it
    contributes 0 instead of NaN, and one warning per call counts them.
    """
    n = len(representations)
    if n < 2:
        raise RelationError(f"relations need at least 2 tasks, got {n}")
    shapes = [z.shape for z in representations]
    if len(shapes[0]) != 1 or any(shape != shapes[0] for shape in shapes):
        raise RelationError(f"representations must share a 1-D shape, got {shapes}")
    if omega.array.ndim != 2 or omega.shape[1] != shapes[0][0]:
        raise RelationError(f"mask width {omega.shape} does not match representation width {shapes[0]}")
    k, width = omega.shape
    masks = [ad.reshape(ad.slice_axis(omega, 0, h, h + 1), (width,)) for h in range(k)]
    # one masked representation per (head, task); None where its norm is 0
    masked = []
    for w_k in masks:
        row = [ad.mul(w_k, z) for z in representations]
        masked.append([u if np.linalg.norm(u.array) != 0.0 else None for u in row])
    values = np.zeros((n, n))
    weights = [[None] * n for _ in range(n)]
    zero_heads = 0
    for i in range(n):
        for j in range(i + 1, n):
            cosines = []
            for row in masked:
                if row[i] is None or row[j] is None:
                    zero_heads += 1
                    cosines.append(omega.tape.constant(np.array(0.0)))
                else:
                    cosines.append(ad.cosine_similarity(row[i], row[j]))
            m_ij = ad.smul(ad.add_n(cosines), 1.0 / k)
            values[i, j] = values[j, i] = float(m_ij.array)
            weights[i][j] = weights[j][i] = ad.sadd(ad.relu(m_ij), WEIGHT_FLOOR)
    if zero_heads:
        log.warning("%d of %d masked cosines had a zero-norm representation and contribute 0",
                    zero_heads, k * n * (n - 1) // 2)
    return RelationMatrix(values, weights)


def export_normalized(matrix: RelationMatrix) -> np.ndarray:
    """Rows of the recorded weights scaled to sum to 1 (diagonal excluded)."""
    w = np.array([[0.0 if v is None else float(v.array) for v in row] for row in matrix.weights])
    return w / w.sum(axis=1, keepdims=True)
