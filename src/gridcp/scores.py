"""Nonconformity scores, permutation-invariant in the sample argument.

A score assigns a real number to (sample, candidate) pairs; by convention a
*small* score in the plug-in ranking machinery means the candidate conforms
to the sample. Three families ship:

* mean absolute distance -- |mean(sample) - y| (Euclidean norm for d > 1);
* prototype embedding    -- the *negated* squared distance between a learned
  embedding of the candidate and the mean embedding of the sample. The sign
  is kept as-is: large values mean conforming for this family, which inverts
  the induced regions but leaves every structural law intact (the laws hold
  for any permutation-invariant score);
* negative predictive density -- minus a frozen Gaussian density evaluated at
  the candidate; the sample argument is ignored, so permutation invariance
  is vacuous (and still property-tested).

Every score is computed one way: `loo_matrix`, the full-CP leave-one-out
table that every region is built from. Sample aggregates in it are computed
with exactly rounded summation (math.fsum), so that permuting the sample
permutes the table's training columns and leaves the candidate column
bit-for-bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Sample

__all__ = [
    "ScoreFn",
    "MeanAbsDistance",
    "PrototypeEmbedding",
    "NegPredictiveDensity",
    "EmbeddingNet",
    "gaussian_pdf",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Cells (candidates x n x m) per block of the leave-one-out kernel: about
# 2 MiB per float temporary, whatever the grid size.
_BLOCK_CELLS = 1 << 18


def gaussian_pdf(y, mean: float, sd: float):
    """Normal density; shared by every caller so float results agree bitwise."""
    z = (np.asarray(y, dtype=float) - mean) / sd
    out = np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)
    return out


def _fsum_mean(points: np.ndarray) -> np.ndarray:
    """Componentwise mean via exactly rounded sums (order-independent)."""
    n, d = points.shape
    return np.array([math.fsum(points[:, k]) / n for k in range(d)])


def _partial_sums(points: np.ndarray) -> np.ndarray:
    """Row i = exactly rounded componentwise sum of all rows except i.

    fsum over a column with -x_i appended is the correctly rounded value of
    the same exact sum as fsum over the column without x_i.
    """
    columns = points.T.tolist()
    return np.array([[math.fsum(col + [-col[i]]) for col in columns] for i in range(len(points))])


def _loo_table(points: np.ndarray, candidates, dist: Callable, embed: Callable = np.asarray):
    """Leave-one-out table of a score dist(prototype - embedding).

    The prototype is the mean embedding of the other n points: for column
    i < n, the training points without i plus the candidate; for column n,
    the n training points. `dist` maps an array of differences (..., m) to
    scores (...). Means use per-index partial sums via exactly rounded
    summation, rather than total-minus-point: the latter's rounding can break
    score ties that hold in exact arithmetic (e.g. n = 1, where the held-out
    point's score must tie the candidate's at every candidate).
    """
    n, d = points.shape
    train = embed(points)  # (n, m)
    cand = embed(np.asarray(candidates, dtype=float).reshape(-1, d))  # (G, m)
    sums = _partial_sums(train)
    out = np.empty((len(cand), n + 1))
    # columns 0..n-1: held-out training point i against the other n points,
    # a block of candidates at a time, so no (G, n, m) temporary is built
    step = max(1, _BLOCK_CELLS // (n * cand.shape[1]))
    for lo in range(0, len(cand), step):
        block = cand[lo : lo + step, None, :]
        out[lo : lo + step, :n] = dist((sums[None, :, :] + block) / n - train[None, :, :])
    # column n: the candidate against the training sample
    out[:, n] = dist(_fsum_mean(train) - cand)
    return out


class ScoreFn:
    """Base class for nonconformity scores: a subclass implements `loo_matrix`."""

    kind: str = "abstract"

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        """Leave-one-out score table for the plug-in ranking transform.

        For each candidate c (rows) and each i in 1..n+1 (columns), entry
        [c, i-1] is the score of the i-th element of (y_1..y_n, c) against
        the remaining n elements.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class MeanAbsDistance(ScoreFn):
    """|mean(sample) - y|, Euclidean norm when d > 1."""

    kind: str = "mean_abs_distance"

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        return _loo_table(y_n.points, candidates, lambda v: np.linalg.norm(v, axis=-1))


@dataclass(frozen=True, eq=False)
class EmbeddingNet:
    """Fixed feed-forward map R^d -> R^m: affine layers with ReLU between
    them and a linear last layer. Each layer is a (weights, biases) pair of
    read-only float arrays, copied from the user-supplied constants."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        layers = []
        for W, b in self.layers:
            W, b = np.array(W, dtype=float, order="C"), np.array(b, dtype=float)
            if W.ndim != 2 or 0 in W.shape or b.shape != (W.shape[0],):
                raise ValueError(f"a layer needs an (m, k) weight matrix and m biases, got "
                                 f"shapes {W.shape} and {b.shape}")
            if layers and W.shape[1] != layers[-1][0].shape[0]:
                raise ValueError("layer dims inconsistent")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("non-finite weight or bias")
            W.flags.writeable = b.flags.writeable = False
            layers.append((W, b))
        object.__setattr__(self, "layers", tuple(layers))

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map a (batch, d) array to (batch, m)."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        last = len(self.layers) - 1
        for j, (W, b) in enumerate(self.layers):
            h = h @ W.T + b
            if j != last:
                h = np.maximum(h, 0.0)
        return h

    @staticmethod
    def identity(d: int) -> EmbeddingNet:
        return EmbeddingNet(((np.eye(d), np.zeros(d)),))

    @staticmethod
    def from_weights(mats: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> EmbeddingNet:
        return EmbeddingNet(tuple(zip(mats, biases, strict=True)))


@dataclass(frozen=True)
class PrototypeEmbedding(ScoreFn):
    """Negated squared distance to the sample's embedding prototype."""

    net: EmbeddingNet
    kind: str = "prototype_embedding"

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        return _loo_table(
            y_n.points, candidates, lambda v: -np.sum(v * v, axis=-1), self.net.apply
        )


@dataclass(frozen=True)
class NegPredictiveDensity(ScoreFn):
    """Minus a frozen Gaussian predictive density at the candidate.

    The sample argument is ignored: the predictive was already fit to the
    sample that produced this score, so the leave-one-out machinery sees a
    fixed function of the candidate alone.
    """

    mean: float
    sd: float
    kind: str = "neg_predictive_density"

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.sd) and self.sd > 0):
            raise ValueError(f"sd must be finite and positive, got {self.sd}")

    def density(self, y):
        return gaussian_pdf(y, self.mean, self.sd)

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        cand = np.asarray(candidates, dtype=float)
        if y_n.dim != 1 or cand.shape[1:] not in ((), (1,)):
            raise ValueError(f"{self.kind} scores 1-D points; got a {y_n.dim}-D sample and "
                             f"candidate points of shape {cand.shape[1:]}")
        pts = y_n.points[:, 0]
        cand = cand.reshape(-1)
        t_train = -self.density(pts)  # constant across candidates
        t_cand = -self.density(cand)
        G = cand.shape[0]
        out = np.empty((G, pts.shape[0] + 1))
        out[:, : pts.shape[0]] = t_train[None, :]
        out[:, -1] = t_cand
        return out

