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

Every score is computed one way: `loo_tables`, the full-CP leave-one-out
tables of a stack of samples, which every region is built from;
`loo_matrix` is the table of a stack of one. Sample aggregates in a table
are computed with exactly rounded summation (math.fsum), so that permuting
the sample permutes the table's training columns and leaves the candidate
column bit-for-bit unchanged. The two sample scores share one kernel: it
adds the squared differences one coordinate at a time, in coordinate order,
then takes the square root (mean distance) or negates (prototype).
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
# Cells (samples x candidates x n) per block of the leave-one-out kernel:
# 128 KiB per float temporary, whatever the grid size. `ck coverage` draws its
# trials in chunks of one block.
_BLOCK_CELLS = 1 << 14


def gaussian_pdf(y, mean: float, sd: float):
    """Normal density; shared by every caller so float results agree bitwise."""
    z = (np.asarray(y, dtype=float) - mean) / sd
    out = np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)
    return out


def _fsum_mean(points: np.ndarray) -> np.ndarray:
    """Componentwise mean of each sample in a (..., n, m) stack, via exactly
    rounded sums (order-independent)."""
    columns = np.swapaxes(points, -1, -2)
    n = columns.shape[-1]
    means = [math.fsum(col) / n for col in columns.reshape(-1, n).tolist()]
    return np.array(means).reshape(columns.shape[:-1])


def _partial_sums(points: np.ndarray) -> np.ndarray:
    """Row i of each sample in a (..., n, m) stack = exactly rounded
    componentwise sum of the sample's rows except i.

    fsum over a column with -x_i appended is the correctly rounded value of
    the same exact sum as fsum over the column without x_i.
    """
    columns = np.swapaxes(points, -1, -2)
    flat = columns.reshape(-1, columns.shape[-1]).tolist()
    sums = [[math.fsum(col + [-c]) for c in col] for col in flat]
    return np.swapaxes(np.array(sums).reshape(columns.shape), -1, -2)


def _held_out_diff(sums, cand, train, n: int) -> np.ndarray:
    """(sums + candidate) / n - train of one coordinate, in one contiguous
    (samples, candidates, n) temporary."""
    diff = np.add(sums[:, None], cand[:, :, None])
    np.divide(diff, n, out=diff)
    return np.subtract(diff, train[:, None], out=diff)


def _sum_of_squares(planes, finish: np.ufunc) -> np.ndarray:
    """finish(d_0**2 + d_1**2 + ...) over one difference plane per coordinate,
    added in coordinate order (np.add.reduce's for m < 8), in place."""
    planes = iter(planes)
    acc = next(planes)
    np.multiply(acc, acc, out=acc)
    for plane in planes:
        np.add(acc, np.multiply(plane, plane, out=plane), out=acc)
    return finish(acc, out=acc)


def _per_block(cells: int) -> int:
    """How many items of `cells` cells each fit in one block of the
    leave-one-out kernel; at least one."""
    return max(1, _BLOCK_CELLS // max(cells, 1))


def _check_rows(rows, T: int) -> np.ndarray:
    """`rows` as the (T, k) integer array that picks each sample's rows."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or len(rows) != T or rows.dtype.kind not in "iu":
        raise ValueError(f"rows must be a ({T}, k) integer array, got {rows.dtype} {rows.shape}")
    return rows


def _loo_table(points: np.ndarray, candidates, finish: np.ufunc, embed: Callable = np.asarray,
               rows=None):
    """Leave-one-out tables of a score finish(|prototype - embedding|^2), one
    per sample of a (T, n, d) stack: a (T, G, n+1) array, or with `rows`, a
    (T, k) index array, the (T, k, n+1) stack of rows rows[t] of table t.

    The prototype is the mean embedding of the other n points: for column
    i < n, the training points without i plus the candidate; for column n,
    the n training points. Means use per-index partial sums via exactly
    rounded summation, rather than total-minus-point: the latter's rounding
    can break score ties that hold in exact arithmetic (e.g. n = 1, where the
    held-out point's score must tie the candidate's at every candidate).

    Each sample's points are embedded in a call of their own and the
    candidates in one call, because a network's output rows can depend on
    how many rows one call maps; `rows` then picks embedded candidates, so
    each cell is the full table's cell, bit for bit.
    """
    T, n, d = points.shape
    train = np.array([embed(p) for p in points])  # (T, n, m)
    cand = embed(np.asarray(candidates, dtype=float).reshape(-1, d))  # (G, m)
    # coordinate-major candidates: (m, 1, G), shared by every sample, or each
    # sample's own, (m, T, k)
    cand_k = cand.T[:, None] if rows is None else cand[_check_rows(rows, T)].transpose(2, 0, 1)
    m, _, K = cand_k.shape
    sums = _partial_sums(train)
    out = np.empty((T, K, n + 1))
    # columns 0..n-1: held-out training point i against the other n points,
    # one block of whole samples, or of one sample's candidates, at a time,
    # and in a block one coordinate's contiguous plane at a time
    train_k, sums_k = train.transpose(2, 0, 1), sums.transpose(2, 0, 1)
    samples, step = _per_block(K * n), _per_block(n)
    for t in range(0, T, samples):
        for lo in range(0, K, step):
            ts, cs = slice(t, t + samples), slice(lo, lo + step)
            own = slice(None) if rows is None else ts
            planes = (_held_out_diff(sums_k[k, ts], cand_k[k, own, cs], train_k[k, ts], n) for k in range(m))
            out[ts, cs, :n] = _sum_of_squares(planes, finish)
    # column n: the candidate against the training sample
    means = _fsum_mean(train)
    out[:, :, n] = _sum_of_squares((means[:, None, k] - cand_k[k] for k in range(m)), finish)
    return out


class ScoreFn:
    """Base class for nonconformity scores: a subclass implements `loo_tables`."""

    kind: str = "abstract"

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        """Leave-one-out score table for the plug-in ranking transform.

        For each candidate c (rows) and each i in 1..n+1 (columns), entry
        [c, i-1] is the score of the i-th element of (y_1..y_n, c) against
        the remaining n elements. It is `loo_tables` of a stack of one.
        """
        return self.loo_tables(y_n.points[None], candidates)[0]

    def loo_tables(self, points: np.ndarray, candidates: np.ndarray, rows=None) -> np.ndarray:
        """`loo_matrix` of each sample in a (T, n, d) stack, as a (T, G, n+1)
        array; with `rows`, a (T, k) integer array, only rows rows[t] of
        table t, as a (T, k, n+1) array."""
        raise NotImplementedError


@dataclass(frozen=True)
class MeanAbsDistance(ScoreFn):
    """|mean(sample) - y|, Euclidean norm when d > 1."""

    kind: str = "mean_abs_distance"

    def loo_tables(self, points: np.ndarray, candidates: np.ndarray, rows=None) -> np.ndarray:
        return _loo_table(points, candidates, np.sqrt, rows=rows)


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

    def loo_tables(self, points: np.ndarray, candidates: np.ndarray, rows=None) -> np.ndarray:
        return _loo_table(points, candidates, np.negative, self.net.apply, rows)


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

    def loo_tables(self, points: np.ndarray, candidates: np.ndarray, rows=None) -> np.ndarray:
        cand = np.asarray(candidates, dtype=float)
        T, n, d = points.shape
        if d != 1 or cand.shape[1:] not in ((), (1,)):
            raise ValueError(f"{self.kind} scores 1-D points; got a {d}-D sample and "
                             f"candidate points of shape {cand.shape[1:]}")
        scores = -self.density(cand.reshape(-1))
        scores = scores[None] if rows is None else scores[_check_rows(rows, T)]  # (1 or T, K)
        out = np.empty((T, scores.shape[1], n + 1))
        out[:, :, :n] = -self.density(points[:, None, :, 0])  # constant across candidates
        out[:, :, n] = scores
        return out


def _score_bound(psi: ScoreFn, points: np.ndarray) -> float:
    """m * (4 max|e|)^2, e the m-wide embedding of `points` under a mean
    distance or prototype score: finite when no score of a sample and
    candidate drawn from `points` can overflow, each being at most
    m * (2 max|e|)^2 in size."""
    embed = psi.net.apply if isinstance(psi, PrototypeEmbedding) else np.asarray
    with np.errstate(all="ignore"):
        e = np.abs(embed(points))
        return float(e.shape[1] * (4.0 * e.max()) ** 2)
