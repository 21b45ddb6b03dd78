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

Sample aggregates are computed with exactly rounded summation (math.fsum) so
that score values are bit-for-bit invariant under permuting the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Sample, drop_index

__all__ = [
    "ScoreFn",
    "MeanAbsDistance",
    "PrototypeEmbedding",
    "NegPredictiveDensity",
    "EmbeddingNet",
    "score_mean_abs",
    "score_prototype",
    "check_permutation_invariance",
    "score_from_obj",
    "gaussian_pdf",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    # columns 0..n-1: held-out training point i against the other n points
    t_train = dist((_partial_sums(train)[None, :, :] + cand[:, None, :]) / n - train[None, :, :])
    # column n: the candidate against the training sample
    t_cand = dist(_fsum_mean(train) - cand)
    return np.concatenate([t_train, t_cand[:, None]], axis=1)


class ScoreFn:
    """Base class for nonconformity scores.

    Subclasses implement `evaluate` (single pair) and may override
    `loo_matrix` with a vectorized kernel used by the ranking transform.
    """

    kind: str = "abstract"

    def evaluate(self, sample: Sample, y) -> float:
        raise NotImplementedError

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        """Leave-one-out score table for the plug-in ranking transform.

        For each candidate c (rows) and each i in 1..n+1 (columns), entry
        [c, i-1] is the score of the i-th element of (y_1..y_n, c) against
        the remaining n elements. Default implementation loops over
        `evaluate`; subclasses provide vectorized versions.
        """
        cand = np.asarray(candidates, dtype=float).reshape(-1, y_n.dim)
        out = np.empty((len(cand), y_n.n + 1))
        for g, c in enumerate(cand):
            full = y_n.append(c)
            for i in range(y_n.n + 1):
                rest, held = drop_index(full, i + 1)
                out[g, i] = self.evaluate(Sample(rest), held)
        return out


@dataclass(frozen=True)
class MeanAbsDistance(ScoreFn):
    """|mean(sample) - y|, Euclidean norm when d > 1."""

    kind: str = "mean_abs_distance"

    def evaluate(self, sample: Sample, y) -> float:
        return score_mean_abs(sample, y)

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        return _loo_table(y_n.points, candidates, lambda v: np.linalg.norm(v, axis=-1))


@dataclass(frozen=True)
class EmbeddingNet:
    """Fixed feed-forward map R^d -> R^m: affine layers with ReLU between
    them and a linear last layer. Weights are user-supplied constants."""

    layers: tuple[tuple[tuple[tuple[float, ...], ...], tuple[float, ...]], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        prev = None
        for W, b in self.layers:
            rows = len(W)
            cols = len(W[0])
            if any(len(r) != cols for r in W):
                raise ValueError("ragged weight matrix")
            if len(b) != rows:
                raise ValueError("bias length must match output dim")
            for r in W:
                for v in r:
                    if not math.isfinite(v):
                        raise ValueError("non-finite weight")
            if prev is not None and cols != prev:
                raise ValueError("layer dims inconsistent")
            prev = rows

    @property
    def in_dim(self) -> int:
        return len(self.layers[0][0][0])

    @property
    def out_dim(self) -> int:
        return len(self.layers[-1][1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map a (batch, d) array to (batch, m)."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        last = len(self.layers) - 1
        for j, (W, b) in enumerate(self.layers):
            h = h @ np.asarray(W, dtype=float).T + np.asarray(b, dtype=float)
            if j != last:
                h = np.maximum(h, 0.0)
        return h

    @staticmethod
    def identity(d: int) -> EmbeddingNet:
        W = tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))
        return EmbeddingNet(((W, tuple(0.0 for _ in range(d))),))

    @staticmethod
    def from_weights(mats: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> EmbeddingNet:
        layers = tuple(
            (tuple(tuple(float(v) for v in row) for row in W), tuple(float(v) for v in b))
            for W, b in zip(mats, biases)
        )
        return EmbeddingNet(layers)


@dataclass(frozen=True)
class PrototypeEmbedding(ScoreFn):
    """Negated squared distance to the sample's embedding prototype."""

    net: EmbeddingNet
    kind: str = "prototype_embedding"

    def evaluate(self, sample: Sample, y) -> float:
        return score_prototype(sample, y, self.net)

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
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    def density(self, y):
        return gaussian_pdf(y, self.mean, self.sd)

    def evaluate(self, sample: Sample, y) -> float:
        val = float(np.atleast_1d(y)[0]) if not isinstance(y, (int, float)) else float(y)
        return -float(self.density(val))

    def loo_matrix(self, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
        pts = y_n.points[:, 0]
        cand = np.asarray(candidates, dtype=float).reshape(-1)
        t_train = -self.density(pts)  # constant across candidates
        t_cand = -self.density(cand)
        G = cand.shape[0]
        out = np.empty((G, pts.shape[0] + 1))
        out[:, : pts.shape[0]] = t_train[None, :]
        out[:, -1] = t_cand
        return out


def score_mean_abs(y_n: Sample, y) -> float:
    """|mean(y_n) - y|; Euclidean norm componentwise for d > 1."""
    pts = y_n.points
    mean = _fsum_mean(pts)
    yy = np.atleast_1d(np.asarray(y, dtype=float))
    if yy.shape[0] != pts.shape[1]:
        raise ValueError(f"dimension mismatch: sample d={pts.shape[1]}, y={yy.shape}")
    diff = mean - yy
    return float(math.sqrt(math.fsum((diff * diff).tolist())))


def score_prototype(y_n: Sample, y, net: EmbeddingNet) -> float:
    """-||phi(y) - mean_i phi(y_i)||^2 with the network's embedding phi.

    Note the sign: the value is <= 0 and *larger* (closer to 0) means more
    conforming, the reverse of the other families.
    """
    pts = y_n.points
    if pts.shape[1] != net.in_dim:
        raise ValueError(
            f"dimension mismatch: sample d={pts.shape[1]}, net expects {net.in_dim}"
        )
    emb = net.apply(pts)
    proto = _fsum_mean(emb)
    phi_y = net.apply(np.atleast_2d(np.asarray(y, dtype=float)))[0]
    diff = phi_y - proto
    return -float(math.fsum((diff * diff).tolist()))


def check_permutation_invariance(
    psi: ScoreFn, y_n: Sample, y, trials: int, seed: int = 0
) -> bool:
    """True iff psi agrees exactly across `trials` random permutations of y_n."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    ref = psi.evaluate(y_n, y)
    for _ in range(trials):
        if psi.evaluate(Sample(y_n.points[rng.permutation(y_n.n)]), y) != ref:
            return False
    return True


# The kinds `score_from_obj` builds: the scores that need no fitted model.
_SCORE_KINDS = ("mean_abs_distance", "prototype_embedding")


def score_from_obj(obj: dict, dim: int = 1) -> ScoreFn:
    """Build a score from {"kind": ..., "params": {...}}.

    A prototype_embedding without params embeds by the identity map of R^dim.
    Anything malformed raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a score must be an object, got {obj!r}")
    unknown = sorted(set(obj) - {"kind", "params"})
    if unknown:
        raise ValueError(f"unknown score key {unknown[0]!r}; allowed keys: ('kind', 'params')")
    kind = obj.get("kind")
    if kind not in _SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}; pick one of {_SCORE_KINDS}")
    params = obj.get("params") or {}
    try:
        if kind == "mean_abs_distance":
            return MeanAbsDistance()
        if not params:
            return PrototypeEmbedding(EmbeddingNet.identity(dim))
        return PrototypeEmbedding(EmbeddingNet.from_weights(params["weights"], params["biases"]))
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} params: {exc!r}") from None
