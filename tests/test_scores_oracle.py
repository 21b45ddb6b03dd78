"""The scores' scalar definitions, kept as the reference for the kernels.

`evaluate` scores one point against one sample straight from each score's
definition, and `loo_by_definition` fills the leave-one-out table one entry at
a time from it: entry [c, i-1] is the score of the i-th element of
(y_1..y_n, c) against the other n. `tests/test_scores.py` checks that every
`loo_matrix` kernel matches it.
"""

import math

import numpy as np

from gridcp.grid import Sample
from gridcp.scores import EmbeddingNet, MeanAbsDistance, PrototypeEmbedding


def squared_distance_to_mean(points: np.ndarray, y: np.ndarray) -> float:
    """||mean(points) - y||^2, with the mean and the sum exactly rounded."""
    diff = [math.fsum(col) / len(points) - c for col, c in zip(points.T.tolist(), y)]
    return math.fsum(v * v for v in diff)


def score_mean_abs(points: np.ndarray, y: np.ndarray) -> float:
    """|mean(points) - y|, Euclidean norm for d > 1."""
    return math.sqrt(squared_distance_to_mean(points, y))


def score_prototype(points: np.ndarray, y: np.ndarray, net: EmbeddingNet) -> float:
    """-||phi(y) - mean_i phi(y_i)||^2 with the network's embedding phi."""
    return -squared_distance_to_mean(net.apply(points), net.apply(y)[0])


def evaluate(psi, points: np.ndarray, y: np.ndarray) -> float:
    """psi of the point y against the sample `points`, from its definition;
    a negative predictive density reads y alone."""
    if isinstance(psi, MeanAbsDistance):
        return score_mean_abs(points, y)
    if isinstance(psi, PrototypeEmbedding):
        return score_prototype(points, y, psi.net)
    z = (y.item() - psi.mean) / psi.sd
    return -math.exp(-0.5 * z * z) / (psi.sd * math.sqrt(2.0 * math.pi))


def loo_by_definition(psi, y_n: Sample, candidates: np.ndarray) -> np.ndarray:
    out = np.empty((len(candidates), y_n.n + 1))
    for g, c in enumerate(candidates):
        full = np.vstack([y_n.points, c])
        for i in range(y_n.n + 1):
            out[g, i] = evaluate(psi, np.delete(full, i, axis=0), full[i])
    return out
