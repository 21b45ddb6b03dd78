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
are exactly rounded sums, math.fsum's values, so that permuting the sample
permutes the table's training columns and leaves the candidate column
bit-for-bit unchanged. Small stacks take fsum itself; larger ones add each
column as integers at the scale of its lowest set bit, exactly in int64,
and round once (`_fixed_sums`), which gives the same doubles, and take
fsum where a column does not fit. The two sample scores share one kernel: it
adds the squared differences one coordinate at a time, in coordinate order,
then takes the square root (mean distance) or negates (prototype).

One loop fills every table, one factor at a time: a factor is a run of
coordinates with its own candidate values, and the candidates are the
lexicographic product of the factors' values. Where the candidates are, bit
for bit, the lexicographic product of per-coordinate values in `Grid.points`
order (the mean distance on any product grid, not a net that mixes
coordinates) and the whole table is asked for, each coordinate is a factor,
so its held-out difference is computed once per axis value; otherwise all m
coordinates are one factor. Every cell gets the same IEEE operations in the
same order whatever the factoring, so the tables are the same bits. A table
of 24 blocks or more is split by factor-0 values across up to three of the
process's CPUs (`_split`), with the same bits again. At 201x201 on a shared
2-vCPU host (best of 15), one CPU against two: the mean-distance table, per
axis, takes 11-14 ms against 6.2-8.2 ms at n = 100 and 3.3-3.6 ms against
2.2-2.7 ms at n = 20 (as one factor, on one CPU: 31-38 and 6.6-9.5 ms); the
prototype net's table 31-32 ms against 23-28 ms and 8.2-8.7 ms against
6.3-6.8 ms.
"""

from __future__ import annotations

import math
import os
import threading
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
# A table of 2 * _PART_CELLS cells or more is split across CPUs (`_split`).
# On a 2-vCPU host two parts first gained at 12 blocks (rank count), 16
# (a per-axis table) and 24 (a one-factor table) against one part; below
# that, starting and joining a thread cost more than it saved.
_PART_CELLS = 12 * _BLOCK_CELLS
# Each part holds about three blocks of temporaries at once (0.4 MiB: two
# coordinate planes and numpy's ufunc buffers); three parts keep a 201x201
# prototype table's kernel within 2 MiB above the table on any host.
_MAX_PARTS = 3
# Partial-sum terms (samples x m x n^2) from which `_partial_sums` takes the
# fixed-point path. On small stacks its numpy calls take about 27 us; the
# fsum loop takes as long at 1,600 terms and longer above (best of 7, on one
# CPU of a shared 2-vCPU host: 43 against 27 us at 2,500 terms).
_FIXED_TERMS = 1 << 11


def gaussian_pdf(y, mean: float, sd: float):
    """Normal density; shared by every caller so float results agree bitwise."""
    z = (np.asarray(y, dtype=float) - mean) / sd
    out = np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)
    return out


def _fixed_sums(flat: np.ndarray):
    """`_partial_sums` of a (C, n) array of columns in int64 fixed point:
    (sums, totals), or None when an input is not finite or a column misses
    the int64 budget or could overflow a double.

    With x = f * 2^e (frexp), each column's scale E is the least exponent of
    a lowest set bit among its non-zero entries, e - 53 + tz(f * 2^53), so
    every K = x * 2^-E is an integer, exact in int64 while (max e - E) +
    bit_length(n + 1) <= 62, and so is the column total T = sum(K). The
    int64 -> double cast of T - K or T rounds to nearest even, as fsum
    does, and then scaling by 2^E (E >= -1074) is exact: at most 2^53 in
    size the value is a multiple of 2^E with 53 bits, above that the result
    is at least 2^-1021, a normal double. Zero sums come out +0.0, as fsum
    gives them. A column whose sums could reach 2^1024 (max e +
    bit_length(n + 1) > 1023) is left to fsum, which raises OverflowError
    where the sum overflows.
    """
    nonzero = flat != 0
    f, e = np.frexp(flat)
    room = e.max(-1, initial=-1074, where=nonzero) + (flat.shape[-1] + 1).bit_length()
    # necessary for the budget: a column's E is at most its least e - 1
    if not np.isfinite(f).all() or (room > 1023).any() or (
            room - e.min(-1, initial=1024, where=nonzero) > 61).any():
        return None
    K = np.ldexp(f, 53, out=f).astype(np.int64)
    low = np.negative(K)
    low &= K  # K's lowest set bit, 2^tz
    e += np.frexp(low, out=(f, None))[1]  # e + tz + 1
    E = e.min(-1, initial=2048, where=nonzero)[:, None] - 54
    if (room[:, None] - E > 62).any():
        return None
    np.copyto(K, np.ldexp(flat, -E, out=f), casting="unsafe")
    T = K.sum(-1, keepdims=True)
    return np.ldexp(np.subtract(T, K, out=K), E, out=f), np.ldexp(T[:, 0], E[:, 0])


def _partial_sums(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i of each sample in a (..., n, m) stack = exactly rounded
    componentwise sum of the sample's rows except i; and, from the same
    column lists, each sample's (..., m) exactly rounded componentwise total.

    By definition (the fsum loop) fsum over a column with -x_i appended is
    the correctly rounded value of the same exact sum as fsum over the
    column without x_i, n fsums of n + 1 terms per column. From
    _FIXED_TERMS terms in all (samples x m x n^2) on, `_fixed_sums` gives
    the same doubles in O(n) numpy passes when its columns fit; the loop
    is kept for the rest.
    """
    columns = points.swapaxes(-1, -2)
    shape = columns.shape
    flat = columns.reshape(-1, shape[-1])
    fixed = _fixed_sums(flat) if flat.size * shape[-1] >= _FIXED_TERMS else None
    if fixed is None:
        flat = flat.tolist()
        fixed = [[math.fsum(col + [-c]) for c in col] for col in flat], [math.fsum(col) for col in flat]
    sums, totals = map(np.asarray, fixed)
    return sums.reshape(shape).swapaxes(-1, -2), totals.reshape(shape[:-1])


def _held_out_diff(sums, cand, train, n: int) -> np.ndarray:
    """(sums + candidate) / n - train of one coordinate, in one contiguous
    (samples, candidates, n) temporary."""
    diff = np.add(sums[:, None], cand[:, :, None])
    np.divide(diff, n, out=diff)
    return np.subtract(diff, train[:, None], out=diff)


def _sum_of_squares(planes, finish: np.ufunc | None = None) -> np.ndarray:
    """finish(d_0**2 + d_1**2 + ...) over one difference plane per coordinate,
    added in coordinate order (np.add.reduce's for m < 8), in place; without
    `finish`, the sum itself."""
    planes = iter(planes)
    acc = next(planes)
    np.multiply(acc, acc, out=acc)
    for plane in planes:
        np.add(acc, np.multiply(plane, plane, out=plane), out=acc)
    return acc if finish is None else finish(acc, out=acc)


def _put(cells: np.ndarray, plane: np.ndarray, add: bool) -> None:
    """Copy `plane` into `cells`, or add it to them, broadcasting."""
    if add:
        np.add(cells, plane, out=cells)
    else:
        cells[...] = plane


def _per_block(cells: int) -> int:
    """How many items of `cells` cells each fit in one block of the
    leave-one-out kernel; at least one."""
    return max(1, _BLOCK_CELLS // max(cells, 1))


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _parts(count: int, cells: int) -> int:
    """How many parts `_split` runs `count` items of `cells` cells in all
    in: one per CPU, at most _MAX_PARTS and at most one per item, each of
    about _PART_CELLS cells or more."""
    if cells < 2 * _PART_CELLS:
        return 1
    return min(cells // _PART_CELLS, count, _cpus(), _MAX_PARTS)


def _split(run: Callable[[int, int], object], count: int, parts: int) -> None:
    """run(lo, hi) over `parts` contiguous parts of range(count) (`_parts`):
    the first part in the calling thread, each other in a thread of its own.
    With one part it calls run(0, count) and starts nothing. Parts must write
    disjoint cells; numpy releases the GIL inside each ufunc, so they compute
    at the same time. A worker's exception is raised again in the caller."""
    if parts < 2:
        run(0, count)
        return
    bounds = [count * j // parts for j in range(parts + 1)]
    errors = []

    def work(lo, hi):
        try:
            run(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=work, args=bounds[j : j + 2]) for j in range(1, parts)]
    for worker in workers:
        worker.start()
    try:
        run(bounds[0], bounds[1])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


def _check_rows(rows, T: int, G: int) -> np.ndarray:
    """`rows` as the (T, k) integer array that picks each sample's rows of
    a G-row table."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or len(rows) != T or rows.dtype.kind not in "iu":
        raise ValueError(f"rows must be a ({T}, k) integer array, got {rows.dtype} {rows.shape}")
    if rows.size and not (0 <= rows.min() and rows.max() < G):
        raise ValueError(f"rows must lie in 0..{G - 1}, got {rows.min()}..{rows.max()}")
    return rows


def _product_axes(cand: np.ndarray):
    """Per-coordinate values whose lexicographic product, dimension 0 slowest
    as in `Grid.points`, is the (G, m) array `cand` bit for bit; None when
    m < 2, G = 0 or `cand` is no such product.

    Rows 0 and 1 of such a product differ in exactly one coordinate, the
    last with more than one value; a net that mixes coordinates changes them
    all, so that is tested first. Then each column is checked against its
    axis tiled at its stride, one pass of bit-pattern comparisons over `cand`.
    """
    G, m = cand.shape
    if m < 2 or G == 0:
        return None
    bits = np.ascontiguousarray(cand).view(np.int64)
    if G > 1 and np.count_nonzero(bits[0] != bits[1]) != 1:
        return None
    axes, run = [], G  # run: rows per value of the previous coordinate
    for col in bits.T:
        change = np.flatnonzero(col[:run] != col[0])
        step = int(change[0]) if change.size else run
        axis = col[:run:step]
        if run % step or not (col.reshape(-1, len(axis), step) == axis[:, None]).all():
            return None
        axes.append(axis.view(float))
        run = step
    return axes if run == 1 else None


def _loo_table(points: np.ndarray, candidates, finish: np.ufunc, embed: Callable = np.asarray,
               rows=None):
    """Leave-one-out tables of a score finish(|prototype - embedding|^2), one
    per sample of a (T, n, d) stack: a (T, G, n+1) array, or with `rows`, a
    (T, k) index array, the (T, k, n+1) stack of rows rows[t] of table t.

    The prototype is the mean embedding of the other n points: for column
    i < n, the training points without i plus the candidate; for column n,
    the n training points. Means use per-index partial sums, each the
    exactly rounded sum of the other points (`_partial_sums`: fsum's values,
    in int64 fixed point where the columns fit), rather than
    total-minus-point computed in floating point: the latter's rounding
    can break score ties that hold in exact arithmetic (e.g. n = 1, where the
    held-out point's score must tie the candidate's at every candidate).

    Each sample's points are embedded in a call of their own and the
    candidates in one call, because a network's output rows can depend on
    how many rows one call maps; `rows` then picks embedded candidates, so
    each cell is the full table's cell, bit for bit.

    The table is filled one factor at a time (see the module docstring):
    each coordinate of a product grid (`_product_axes`) is a factor, and
    otherwise the candidates, or each sample's picked ones, are one factor
    of all m coordinates. A factor's squared differences are added in
    coordinate order in pieces of about one block and spread over the other
    factors' values, copied for factor 0 and added for the rest.
    """
    T, n, d = points.shape
    cand = np.asarray(candidates, dtype=float)
    if cand.shape[1:] != (d,) and not (d == 1 and cand.ndim <= 1):
        raise ValueError(f"candidates of shape {cand.shape} do not fit samples of shape "
                         f"{points.shape}: expected (G, {d})" + " or (G,)" * (d == 1))
    train = np.array([embed(points[t]) for t in range(T)])  # (T, n, m)
    cand = embed(cand.reshape(-1, d))  # (G, m)
    sums, totals = _partial_sums(train)
    train_k, sums_k = train.transpose(2, 0, 1), sums.transpose(2, 0, 1)
    means = totals / n
    axes = _product_axes(cand) if rows is None and d > 1 else None
    # factors: (first coordinate, coordinate-major values), (m_f, 1, V) when
    # shared by every sample and (m, T, k) when each sample picks its own
    if axes is not None:
        factors = [(k, axis[None, None]) for k, axis in enumerate(axes)]
        shape = tuple(map(len, axes))
    else:
        values = cand.T[:, None] if rows is None else cand[_check_rows(rows, T, len(cand))].transpose(2, 0, 1)
        factors, shape = [(0, values)], values.shape[2:]
    table = np.empty((T, *shape, n + 1))
    F = len(factors)
    piece_finish = finish if F == 1 else None

    def fill(lo, hi):
        part = table[:, lo:hi]
        for f, (k0, values) in enumerate(factors):
            if f == 0:
                values = values[..., lo:hi]
            V = values.shape[2]
            # the part with the samples and this factor's values last but
            # one, so that a (samples, V, n) plane spreads over the others
            view = part.swapaxes(f + 1, F).swapaxes(0, F - 1)
            # columns 0..n-1: held-out training point i against the other n
            # points, one block of whole samples, or of one sample's values,
            # at a time, and in a block one coordinate's plane at a time
            samples, step = _per_block(V * n), _per_block(n)
            for t in range(0, T, samples):
                ts = slice(t, t + samples)
                own = slice(None) if rows is None else ts
                for c in range(0, V, step):
                    cs = slice(c, c + step)
                    planes = (_held_out_diff(sums_k[k0 + j, ts], values[j, own, cs], train_k[k0 + j, ts], n)
                              for j in range(len(values)))
                    _put(view[..., ts, cs, :n], _sum_of_squares(planes, piece_finish), f)
            # column n: the candidate against the training sample
            col = (means[:, k0 + j, None] - values[j] for j in range(len(values)))
            _put(view[..., n], _sum_of_squares(col, piece_finish), f)
        if piece_finish is None:
            finish(part, out=part)

    _split(fill, shape[0], _parts(shape[0], table.size // (n + 1) * n))
    return table.reshape(T, -1, n + 1)


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
        scores = scores[None] if rows is None else scores[_check_rows(rows, T, len(scores))]  # (1 or T, K)
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
