"""Finite discretized state spaces and subsets of them.

The state space is a finite, lexicographically ordered product grid in
R^d, defined by its per-dimension coordinates. Every set-level computation
in the package (prediction regions, level sets, credal dominance checks)
happens on subsets of such a grid, represented as bitsets keyed to the grid
order so that equality and hashing are canonical.

All types here are immutable after construction and safe to share across
threads. The one exception, a `Sample`'s memo of its last transducer, is
replaced by a single assignment of one tuple.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "Region",
    "Sample",
    "UniverseMismatchError",
    "make_uniform_grid",
]

class UniverseMismatchError(ValueError):
    """Raised when set operations mix regions over different grids."""


def _check_interval(lo: float, hi: float) -> None:
    # A non-finite end, or finite ends too far apart, gives a non-finite width.
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"interval ({lo}, {hi}) has a non-finite width")
    if lo > hi:
        raise ValueError(f"degenerate interval ({lo}, {hi})")


def _as_point(p) -> tuple[float, ...]:
    if isinstance(p, (int, float, np.integer, np.floating)):
        return (float(p),)
    return tuple(float(c) for c in p)


@dataclass(frozen=True)
class Grid:
    """A finite, lexicographically ordered product grid in R^d.

    axes    -- per-dimension coordinates: strictly increasing, finite floats
    spacing -- per-dimension distance between adjacent points (0.0 for a
               single-point dimension); the quadrature in `bayes` reads it

    `counts` and the read-only (size, dim) array `points` are derived from the
    axes. Points are in lexicographic order: dimension 0 is the slowest axis.
    """

    axes: tuple[tuple[float, ...], ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if not 0 < len(self.axes) == len(self.spacing):
            raise ValueError("axes and spacing need one entry per dimension, at least one")
        for k, (axis, h) in enumerate(zip(self.axes, self.spacing)):
            if not axis:
                raise ValueError("grid must contain at least one point")
            if not all(map(operator.lt, axis, axis[1:])):  # any NaN compares false
                raise ValueError(f"axis {k} is not strictly increasing")
            # Strictly increasing, so finite ends bound every point.
            if not (math.isfinite(axis[0]) and math.isfinite(axis[-1])):
                raise ValueError(f"axis {k} has a non-finite point")
            if not (math.isfinite(h) and h >= 0.0 and (h > 0.0 or len(axis) == 1)):
                raise ValueError(f"spacing {h} must be finite, and positive between points")

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self.axes)

    @cached_property
    def size(self) -> int:
        return math.prod(self.counts)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @cached_property
    def points(self) -> np.ndarray:
        """Points as a read-only (size, dim) float array, in grid order."""
        d = self.dim
        points = np.empty((*self.counts, d))
        for k, axis in enumerate(self.axes):
            points[..., k] = np.reshape(axis, (-1,) + (1,) * (d - 1 - k))
        points = points.reshape(-1, d)
        points.flags.writeable = False
        return points

    @cached_property
    def _fenced_axes(self) -> tuple[np.ndarray, ...]:
        """Each axis as an array between -inf and +inf: no finite point is
        nearer to a fence than to the axis, so the neighbour moves of
        `nearest_indices` stop at its ends."""
        return tuple(np.array([-math.inf, *axis, math.inf]) for axis in self.axes)

    def nearest_indices(self, points) -> np.ndarray:
        """Index of the grid point nearest to each row of an (N, dim) array,
        one dimension at a time.

        The first guess, rint((c - axis[0]) / spacing) clipped to the axis, is
        the nearest coordinate on an evenly spaced axis, ties to even; on any
        other axis it moves to a neighbour while that neighbour is strictly
        nearer.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected an (N, {self.dim}) array of points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("cannot snap a non-finite point")
        idx = np.zeros(len(pts), dtype=np.intp)
        for c, axis, h in zip(pts.T, self._fenced_axes, self.spacing):
            last = len(axis) - 3
            j = np.ones(len(pts), dtype=np.intp)  # axis[j] is point j - 1
            if last:
                j += np.clip(np.rint((c - axis[1]) / h), 0, last).astype(np.intp)
            while (down := c - axis[j - 1] < axis[j] - c).any():
                j -= down
            while (up := axis[j + 1] - c < c - axis[j]).any():
                j += up
            idx = idx * (last + 1) + j - 1
        return idx

    def nearest_index(self, point) -> int:
        """Index of the grid point nearest to `point`: `nearest_indices` of one row."""
        return int(self.nearest_indices([_as_point(point)])[0])

    def full_region(self) -> Region:
        return Region(self, (1 << self.size) - 1)

    def region(self, indices: Iterable[int]) -> Region:
        idx = list(indices)
        for i in idx:
            if not 0 <= i < self.size:
                raise ValueError(f"index {i} out of range for grid of size {self.size}")
        mask = np.zeros(self.size, dtype=bool)
        mask[idx] = True
        return Region.from_mask(self, mask)


def make_uniform_grid(
    bounds: Sequence[tuple[float, float]], counts: Sequence[int]
) -> Grid:
    """Cartesian product grid with equally spaced points, endpoints included.

    Each dimension k gets counts[k] points spanning bounds[k]; a count of 1
    places the single point at the lower bound.
    """
    if len(bounds) != len(counts):
        raise ValueError("bounds and counts must have the same length")
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    axes = []
    spacing = []
    for (lo, hi), m in zip(bounds, counts):
        _check_interval(lo, hi)
        if m < 1:
            raise ValueError(f"count must be >= 1, got {m}")
        axes.append(tuple(np.linspace(lo, hi, m).tolist()) if m > 1 else (lo,))
        spacing.append((hi - lo) / (m - 1) if m > 1 else 0.0)
    return Grid(axes=tuple(axes), spacing=tuple(spacing))


@dataclass(frozen=True)
class Region:
    """A subset of a grid, stored as a bitset over grid indices.

    Bit i set means the i-th grid point belongs to the region. `is_subset`
    requires both operands to share the same universe.
    """

    universe: Grid
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.universe.size:
            raise ValueError("region bits outside universe")

    @staticmethod
    def from_mask(universe: Grid, mask) -> Region:
        """The region whose i-th grid point is in it iff mask[i] is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (universe.size,):
            raise ValueError(
                f"mask of shape {mask.shape} does not match grid of size {universe.size}"
            )
        packed = np.packbits(mask, bitorder="little")
        return Region(universe, int.from_bytes(packed.tobytes(), "little"))

    def complement(self) -> Region:
        return Region(self.universe, self.bits ^ ((1 << self.universe.size) - 1))

    def is_subset(self, other: Region) -> bool:
        if self.universe != other.universe:
            raise UniverseMismatchError("regions live over different universes")
        return self.bits & ~other.bits == 0

    def __contains__(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def __len__(self) -> int:
        return int(self.bits).bit_count()

    @property
    def mask(self) -> np.ndarray:
        """Boolean array over grid indices, true on the region: the inverse of
        `from_mask`."""
        size = self.universe.size
        packed = np.frombuffer(self.bits.to_bytes((size + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=size, bitorder="little").view(bool)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    def __repr__(self) -> str:
        return f"Region({len(self)}/{self.universe.size}: {list(self.indices)})"


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered sample: a read-only float64 (n, d) array `points`, one
    observation per row. An array passed in is frozen in place.

    Order is stored, but every score shipped with the package is equivariant
    under permuting it: the leave-one-out table's training columns permute
    and its candidate column is unchanged. That is property-tested, not
    assumed.

    `fullcp.transducer` memoizes its last result on the sample, keyed by the
    identity (`is`) of the score and the grid, so the routes that start from
    one (sample, score, grid) compute its leave-one-out table once. The memo
    relies on the sample's, the grid's and the network's arrays staying
    read-only: re-enabling writes on any of them voids the memo, as it
    already voids their immutability.
    """

    points: np.ndarray
    # (psi, transducer) of the last `fullcp.transducer` call on this sample;
    # written only there.
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or 0 in points.shape:
            raise ValueError(f"a sample is a nonempty (n, d) array, got shape {points.shape}")
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite observation {tuple(points[~finite][0].tolist())}")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @staticmethod
    def of(values) -> Sample:
        """Build a sample from scalars (d=1), point-likes or an (n, d) array.

        The values are copied, so the sample never shares a caller's array.
        """
        points = np.array(values, dtype=float)
        return Sample(points.reshape(-1, 1) if points.ndim == 1 else points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]
