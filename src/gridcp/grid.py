"""Finite discretized state spaces and subsets of them.

The state space is an axis-aligned box in R^d discretized to a finite,
lexicographically ordered grid of points. Every set-level computation in the
package (prediction regions, level sets, credal dominance checks) happens on
subsets of such a grid, represented as bitsets keyed to the grid order so
that equality and hashing are canonical.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "Region",
    "Sample",
    "UniverseMismatchError",
    "make_uniform_grid",
    "drop_index",
]

# Tolerance for the bounds-containment invariant. Comparisons that feed
# indicator functions elsewhere are exact on stored doubles; this constant is
# used only to validate grid construction.
_BOUNDS_TOL = 1e-12


class UniverseMismatchError(ValueError):
    """Raised when set operations mix regions over different grids."""


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"non-finite interval ({lo}, {hi})")
    if lo > hi:
        raise ValueError(f"degenerate interval ({lo}, {hi})")


def _as_point(p) -> tuple[float, ...]:
    if isinstance(p, (int, float, np.integer, np.floating)):
        return (float(p),)
    return tuple(float(c) for c in p)


@dataclass(frozen=True)
class Grid:
    """A finite, lexicographically ordered discretization of a box in R^d.

    points  -- tuple of d-dimensional points (tuples of floats), sorted
               lexicographically and pairwise distinct
    bounds  -- per-dimension closed interval (lo, hi)
    counts  -- number of points per dimension
    spacing -- per-dimension distance between adjacent points (0.0 for a
               single-point dimension)
    """

    points: tuple[tuple[float, ...], ...]
    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("grid must contain at least one point")
        for lo, hi in self.bounds:
            _check_interval(lo, hi)
        seen = set(self.points)
        if len(seen) != len(self.points):
            raise ValueError("grid points must be pairwise distinct")
        if list(self.points) != sorted(self.points):
            raise ValueError("grid points must be sorted lexicographically")
        for p in self.points:
            for c, (lo, hi) in zip(p, self.bounds):
                span = max(abs(lo), abs(hi), 1.0)
                if c < lo - _BOUNDS_TOL * span or c > hi + _BOUNDS_TOL * span:
                    raise ValueError(f"point {p} outside bounds {self.bounds}")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def as_array(self) -> np.ndarray:
        """Points as a (size, dim) float array."""
        return np.asarray(self.points, dtype=float)

    def index_of(self, point) -> int:
        return self.points.index(_as_point(point))

    def nearest_index(self, point) -> int:
        """Index of the grid point nearest to `point`.

        Lexicographic order of the product grid makes dimension 0 the slowest
        axis, so strides multiply the counts of the later dimensions.
        """
        p = _as_point(point)
        idx = 0
        stride = self.size
        for k in range(self.dim):
            stride //= self.counts[k]
            if self.counts[k] == 1:
                continue
            lo, _hi = self.bounds[k]
            i = int(round((p[k] - lo) / self.spacing[k]))
            i = min(max(i, 0), self.counts[k] - 1)
            idx += i * stride
        return idx

    def snap(self, point) -> tuple[float, ...]:
        """The grid point nearest to `point`."""
        return self.points[self.nearest_index(point)]

    def full_region(self) -> Region:
        return Region(self, (1 << self.size) - 1)

    def empty_region(self) -> Region:
        return Region(self, 0)

    def region(self, indices: Iterable[int]) -> Region:
        idx = list(indices)
        for i in idx:
            if not 0 <= i < self.size:
                raise ValueError(f"index {i} out of range for grid of size {self.size}")
        mask = np.zeros(self.size, dtype=bool)
        mask[idx] = True
        return Region.from_mask(self, mask)

    def to_json(self) -> str:
        return json.dumps(
            {"bounds": [list(b) for b in self.bounds], "counts": list(self.counts)},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> Grid:
        obj = json.loads(text)
        return make_uniform_grid(
            [tuple(b) for b in obj["bounds"]], [int(c) for c in obj["counts"]]
        )


def make_uniform_grid(
    bounds: Sequence[tuple[float, float]], counts: Sequence[int]
) -> Grid:
    """Cartesian product grid with equally spaced points, endpoints included.

    Each dimension k gets counts[k] points spanning bounds[k]; a count of 1
    places the single point at the lower bound.
    """
    if len(bounds) != len(counts):
        raise ValueError("bounds and counts must have the same length")
    if not bounds:
        raise ValueError("at least one dimension required")
    axes = []
    spacing = []
    for (lo, hi), m in zip(bounds, counts):
        lo, hi = float(lo), float(hi)
        _check_interval(lo, hi)
        if m < 1:
            raise ValueError(f"count must be >= 1, got {m}")
        if m == 1:
            axes.append([lo])
            spacing.append(0.0)
        else:
            axes.append(list(np.linspace(lo, hi, m)))
            spacing.append((hi - lo) / (m - 1))
    points = tuple(tuple(float(c) for c in p) for p in itertools.product(*axes))
    return Grid(
        points=points,
        bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
        counts=tuple(int(m) for m in counts),
        spacing=tuple(spacing),
    )


@dataclass(frozen=True)
class Region:
    """A subset of a grid, stored as a bitset over grid indices.

    Bit i set means the i-th grid point belongs to the region. All set
    operations require both operands to share the same universe.
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

    def _check(self, other: Region) -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError("regions live over different universes")

    def union(self, other: Region) -> Region:
        self._check(other)
        return Region(self.universe, self.bits | other.bits)

    def intersection(self, other: Region) -> Region:
        self._check(other)
        return Region(self.universe, self.bits & other.bits)

    def complement(self) -> Region:
        return Region(self.universe, self.bits ^ ((1 << self.universe.size) - 1))

    def difference(self, other: Region) -> Region:
        self._check(other)
        return Region(self.universe, self.bits & ~other.bits)

    def is_subset(self, other: Region) -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __contains__(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def __len__(self) -> int:
        return int(self.bits).bit_count()

    @property
    def indices(self) -> tuple[int, ...]:
        size = self.universe.size
        packed = np.frombuffer(self.bits.to_bytes((size + 7) // 8, "little"), np.uint8)
        mask = np.unpackbits(packed, count=size, bitorder="little")
        return tuple(np.flatnonzero(mask).tolist())

    def to_json(self) -> str:
        """Serialize as a sorted index array."""
        return json.dumps(list(self.indices))

    @staticmethod
    def from_json(universe: Grid, text: str) -> Region:
        return universe.region(json.loads(text))

    def __repr__(self) -> str:
        return f"Region({len(self)}/{self.universe.size}: {list(self.indices)})"


@dataclass(frozen=True)
class Sample:
    """An ordered tuple of observations from the state space.

    Order is stored, but every score shipped with the package is invariant to
    permuting it; that invariance is property-tested, not assumed.
    """

    observations: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.observations) < 1:
            raise ValueError("sample must contain at least one observation")
        for p in self.observations:
            for c in p:
                if not math.isfinite(c):
                    raise ValueError(f"non-finite observation {p}")

    @staticmethod
    def of(values) -> Sample:
        """Build a sample from scalars (d=1) or point-like iterables."""
        return Sample(tuple(_as_point(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def dim(self) -> int:
        return len(self.observations[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.observations, dtype=float)

    def append(self, point) -> Sample:
        return Sample(self.observations + (_as_point(point),))


def drop_index(
    s: Sample, i: int
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """Remove the i-th observation (1-based), preserving the others' order.

    Returns (remaining observations, held-out point). The remainder is a
    plain tuple of points rather than a Sample so that dropping from a
    singleton yields the empty tuple; wrap it in Sample when nonempty.
    """
    if not 1 <= i <= s.n:
        raise IndexError(f"index {i} out of range 1..{s.n}")
    held = s.observations[i - 1]
    rest = s.observations[: i - 1] + s.observations[i:]
    return rest, held
