"""The plausibility transducer and its prediction regions.

Given a sample y^n, a nonconformity score psi, and a finite grid of
candidate points, each candidate c is appended to the sample and scored by
the leave-one-out rule: T_i is the score of the i-th element of
(y_1..y_n, c) against the remaining n elements. The candidate's plausibility
is the fraction of the n+1 scores that are at least as large as the
candidate's own score T_{n+1},

    pi(c) = (n+1)^{-1} * #{ i : T_i >= T_{n+1} },

which always counts the candidate itself, so pi takes values in
{1/(n+1), ..., 1}. The alpha-level prediction region is the strict
super-level set {c : pi(c) > alpha}.

Plausibility values are stored as integer numerators over n+1 so that
membership of confidence levels in the attainable value set is exact. The
level is cut once, in `_cut`, on stored doubles with no epsilon: the
indicator structure is discontinuous by design and fuzzing it would
silently change the transducer.

Confidence levels that sit exactly on an attainable value are refused by
`check_level`, the ranking route's one refusal (the contour route,
`imprecise.ihdr_contour`, refuses the contour's own values): ranking ties at
those levels make the strict and weak super-level sets differ, which would
void every exact set-equality check downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, Region, Sample
from .scores import ScoreFn, _parts, _split

__all__ = [
    "Transducer",
    "TieLevelError",
    "transducer",
    "numerators_at",
    "levels",
    "check_level",
    "kappa",
    "superlevel_region",
]

# Below 2**53 every n + 1 is an exact double, so alpha * (n+1) is within one
# of its true value and the levels next to it are the only candidate ties.
_MAX_N = 2**53


class TieLevelError(ValueError):
    """Confidence level coincides with an attainable plausibility value."""


def _denominator(n: int) -> int:
    """n + 1, for a sample size n whose levels k/(n+1) doubles resolve."""
    if not 1 <= n < _MAX_N:
        raise ValueError(f"n must be in 1..2**53 - 1, got {n}")
    return n + 1


def levels(n: int) -> tuple[float, ...]:
    """The attainable-level set {0, 1/(n+1), ..., n/(n+1), 1} for sample size n."""
    m = _denominator(n)
    return tuple(k / m for k in range(m + 1))


def _cut(alpha: float, n: int) -> int:
    """The number q of levels k/(n+1) at or below alpha (0 below 0; n + 2
    above 1 or for NaN, which no level exceeds), so {pi > alpha} is {nums >= q}.
    Compares alpha exactly, on stored doubles, with only the levels whose k
    is next to alpha*(n+1), so it costs the same for any n."""
    m = _denominator(n)
    if not 0.0 <= alpha <= 1.0:
        return 0 if alpha < 0.0 else m + 1
    lo = max(math.floor(alpha * m) - 1, 0)
    return lo + sum(j / m <= alpha for j in range(lo, min(lo + 3, m) + 1))


def check_level(alpha: float, n: int) -> None:
    """Refuse alpha outside [0, 1] or on an attainable level k/(n+1): the
    highest level at or below alpha (`_cut`) must not equal it."""
    q = _cut(alpha, n)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(
            f"alpha={alpha} lies outside [0, 1], the span of the attainable "
            f"plausibility set {{k/{n + 1}}}"
        )
    if q and (q - 1) / (n + 1) == alpha:
        raise TieLevelError(
            f"alpha={alpha} lies on the attainable plausibility set "
            f"{{k/{n + 1}: k=0..{n + 1}}}; pick a level off that set"
        )


@dataclass(frozen=True, eq=False)
class Transducer:
    """Plausibility values over a grid, stored as exact rationals nums/(n+1).

    `nums` is a read-only int array, one numerator in 1..n+1 per grid point.
    """

    universe: Grid
    nums: np.ndarray
    n: int

    def __post_init__(self):
        nums = np.asarray(self.nums)
        if nums.shape != (self.universe.size,):
            raise ValueError("one value per grid point required")
        if self.n < 1 or nums.dtype.kind not in "iu" or nums.min() < 1 or nums.max() > self.n + 1:
            raise ValueError("numerators must lie in 1..n+1, with n >= 1")
        nums.flags.writeable = False
        object.__setattr__(self, "nums", nums)

    @property
    def values(self) -> np.ndarray:
        """Derived double-precision plausibilities."""
        return self.nums / (self.n + 1)

    @property
    def max_num(self) -> int:
        return int(self.nums.max())

    def is_consonant(self) -> bool:
        return self.max_num == self.n + 1


def _ranks(score_tables, d: int, universe: Grid, shape: tuple[int, ...]) -> np.ndarray:
    """#{i : T_i >= T_{n+1}} per row of the leave-one-out tables that
    `score_tables()` returns: the plausibility numerators.

    Checks the sample dimension d against the grid's before the kernel runs,
    then that the tables have `shape`, whose last axis is n + 1, and that
    every numerator lies in 1..n+1. A count of n + 1 comparisons is at most
    n + 1, so only the lower end is compared: a NaN candidate score counts 0.
    Rows are counted in the parts `_parts` gives the table's cells, into one
    comparison array and one count array allocated here.
    """
    if d != universe.dim:
        raise ValueError(f"dimension mismatch: sample d={d}, grid d={universe.dim}")
    tables = score_tables()
    if tables.shape != shape:
        raise ValueError("score kernel returned a malformed table")
    at_least = np.empty(shape, dtype=bool)
    nums = np.empty(shape[:-1], dtype=np.int64)

    def count(lo, hi):
        part = tables[lo:hi]
        np.add.reduce(np.greater_equal(part, part[..., -1:], out=at_least[lo:hi]), axis=-1, out=nums[lo:hi])

    _split(count, shape[0], _parts(shape[0], tables.size))
    if shape[-1] < 2 or nums.min(initial=1) < 1:
        raise ValueError("numerators must lie in 1..n+1, with n >= 1")
    return nums


def transducer(y_n: Sample, psi: ScoreFn, universe: Grid) -> Transducer:
    """Run the leave-one-out ranking transform over every grid point.

    The vectorized kernels in `scores` batch the grid loop. The result is
    memoized on the sample: a call with the same psi and universe objects
    (`is`) as the sample's last call returns that call's Transducer, which
    the read-only inputs make bit for bit what the kernel would compute
    again. Any other call computes anew and replaces the entry.
    """
    memo = y_n._memo
    if memo is not None and memo[0] is psi and memo[1].universe is universe:
        return memo[1]
    n = y_n.n
    nums = _ranks(
        lambda: psi.loo_matrix(y_n, universe.points), y_n.dim, universe, (universe.size, n + 1)
    )
    t = Transducer(universe=universe, nums=nums, n=n)
    object.__setattr__(y_n, "_memo", (psi, t))
    return t


def numerators_at(points: np.ndarray, idxs, psi: ScoreFn, universe: Grid) -> np.ndarray:
    """`transducer(Sample(points[t]), psi, universe).nums[idxs[t]]` for each
    sample of a (T, n, d) stack of finite points, from one call of the score
    kernel that computes only those T rows, with `transducer`'s checks."""
    count, n, d = points.shape
    rows = np.reshape(idxs, (count, 1))
    return _ranks(
        lambda: psi.loo_tables(points, universe.points, rows), d, universe, (count, 1, n + 1)
    )[:, 0]


def superlevel_region(t: Transducer, alpha: float) -> Region:
    """{c : pi(c) > alpha} on t's universe: the numerators at or above `_cut`."""
    return Region.from_mask(t.universe, t.nums >= _cut(alpha, t.n))


def kappa(alpha: float, y_n: Sample, psi: ScoreFn, universe: Grid) -> Region:
    """The alpha-level prediction region {c : pi(c, y^n) > alpha}.

    Refuses alpha on the attainable-value set; under that restriction the
    strict form equals the weak form at the next attainable level, so the
    strict one is computed and the weak one is reserved for diagnostics.
    """
    check_level(alpha, y_n.n)
    return superlevel_region(transducer(y_n, psi, universe), alpha)

