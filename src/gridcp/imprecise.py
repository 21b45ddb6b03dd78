"""Possibility contours, credal sets, and imprecise highest-density regions.

A consonant plausibility contour v (max value exactly 1) induces

* an upper probability  U(A) = max_{y in A} v(y)   (maxitive),
* a lower probability   L(A) = 1 - U(A^c)          (conjugate), and
* a credal set: every probability vector p with p(A) <= U(A) for all A.

The credal set is represented intensionally by its contour; only U and L are
ever used, so the (enormous) set of extreme points is never enumerated.

The alpha-level imprecise highest-density region is the intersection of all
events whose lower probability is at least 1-alpha. Two routes compute it:

* `ihdr_bruteforce` enumerates every subset of the grid and intersects the
  qualifying ones -- the definition, verbatim, usable up to 16 points;
* `ihdr_contour` takes the strict super-level set {y : v(y) > alpha}.

Their exact agreement (for alpha off the contour's value set) is one of the
structural facts this package machine-checks rather than assumes. The closed
form refuses an alpha on that value set, as the ranking route refuses one on
its attainable levels; the brute-force route stays definitional.

All set-level comparisons are exact on stored doubles; the membership test
alone uses an additive 1e-12 slack because probability masses arrive as
rounded sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fullcp import TieLevelError, Transducer, transducer
from .grid import Grid, Region, Sample, UniverseMismatchError
from .scores import ScoreFn

__all__ = [
    "PossibilityContour",
    "ProbVector",
    "cred",
    "upper_prob",
    "lower_prob",
    "is_member",
    "ihdr_bruteforce",
    "ihdr_contour",
    "check_functor_monotone",
]

_MEMBER_TOL = 1e-12
_BRUTE_LIMIT = 16
_MEMBER_LIMIT = 20


@dataclass(frozen=True, eq=False)
class PossibilityContour:
    """Per-point plausibilities in [0, 1] with maximum exactly 1, stored as a
    read-only float array."""

    universe: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.universe.size,):
            raise ValueError("one contour value per grid point required")
        outside = ~((values >= 0.0) & (values <= 1.0))
        if outside.any():
            raise ValueError(f"contour value {float(values[outside][0])} outside [0, 1]")
        if values.max() != 1.0:
            raise ValueError("contour is not consonant: max value must be exactly 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def _upper_table(self) -> np.ndarray:
        """U(A) for every bitmask A, read-only, built once per contour (it
        lives as long as the contour: 8 MiB at the 20-point cap)."""
        m = self.universe.size
        if m > _MEMBER_LIMIT:
            raise ValueError(f"universe of size {m} too large for subset enumeration")
        table = _subset_table(self.values, np.maximum)
        table.flags.writeable = False
        return table

    @staticmethod
    def from_transducer(t: Transducer) -> PossibilityContour:
        """The transducer divided by its grid maximum, so the top value is
        exactly 1; a consonant transducer keeps its values bit for bit."""
        return PossibilityContour(t.universe, t.nums / t.max_num)


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A probability mass function on the grid (sums to 1 within 1e-12),
    stored as a read-only float array; an array passed in is frozen in place."""

    universe: Grid
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.universe.size,):
            raise ValueError("one mass per grid point required")
        if not np.isfinite(mass).all():  # NaN passes the sign and sum checks
            raise ValueError("mass must be finite")
        if (mass < 0).any():
            raise ValueError("mass must be nonnegative")
        tot = math.fsum(mass.tolist())
        if abs(tot - 1.0) > 1e-12:
            raise ValueError(f"mass sums to {tot}, not 1")
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)


def cred(y_n: Sample, psi: ScoreFn, universe: Grid) -> PossibilityContour:
    """Sample -> credal set, as the contour that represents it: the ranking
    transform, normalized to consonance."""
    return PossibilityContour.from_transducer(transducer(y_n, psi, universe))


def upper_prob(c: PossibilityContour, a: Region) -> float:
    """max of the contour over the region; 0 for the empty region."""
    if a.universe != c.universe:
        raise UniverseMismatchError("region and contour live over different universes")
    return float(c.values[a.mask].max(initial=0.0))


def lower_prob(c: PossibilityContour, a: Region) -> float:
    """Conjugate lower probability: 1 - upper_prob(complement)."""
    return 1.0 - upper_prob(c, a.complement())


def _subset_table(values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """ufunc-reduction of the values per bitmask (0 for the empty set), built
    by doubling in place: masks with top bit b are the masks below 2^b
    updated by point b."""
    table = np.zeros(1 << values.shape[0])
    for b, v in enumerate(values.tolist()):
        ufunc(table[: 1 << b], v, out=table[1 << b : 2 << b])
    return table


def is_member(p: ProbVector, c: PossibilityContour) -> bool:
    """Dominance check over every subset: sum_A p <= max_A v + 1e-12.

    Enumerates all 2^size subsets, so the universe is capped at 20 points.
    """
    if p.universe != c.universe:
        raise UniverseMismatchError("vector and credal set live over different universes")
    maxv = c._upper_table
    return bool(np.all(_subset_table(p.mass, np.add) <= maxv + _MEMBER_TOL))


def _check_alpha(alpha: float) -> None:
    """Refuse a level outside [0, 1], NaN included."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def ihdr_bruteforce(alpha: float, c: PossibilityContour) -> Region:
    """Intersection of all subsets whose lower probability is >= 1 - alpha.

    L(A) = 1 - U(A^c) >= 1 - alpha is evaluated as U(A^c) <= alpha, which
    is the same condition in exact arithmetic and needs no rounded 1 - v.
    A^c = full - A, so U(A^c) for every A is the reversed table. The full
    grid always qualifies (its lower probability is 1), so the intersection
    is never over an empty family for alpha in [0, 1].
    """
    _check_alpha(alpha)
    m = c.universe.size
    if m > _BRUTE_LIMIT:
        raise ValueError(f"universe of size {m} too large for subset enumeration")
    qualifying = np.flatnonzero(c._upper_table[::-1] <= alpha)
    return Region(c.universe, int(np.bitwise_and.reduce(qualifying)))


def ihdr_contour(alpha: float, c: PossibilityContour) -> Region:
    """Closed form: the strict super-level set {y : v(y) > alpha}.

    Refuses (TieLevelError) an alpha on the contour's own value set
    (k/max_num for a normalized transducer), where the strict and weak
    super-level sets differ, as `check_level` refuses the ranking route's
    levels k/(n+1).
    """
    _check_alpha(alpha)
    if (c.values == alpha).any():
        raise TieLevelError(
            f"alpha={alpha} lies on the contour's value set; pick a level off that set"
        )
    return Region.from_mask(c.universe, c.values > alpha)


def check_functor_monotone(
    small: PossibilityContour, big: PossibilityContour, alpha: float
) -> bool:
    """Nested credal sets must yield nested regions at every level.

    Precondition (checked, error on violation): the small contour is
    pointwise dominated by the big one, which is sufficient for the induced
    credal sets to nest. Both regions go through the brute-force route, so
    a grid above 16 points is refused.
    """
    if small.universe != big.universe:
        raise UniverseMismatchError("contours live over different universes")
    vs, vb = small.values, big.values
    if (vs > vb).any():
        i = np.argmax(vs > vb)
        raise ValueError(f"precondition violated: small contour exceeds big ({vs[i]} > {vb[i]})")
    return ihdr_bruteforce(alpha, small).is_subset(ihdr_bruteforce(alpha, big))
