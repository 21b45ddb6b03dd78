"""Order statistics and failure counting shared by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# Percentiles the benchmark may report beside the median, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle two for even n)."""
    vals = list(values)
    if not vals:
        raise ValueError("median of no values")
    return float(statistics.median(vals))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(p / 100.0 * len(vals))
    return float(vals[rank - 1])


def tail_percentile(count: int) -> float | None:
    """The highest reportable percentile for `count` samples: the first of
    TAIL_PERCENTILES with at least ten samples strictly beyond its rank.
    None when no tail percentile is backed by ten samples."""
    for p in TAIL_PERCENTILES:
        if count - math.ceil(p / 100.0 * count) >= 10:
            return p
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    as `statistics.quantiles(values, n=4)` gives the quartiles."""
    q1, _q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median(values)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed when it produced any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
