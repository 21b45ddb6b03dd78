"""Conjugate Gaussian predictives, their level-set regions, and upper posteriors.

The model is Normal with known observation noise and a Normal prior on the
mean, so the posterior predictive is Normal in closed form. Using minus the
predictive density as a nonconformity score ties the Bayesian construction
to the ranking machinery in `fullcp`: the alpha-level set of the predictive
density, cut at an order-statistic threshold derived from the training
points' own densities, must coincide exactly with the ranking region and
with the contour route through `imprecise`. `bayes_triangle_detail` verifies
that three-way identity as exact bitset equality.

The threshold: with q the least k such that k/(n+1) > alpha, counted on
`fullcp.levels` (alpha off that set), a candidate is in the region iff at
least q-1 of the n training points have density <= the candidate's, i.e.
iff its density is at least the (q-1)-th smallest training density (full
grid when q = 1).

Exact ties among training densities are refused, not broken: the order
statistics presume distinct values, and silent tie-breaking could fake
set-equality failures (or successes).

The second half of the module treats sets of priors given by lower/upper
density envelopes on a parameter grid. The upper posterior is

    post(theta | y) = lik(y | theta) * upper(theta) / lowmarg(y),

with lowmarg the marginal likelihood under the lower envelope, and the
package checks the equivalence: 1/post is a fair betting score (expectation
at most 1 under every parameter) exactly when the lower envelope's total
mass is at most the upper envelope everywhere. All integrals are midpoint
quadratures on the supplied grids.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fullcp import check_level, kappa, levels, transducer
from .grid import Grid, Region, Sample, _check_interval
from .imprecise import cred, ihdr_contour
from .scores import NegPredictiveDensity, gaussian_pdf

__all__ = [
    "ConjugateModel",
    "PredictiveDensity",
    "CredalPrior",
    "DensityTieError",
    "posterior_params",
    "posterior_predictive",
    "bcp",
    "quant",
    "bayes_triangle_detail",
    "upper_posterior",
    "check_eposterior",
    "midpoint_grid",
]


class DensityTieError(ValueError):
    """Exact density ties among training points: order statistics undefined."""


@dataclass(frozen=True)
class ConjugateModel:
    """Normal likelihood with known sd, Normal prior on the mean."""

    likelihood_sd: float
    prior_mean: float
    prior_sd: float

    def __post_init__(self):
        if not math.isfinite(self.prior_mean):
            raise ValueError(f"prior_mean must be finite, got {self.prior_mean}")
        for name in ("likelihood_sd", "prior_sd"):
            sd = getattr(self, name)
            if not (math.isfinite(sd) and sd > 0):
                raise ValueError(f"{name} must be finite and positive, got {sd}")


@dataclass(frozen=True, eq=False)
class PredictiveDensity:
    """A Gaussian posterior predictive fit to `sample`."""

    mean: float
    sd: float
    universe: Grid
    sample: Sample

    def density(self, y):
        return gaussian_pdf(y, self.mean, self.sd)

    @cached_property
    def evaluated(self) -> np.ndarray:
        """The density at each grid point, computed once, read-only."""
        vals = self.density(self.universe.points[:, 0])
        vals.flags.writeable = False
        return vals


def posterior_params(m: ConjugateModel, y_n: Sample) -> tuple[float, float]:
    """Mean and sd of the posterior predictive: the exact conjugate update,
    whose predictive variance adds the noise variance."""
    if y_n.dim != 1:
        raise ValueError("conjugate model is univariate")
    s2 = m.likelihood_sd**2
    t2 = m.prior_sd**2
    post_var = 1.0 / (1.0 / t2 + y_n.n / s2)
    ssum = math.fsum(y_n.points[:, 0].tolist())
    post_mean = post_var * (m.prior_mean / t2 + ssum / s2)
    return post_mean, math.sqrt(post_var + s2)


def posterior_predictive(
    m: ConjugateModel, y_n: Sample, universe: Grid
) -> PredictiveDensity:
    """The posterior predictive of `posterior_params` over the grid."""
    if universe.dim != 1:
        raise ValueError("conjugate model is univariate")
    mean, sd = posterior_params(m, y_n)
    return PredictiveDensity(mean=mean, sd=sd, universe=universe, sample=y_n)


def bcp(pd: PredictiveDensity) -> NegPredictiveDensity:
    """Freeze the predictive into a score: psi(_, y) = -density(y).

    The sample argument of the resulting score is ignored, so permutation
    invariance holds vacuously (and is still property-tested).
    """
    return NegPredictiveDensity(mean=pd.mean, sd=pd.sd)


def quant(alpha: float, pd: PredictiveDensity) -> Region:
    """Order-statistic level set of the predictive density on its grid.

    Region = {y in grid : density(y) >= c} with c the (q-1)-th smallest
    density of the training sample and q the least k with k/(n+1) > alpha,
    counted on `levels(n)`; the full grid when q = 1.
    """
    n = pd.sample.n
    check_level(alpha, n)
    dens = pd.density(pd.sample.points[:, 0])
    if len(set(dens.tolist())) != n:
        raise DensityTieError(
            "training points have exactly tied predictive densities; "
            "the order-statistic threshold is undefined"
        )
    q = bisect.bisect_right(levels(n), alpha)
    if q <= 1:
        return pd.universe.full_region()
    c = float(np.sort(dens)[q - 2])  # (q-1)-th smallest, 0-based
    return Region.from_mask(pd.universe, pd.evaluated >= c)


def bayes_triangle_detail(
    alpha: float, m: ConjugateModel, y_n: Sample, universe: Grid
) -> tuple[bool, dict]:
    """Exact three-way set identity: level set == ranking region == contour
    region. Returns the verdict and the three regions' indices, with the
    transducer's consonance."""
    pd = posterior_predictive(m, y_n, universe)
    score = bcp(pd)
    r_quant = quant(alpha, pd)
    r_kappa = kappa(alpha, y_n, score, universe)
    t = transducer(y_n, score, universe)
    r_ihdr = ihdr_contour(alpha, cred(y_n, score, universe))
    ok = r_quant == r_kappa == r_ihdr
    return ok, {
        "quant": list(r_quant.indices),
        "kappa": list(r_kappa.indices),
        "ihdr": list(r_ihdr.indices),
        "consonant": t.is_consonant(),
    }


def midpoint_grid(lo: float, hi: float, count: int) -> Grid:
    """1-d grid of cell midpoints tiling [lo, hi]; spacing * count == hi - lo.

    Suits midpoint quadrature: integrals become sum(values) * spacing.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if lo >= hi:
        raise ValueError("need lo < hi")
    lo, hi = float(lo), float(hi)
    _check_interval(lo, hi)
    width = (hi - lo) / count
    axis = tuple(lo + (i + 0.5) * width for i in range(count))
    return Grid(axes=(axis,), spacing=(width,))


@dataclass(frozen=True, eq=False)
class CredalPrior:
    """Lower/upper prior density envelopes on a parameter grid, plus the
    likelihood table lik[i, j] = density of data configuration y_j given
    parameter theta_i. The y-grid supplies the data-side quadrature.

    The envelopes and the table are stored as read-only float arrays; an
    array passed in is frozen in place. `lower_integral` is the lower
    envelope's integral, fsum(lower) * dtheta.
    """

    theta_grid: Grid
    y_grid: Grid
    lower_density: np.ndarray
    upper_density: np.ndarray
    likelihood_table: np.ndarray
    lower_integral: float = field(init=False)

    def __post_init__(self):
        nt = self.theta_grid.size
        low = np.asarray(self.lower_density, dtype=float)
        up = np.asarray(self.upper_density, dtype=float)
        if low.shape != (nt,) or up.shape != (nt,):
            raise ValueError("densities must match the parameter grid")
        try:
            lik = np.asarray(self.likelihood_table, dtype=float)
        except ValueError:  # ragged rows
            lik = None
        if lik is None or lik.shape != (nt, self.y_grid.size):
            raise ValueError("likelihood table must be (n_theta, n_y)")
        fields = {"lower_density": low, "upper_density": up, "likelihood_table": lik}
        # Every order and integral check below compares false on NaN.
        for name, arr in fields.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if (low < 0).any() or (up < 0).any():
            raise ValueError("densities must be nonnegative")
        if (low > up).any():
            raise ValueError("lower envelope exceeds upper envelope")
        low_int = math.fsum(low.tolist()) * self.dtheta
        up_int = math.fsum(up.tolist()) * self.dtheta
        if low_int > 1.0 + 1e-9 or up_int < 1.0 - 1e-9:
            raise ValueError(
                f"envelope inconsistency: integral(lower)={low_int} must be <= 1 "
                f"<= integral(upper)={up_int}"
            )
        for name, arr in fields.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "lower_integral", low_int)

    @property
    def dtheta(self) -> float:
        return self.theta_grid.spacing[0]

    @property
    def dy(self) -> float:
        return self.y_grid.spacing[0]


def lower_marginal(cp: CredalPrior) -> np.ndarray:
    """Marginal likelihood of each data configuration under the lower envelope."""
    return cp.likelihood_table.T @ cp.lower_density * cp.dtheta  # (n_y,)


def upper_posterior(cp: CredalPrior, y_index: int) -> np.ndarray:
    """Upper posterior density over the parameter grid for one data row.

    post(theta | y) = lik(y | theta) * upper(theta) / lowmarg(y); errors when
    the lower-envelope marginal vanishes (no mass to normalize against).
    """
    if not 0 <= y_index < cp.y_grid.size:
        raise IndexError(f"y_index {y_index} out of range")
    marg = float(lower_marginal(cp)[y_index])
    if marg <= 0.0:
        raise ValueError(
            "lower-envelope marginal likelihood is zero for this data row"
        )
    return cp.likelihood_table[:, y_index] * cp.upper_density / marg


def _expectations_of_inverse_posterior(cp: CredalPrior) -> np.ndarray:
    """For each parameter theta: E_{Y ~ lik(.|theta)}[ 1 / post(theta | Y) ].

    Computed directly as a quadrature over the data grid -- no symbolic
    cancellation -- so it is an independent witness for the betting-score
    condition. Zero-likelihood terms are skipped. A row stops at its first
    other term whose lower marginal vanishes (an error) or whose posterior
    vanishes (+inf); otherwise its terms are summed left to right.
    """
    lik = cp.likelihood_table
    marg = lower_marginal(cp)
    # Two (n_theta, n_y) tables in all, each computed and summed in place.
    with np.errstate(divide="ignore", invalid="ignore"):
        post = lik * cp.upper_density[:, None]
        post /= marg
        terms = lik * cp.dy
        terms /= post
    reachable = lik != 0.0
    undefined = reachable & (marg <= 0.0)
    infinite = reachable & ~undefined & (post <= 0.0)
    stops = undefined | infinite
    first = np.argmax(stops, axis=1)
    if undefined[np.arange(len(lik)), first].any():
        raise ValueError(
            "lower-envelope marginal likelihood vanishes on reachable "
            "data; the inverse-posterior expectation is undefined"
        )
    terms[~reachable | stops] = 0.0
    out = np.cumsum(terms, axis=1, out=terms)[:, -1]
    out[stops.any(axis=1)] = math.inf
    return out


def check_eposterior(cp: CredalPrior) -> tuple[bool, float]:
    """Both sides of the betting-score equivalence.

    Side (a): integral of the lower envelope <= upper envelope at every
    parameter. Side (b): the maximum over parameters of
    E[1 / upper_posterior] computed by quadrature. The claim under test is
    (a) holds iff that maximum is <= 1; callers assert the agreement.

    Precondition: every likelihood row is a proper density over the data
    grid (row sum times dy within 1e-6 of 1).
    """
    row_sums = cp.likelihood_table.sum(axis=1) * cp.dy
    bad = np.abs(row_sums - 1.0) > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"likelihood row {i} is not a proper density (sum*dy={row_sums[i]})"
        )
    condition = bool((cp.lower_integral <= cp.upper_density).all())
    expectations = _expectations_of_inverse_posterior(cp)
    return condition, float(np.max(expectations))
