"""Conjugate Gaussian predictives, their level-set regions, and upper posteriors.

The model is Normal with known observation noise and a Normal prior on the
mean, so the posterior predictive is Normal in closed form. Using minus the
predictive density as a nonconformity score ties the Bayesian construction
to the ranking machinery in `fullcp`: the alpha-level set of the predictive
density, cut at an order-statistic threshold derived from the training
points' own densities, must coincide exactly with the ranking region and
with the contour route through `imprecise`. `check_bayes_triangle` verifies
that three-way identity as exact bitset equality.

The threshold: with q = ceil((n+1) * alpha) (alpha off the attainable set),
a candidate is in the region iff at least q-1 of the n training points have
density <= the candidate's, i.e. iff the candidate's density is at least the
(q-1)-th smallest training density (full grid when q = 1). The cumulative-
distribution quantile that usually defines such regions is also provided,
as a diagnostic only: its level set differs from the order-statistic one by
a boundary sliver in general, and `quant_cdf_diagnostic` reports that
disagreement instead of papering over it.

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

import math
from dataclasses import dataclass

import numpy as np

from .fullcp import TieGrid, TieLevelError, assert_no_tie
from .grid import Grid, Region, Sample
from .scores import NegPredictiveDensity, gaussian_pdf

__all__ = [
    "ConjugateModel",
    "PredictiveDensity",
    "CredalPrior",
    "DensityTieError",
    "posterior_predictive",
    "bcp",
    "quant",
    "quant_cdf_diagnostic",
    "check_bayes_triangle",
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
        if self.likelihood_sd <= 0:
            raise ValueError("likelihood_sd must be positive")
        if self.prior_sd <= 0:
            raise ValueError("prior_sd must be positive")

    @staticmethod
    def from_json_obj(obj: dict) -> ConjugateModel:
        return ConjugateModel(
            likelihood_sd=float(obj["likelihood_sd"]),
            prior_mean=float(obj["prior_mean"]),
            prior_sd=float(obj["prior_sd"]),
        )


@dataclass(frozen=True, eq=False)
class PredictiveDensity:
    """A Gaussian posterior predictive fit to `sample`, with its values on the
    grid cached as the read-only array `evaluated`."""

    mean: float
    sd: float
    universe: Grid
    evaluated: np.ndarray
    sample: Sample

    def __post_init__(self):
        object.__setattr__(self, "evaluated", np.asarray(self.evaluated, dtype=float))
        self.evaluated.flags.writeable = False

    def density(self, y):
        return gaussian_pdf(y, self.mean, self.sd)


def posterior_predictive(
    m: ConjugateModel, y_n: Sample, universe: Grid
) -> PredictiveDensity:
    """Exact conjugate update; predictive variance adds the noise variance."""
    if y_n.dim != 1 or universe.dim != 1:
        raise ValueError("conjugate model is univariate")
    n = y_n.n
    s2 = m.likelihood_sd**2
    t2 = m.prior_sd**2
    post_var = 1.0 / (1.0 / t2 + n / s2)
    ssum = math.fsum(y_n.points[:, 0].tolist())
    post_mean = post_var * (m.prior_mean / t2 + ssum / s2)
    pred_sd = math.sqrt(post_var + s2)
    vals = gaussian_pdf(universe.points[:, 0], post_mean, pred_sd)
    return PredictiveDensity(
        mean=post_mean, sd=pred_sd, universe=universe, evaluated=vals, sample=y_n
    )


def bcp(y_n: Sample, pd: PredictiveDensity) -> NegPredictiveDensity:
    """Freeze the predictive into a score: psi(_, y) = -density(y).

    The sample argument of the resulting score is ignored, so permutation
    invariance holds vacuously (and is still property-tested).
    """
    if not np.array_equal(pd.sample.points, y_n.points):
        raise ValueError("predictive was not built from this sample")
    return NegPredictiveDensity(mean=pd.mean, sd=pd.sd)


def quant(alpha: float, y_n: Sample, pd: PredictiveDensity, universe: Grid) -> Region:
    """Order-statistic level set of the predictive density.

    Region = {y in grid : density(y) >= c} with c the (q-1)-th smallest
    training density, q = ceil((n+1) * alpha); the full grid when q = 1.
    """
    n = y_n.n
    if not assert_no_tie(alpha, TieGrid(n)):
        raise TieLevelError(
            f"alpha={alpha} lies on the attainable plausibility set for n={n}"
        )
    dens = pd.density(y_n.points[:, 0])
    if len(set(dens.tolist())) != n:
        raise DensityTieError(
            "training points have exactly tied predictive densities; "
            "the order-statistic threshold is undefined"
        )
    q = math.ceil((n + 1) * alpha)
    if q <= 1:
        return universe.full_region()
    c = float(np.sort(dens)[q - 2])  # (q-1)-th smallest, 0-based
    grid_dens = pd.density(universe.points[:, 0])
    return Region.from_mask(universe, grid_dens >= c)


def quant_cdf_diagnostic(
    alpha: float, y_n: Sample, pd: PredictiveDensity, universe: Grid
) -> tuple[Region, int]:
    """Level set cut at the grid-quadrature CDF quantile, plus its disagreement.

    The threshold is the smallest density value c (among grid densities) with
    sum_{y: density(y) <= c} density(y) * dy >= 1 - alpha. Returns the region
    and the size of its symmetric difference against the order-statistic
    region. Diagnostic only; excluded from every acceptance check.
    """
    dy = universe.spacing[0]
    grid_dens = pd.density(universe.points[:, 0])
    order = np.argsort(grid_dens)
    csum = np.cumsum(grid_dens[order] * dy)
    # F(c) sweeps the sorted density values; take the first c with F >= 1-alpha.
    pos = int(np.searchsorted(csum, 1.0 - alpha))
    c = math.inf if pos >= len(order) else float(grid_dens[order][pos])
    region = Region.from_mask(universe, grid_dens >= c)
    exact = quant(alpha, y_n, pd, universe)
    return region, len(region.difference(exact)) + len(exact.difference(region))


def check_bayes_triangle(
    alpha: float, m: ConjugateModel, y_n: Sample, universe: Grid
) -> bool:
    """Exact three-way set identity: level set == ranking region == contour region."""
    ok, _detail = bayes_triangle_detail(alpha, m, y_n, universe)
    return ok


def bayes_triangle_detail(
    alpha: float, m: ConjugateModel, y_n: Sample, universe: Grid
) -> tuple[bool, dict]:
    """Triangle check with the three regions and consonance surfaced."""
    from .fullcp import kappa, transducer
    from .imprecise import cred, ihdr_contour

    pd = posterior_predictive(m, y_n, universe)
    score = bcp(y_n, pd)
    r_quant = quant(alpha, y_n, pd, universe)
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
    width = (hi - lo) / count
    axis = tuple(lo + (i + 0.5) * width for i in range(count))
    return Grid(axes=(axis,), bounds=((lo, hi),), spacing=(width,))


@dataclass(frozen=True)
class CredalPrior:
    """Lower/upper prior density envelopes on a parameter grid, plus the
    likelihood table lik[i, j] = density of data configuration y_j given
    parameter theta_i. The y-grid supplies the data-side quadrature."""

    theta_grid: Grid
    y_grid: Grid
    lower_density: tuple[float, ...]
    upper_density: tuple[float, ...]
    likelihood_table: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        nt = self.theta_grid.size
        ny = self.y_grid.size
        if len(self.lower_density) != nt or len(self.upper_density) != nt:
            raise ValueError("densities must match the parameter grid")
        if len(self.likelihood_table) != nt or any(
            len(row) != ny for row in self.likelihood_table
        ):
            raise ValueError("likelihood table must be (n_theta, n_y)")
        for lo, hi in zip(self.lower_density, self.upper_density):
            if lo < 0 or hi < 0:
                raise ValueError("densities must be nonnegative")
            if lo > hi:
                raise ValueError("lower envelope exceeds upper envelope")
        dtheta = self.theta_grid.spacing[0]
        low_int = math.fsum(self.lower_density) * dtheta
        up_int = math.fsum(self.upper_density) * dtheta
        if low_int > 1.0 + 1e-9 or up_int < 1.0 - 1e-9:
            raise ValueError(
                f"envelope inconsistency: integral(lower)={low_int} must be <= 1 "
                f"<= integral(upper)={up_int}"
            )

    @property
    def dtheta(self) -> float:
        return self.theta_grid.spacing[0]

    @property
    def dy(self) -> float:
        return self.y_grid.spacing[0]

    def lik(self) -> np.ndarray:
        return np.asarray(self.likelihood_table, dtype=float)

    @staticmethod
    def from_json_obj(obj: dict) -> CredalPrior:
        tg = obj["theta_grid"]
        yg = obj["y_grid"]
        return CredalPrior(
            theta_grid=midpoint_grid(tg["lo"], tg["hi"], int(tg["count"])),
            y_grid=midpoint_grid(yg["lo"], yg["hi"], int(yg["count"])),
            lower_density=tuple(float(v) for v in obj["lower_density"]),
            upper_density=tuple(float(v) for v in obj["upper_density"]),
            likelihood_table=tuple(
                tuple(float(v) for v in row) for row in obj["likelihood_table"]
            ),
        )


def lower_marginal(cp: CredalPrior) -> np.ndarray:
    """Marginal likelihood of each data configuration under the lower envelope."""
    low = np.asarray(cp.lower_density, dtype=float)
    return cp.lik().T @ low * cp.dtheta  # (n_y,)


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
    up = np.asarray(cp.upper_density, dtype=float)
    return cp.lik()[:, y_index] * up / marg


def _expectations_of_inverse_posterior(cp: CredalPrior) -> np.ndarray:
    """For each parameter theta: E_{Y ~ lik(.|theta)}[ 1 / post(theta | Y) ].

    Computed directly as a quadrature over the data grid -- no symbolic
    cancellation -- so it is an independent witness for the betting-score
    condition. Zero-likelihood terms contribute zero; a vanishing posterior
    against positive likelihood yields +inf.
    """
    lik = cp.lik()
    up = np.asarray(cp.upper_density, dtype=float)
    marg = lower_marginal(cp)
    nt = cp.theta_grid.size
    out = np.empty(nt)
    for i in range(nt):
        total = 0.0
        for j in range(cp.y_grid.size):
            lj = lik[i, j]
            if lj == 0.0:
                continue
            if marg[j] <= 0.0:
                raise ValueError(
                    "lower-envelope marginal likelihood vanishes on reachable "
                    "data; the inverse-posterior expectation is undefined"
                )
            post = lj * up[i] / marg[j]
            if post <= 0.0:
                total = math.inf
                break
            total += lj * cp.dy / post
        out[i] = total
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
    lik = cp.lik()
    row_sums = lik.sum(axis=1) * cp.dy
    bad = np.abs(row_sums - 1.0) > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"likelihood row {i} is not a proper density (sum*dy={row_sums[i]})"
        )
    low_int = math.fsum(cp.lower_density) * cp.dtheta
    condition = all(low_int <= u for u in cp.upper_density)
    expectations = _expectations_of_inverse_posterior(cp)
    return condition, float(np.max(expectations))
