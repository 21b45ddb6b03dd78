"""The array forms of the Bayes side against the loops they replaced.

The functions prefixed `loop_` are the earlier per-element forms, kept here as
an oracle: the theta-by-y double loop of the inverse-posterior expectation,
the per-row likelihood table of the betting-score families, and the
posterior predictive's mean and sd. Each array form must match its loop byte
for byte, or raise the same error.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp import bayes, harness
from gridcp.bayes import (
    ConjugateModel,
    CredalPrior,
    _expectations_of_inverse_posterior,
    midpoint_grid,
    posterior_params,
    posterior_predictive,
)
from gridcp.grid import Sample, make_uniform_grid


def loop_expectations_of_inverse_posterior(cp: CredalPrior) -> np.ndarray:
    lik = np.asarray(cp.likelihood_table, dtype=float)
    up = np.asarray(cp.upper_density, dtype=float)
    low = np.asarray(cp.lower_density, dtype=float)
    marg = lik.T @ low * cp.dtheta
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


def loop_likelihood_table(theta_count: int, y_count: int) -> np.ndarray:
    thetas = midpoint_grid(0.0, 1.0, theta_count).points[:, 0]
    y_grid = midpoint_grid(0.0, 1.0, y_count)
    ys = y_grid.points[:, 0]
    dy = y_grid.spacing[0]
    rows = []
    for th in thetas:
        w = np.exp(-0.5 * ((ys - th) / 0.15) ** 2)
        w = w / (w.sum() * dy)
        rows.append(tuple(w.tolist()))
    return np.asarray(tuple(rows), dtype=float)


def loop_predictive_params(m: ConjugateModel, y_n: Sample) -> tuple[float, float]:
    n = y_n.n
    s2 = m.likelihood_sd**2
    t2 = m.prior_sd**2
    post_var = 1.0 / (1.0 / t2 + n / s2)
    ssum = math.fsum(y_n.points[:, 0].tolist())
    post_mean = post_var * (m.prior_mean / t2 + ssum / s2)
    return post_mean, math.sqrt(post_var + s2)


# Zeros are drawn often, so that posteriors and lower marginals vanish.
_ENTRY = st.one_of(st.just(0.0), st.floats(0.01, 4.0))


@st.composite
def credal_priors(draw):
    nt = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 8))
    low = np.array(draw(st.lists(_ENTRY, min_size=nt, max_size=nt)))
    up = low + np.array(draw(st.lists(_ENTRY, min_size=nt, max_size=nt)))
    if not up.any():
        up[draw(st.integers(0, nt - 1))] = 1.0
    lik = draw(st.lists(st.lists(_ENTRY, min_size=ny, max_size=ny), min_size=nt, max_size=nt))
    theta_grid = midpoint_grid(0.0, 1.0, nt)
    # Scaled so that integral(upper) is 1, and so integral(lower) <= 1.
    scale = 1.0 / (math.fsum(up.tolist()) * theta_grid.spacing[0])
    return CredalPrior(
        theta_grid=theta_grid,
        y_grid=midpoint_grid(0.0, 1.0, ny),
        lower_density=low * scale,
        upper_density=up * scale,
        likelihood_table=lik,
    )


def _outcome(fn, cp):
    try:
        return fn(cp).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(credal_priors())
def test_expectations_match_the_double_loop(cp):
    assert _outcome(_expectations_of_inverse_posterior, cp) == _outcome(
        loop_expectations_of_inverse_posterior, cp
    )


def test_generated_priors_reach_every_branch():
    # The strategy above must produce finite rows, +inf rows and the
    # vanishing-marginal error; count them on a fixed draw.
    seen = {"finite": 0, "inf": 0, "error": 0}

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(credal_priors())
    def tally(cp):
        try:
            out = loop_expectations_of_inverse_posterior(cp)
        except ValueError:
            seen["error"] += 1
            return
        seen["inf" if np.isinf(out).any() else "finite"] += 1

    tally()
    assert all(seen.values()), seen


@pytest.mark.parametrize("theta_count", [1, 2, 7, 101, 150])
@pytest.mark.parametrize("y_count", [1, 2, 7, 101, 150])
def test_family_likelihood_table_matches_the_row_loop(monkeypatch, theta_count, y_count):
    # Capture the families' constructor arguments in a dataclass of the same
    # fields that checks nothing: at theta counts 1 and 2 the violating
    # family's envelopes are inconsistent, and CredalPrior would refuse them
    # before the table could be read.
    names = [f.name for f in dataclasses.fields(bayes.CredalPrior) if f.init]
    monkeypatch.setattr(bayes, "CredalPrior", dataclasses.make_dataclass("Fields", names))
    conforming, violating, _dip = harness._eposterior_families(theta_count, y_count)
    expected = loop_likelihood_table(theta_count, y_count).tobytes()
    assert conforming.likelihood_table.tobytes() == expected
    assert violating.likelihood_table is conforming.likelihood_table


def test_posterior_params_match_the_predictive():
    rng = np.random.default_rng(5)
    grid = make_uniform_grid([(-1.0, 1.0)], [3])
    for _ in range(200):
        m = ConjugateModel(
            likelihood_sd=float(np.exp(rng.uniform(-0.5, 0.5))),
            prior_mean=float(rng.uniform(-2.0, 2.0)),
            prior_sd=float(np.exp(rng.uniform(-0.5, 1.0))),
        )
        s = Sample.of(m.prior_mean + rng.standard_normal(int(rng.integers(1, 31))) * 1.5)
        pd = posterior_predictive(m, s, grid)
        assert posterior_params(m, s) == loop_predictive_params(m, s) == (pd.mean, pd.sd)
