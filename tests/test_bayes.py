"""Conjugate predictives, level-set regions, the triangle, and upper posteriors."""

import itertools
import math

import numpy as np
import pytest

from gridcp.bayes import (
    ConjugateModel,
    CredalPrior,
    DensityTieError,
    PredictiveDensity,
    bayes_triangle_detail,
    bcp,
    check_eposterior,
    lower_marginal,
    midpoint_grid,
    posterior_params,
    posterior_predictive,
    quant,
    upper_posterior,
)
from gridcp.fullcp import TieLevelError, kappa
from gridcp.grid import Sample, make_uniform_grid


def small_grid(lo=-5.0, hi=5.0, count=101):
    return make_uniform_grid([(lo, hi)], [count])


class TestPosteriorPredictive:
    def test_refuses_values_that_are_not_one_per_grid_point(self):
        # Accepted, quant would fail later: a mask of shape (2,) on a 5-point grid.
        universe = make_uniform_grid([(0, 1)], [5])
        with pytest.raises(ValueError, match=r"evaluated has shape \(2,\)"):
            PredictiveDensity(0.0, 1.0, universe, [1.0, 2.0], Sample.of([0.5]))
        with pytest.raises(ValueError, match=r"evaluated has shape \(5, 1\)"):
            PredictiveDensity(0.0, 1.0, universe, np.ones((5, 1)), Sample.of([0.5]))

    def test_flat_prior_limit(self):
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=1.0, prior_sd=1e6)
        pd = posterior_predictive(m, Sample.of([0.0, 0.0, 0.0, 0.0]), small_grid())
        assert abs(pd.mean) < 1e-5

    def test_textbook_single_observation(self):
        # Re-derived: posterior precision 1/1 + 1/1 = 2, predictive variance
        # 1/2 + 1 = 3/2.
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        pd = posterior_predictive(m, Sample.of([0.0]), small_grid())
        assert pd.mean == 0.0
        assert pd.sd == math.sqrt(1.5)

    def test_density_integrates_to_one(self):
        # Quadrature oracle: trapezoid rule on an 8-predictive-sd window.
        m = ConjugateModel(likelihood_sd=0.7, prior_mean=-1.0, prior_sd=2.0)
        pd = posterior_predictive(m, Sample.of([0.4, -0.2, 1.1]), small_grid())
        grid = make_uniform_grid([(pd.mean - 8 * pd.sd, pd.mean + 8 * pd.sd)], [4001])
        xs = grid.points[:, 0]
        integral = float(np.trapezoid(pd.density(xs), xs))
        assert abs(integral - 1.0) < 1e-6

    def test_rejects_nonpositive_sd(self):
        with pytest.raises(ValueError):
            ConjugateModel(likelihood_sd=0.0, prior_mean=0.0, prior_sd=1.0)
        with pytest.raises(ValueError):
            ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=-2.0)

    @pytest.mark.parametrize(
        "field, value",
        [("prior_mean", v) for v in (math.nan, math.inf, -math.inf)]
        + [(f, v) for f in ("likelihood_sd", "prior_sd")
           for v in (math.nan, math.inf, -math.inf, 0.0)],
    )
    def test_rejects_non_finite_mean_and_non_positive_sd(self, field, value):
        params = {"likelihood_sd": 1.0, "prior_mean": 0.0, "prior_sd": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ConjugateModel(**params)

    def test_cached_values_match_density(self):
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        grid = small_grid()
        pd = posterior_predictive(m, Sample.of([0.3]), grid)
        np.testing.assert_array_equal(
            np.asarray(pd.evaluated), pd.density(grid.points[:, 0])
        )


class TestBcp:
    def setup_method(self):
        self.m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        self.grid = small_grid()
        self.s = Sample.of([0.5, -0.3, 1.2])
        self.pd = posterior_predictive(self.m, self.s, self.grid)

    def test_score_is_minus_cached_density(self):
        psi = bcp(self.pd)
        t = psi.loo_matrix(self.s, self.grid.points)
        np.testing.assert_array_equal(t[:, -1], -np.asarray(self.pd.evaluated))

    def test_minimum_score_at_density_peak(self):
        scores = bcp(self.pd).loo_matrix(self.s, self.grid.points)[:, -1]
        best = self.grid.points[int(np.argmin(scores))][0]
        assert abs(best - self.pd.mean) <= self.grid.spacing[0] / 2 + 1e-12

    def test_symmetric_candidates_tie(self):
        m = self.pd.mean
        t = bcp(self.pd).loo_matrix(self.s, [m + 0.8, m - 0.8])
        assert t[0, -1] == t[1, -1]

    def test_cached_values_are_read_only(self):
        assert self.pd.evaluated.shape == (self.grid.size,)
        with pytest.raises(ValueError):
            self.pd.evaluated[0] = 0.0

    def test_permutation_invariance_vacuous_but_tested(self):
        # Every permutation of the sample permutes the training columns and
        # leaves the candidate column bit-identical.
        psi, candidates = bcp(self.pd), self.grid.points
        table = psi.loo_matrix(self.s, candidates)
        for perm in itertools.permutations(range(self.s.n)):
            permuted = psi.loo_matrix(Sample(self.s.points[list(perm)]), candidates)
            assert permuted[:, :-1].tobytes() == table[:, list(perm)].tobytes()
            assert permuted[:, -1].tobytes() == table[:, -1].tobytes()


class TestQuant:
    def setup_method(self):
        self.m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.2, prior_sd=1.0)
        self.grid = small_grid()

    def test_tiny_alpha_full_grid(self):
        # q = ceil(3 * 0.01) = 1: no training point needs to out-score the
        # candidate, so every grid point survives (matching the ranking
        # route, whose plausibility floor is 1/(n+1) > alpha).
        s = Sample.of([0.4, -0.6])
        pd = posterior_predictive(self.m, s, self.grid)
        assert quant(0.01, pd) == self.grid.full_region()

    def test_upper_level_set_property(self):
        s = Sample.of([0.4, -0.6, 1.3, 0.9, -1.7])
        pd = posterior_predictive(self.m, s, self.grid)
        r = quant(0.43, pd)
        dens = pd.density(self.grid.points[:, 0])
        cutoff = min(dens[i] for i in r.indices)
        for i in range(self.grid.size):
            if dens[i] >= cutoff:
                assert i in r

    def test_antitone_nesting(self):
        rng = np.random.default_rng(1)
        s = Sample.of(rng.standard_normal(20).tolist())
        pd = posterior_predictive(self.m, s, self.grid)
        r_mid = quant(0.5005, pd)
        r_high = quant(0.95005, pd)
        assert r_high.is_subset(r_mid)

    def test_mirror_symmetric_data_ties_and_is_refused(self):
        # A symmetric model with mirror-image data puts exactly equal
        # predictive density on both points: the order statistics are
        # undefined and the call must refuse rather than break ties.
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        s = Sample.of([-1.0, 1.0])
        pd = posterior_predictive(m, s, self.grid)
        with pytest.raises(DensityTieError):
            quant(0.13, pd)

    def test_tie_level_refused(self):
        s = Sample.of([0.4, -0.6])
        pd = posterior_predictive(self.m, s, self.grid)
        with pytest.raises(TieLevelError):
            quant(1.0 / 3.0, pd)


class TestConsonanceAtMode:
    def test_transducer_attains_one_when_mode_is_on_grid(self):
        # Mirror data under a centered model puts the predictive mode at 0,
        # which an odd-count symmetric grid contains exactly: the raw
        # transducer must reach the top value there.
        from gridcp.fullcp import transducer

        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        s = Sample.of([-1.0, 1.0])
        grid = make_uniform_grid([(-5, 5)], [101])
        pd = posterior_predictive(m, s, grid)
        assert pd.mean == 0.0 and 0.0 in grid.axes[0]
        t = transducer(s, bcp(pd), grid)
        assert t.nums[grid.nearest_index(0.0)] == s.n + 1
        assert t.is_consonant()

    def test_snapped_training_data_forces_consonance(self):
        # When training points sit on the grid, the grid's density argmax
        # dominates them all, so the top plausibility value is attained.
        from gridcp.fullcp import transducer

        rng = np.random.default_rng(17)
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.3, prior_sd=1.2)
        grid = make_uniform_grid([(-6, 6)], [121])
        for _ in range(10):
            raw = rng.standard_normal(8)
            s = Sample(grid.points[[grid.nearest_index(v) for v in raw]])
            pd = posterior_predictive(m, s, grid)
            assert transducer(s, bcp(pd), grid).is_consonant()


class TestTriangle:
    def test_fixed_instance(self):
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        rng = np.random.default_rng(0)
        s = Sample.of(rng.standard_normal(10).tolist())
        grid = small_grid(-5, 5, 101)
        ok, detail = bayes_triangle_detail(0.13, m, s, grid)
        assert ok
        assert detail["consonant"]

    def test_quant_equals_kappa_on_randomized_instances(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 30:
            n = int(rng.integers(5, 25))
            m = ConjugateModel(
                likelihood_sd=float(np.exp(rng.uniform(-0.4, 0.4))),
                prior_mean=float(rng.uniform(-1, 1)),
                prior_sd=float(np.exp(rng.uniform(-0.4, 0.8))),
            )
            data = m.prior_mean + rng.standard_normal(n)
            s = Sample.of(data.tolist())
            mean, sd = posterior_params(m, s)
            grid = make_uniform_grid([(mean - 6 * sd, mean + 6 * sd)], [121])
            pd = posterior_predictive(m, s, grid)
            if len(set(pd.density(data).tolist())) != n:
                continue
            alpha = float(rng.uniform(0.02, 0.98))
            levels = [k / (n + 1) for k in range(n + 2)]
            if any(abs(alpha - lv) < 1e-9 for lv in levels):
                continue
            # quant == kappa holds with or without consonance; the contour
            # route additionally needs the consonant case.
            assert quant(alpha, pd) == kappa(alpha, s, bcp(pd), grid)
            done += 1

    def test_degenerate_constant_sample_refused(self):
        m = ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=1.0)
        s = Sample.of([0.7, 0.7, 0.7])
        grid = small_grid()
        with pytest.raises(DensityTieError):
            bayes_triangle_detail(0.13, m, s, grid)


def uniform_prior(nt: int, value: float) -> tuple[float, ...]:
    return tuple([value] * nt)


def proper_rows(theta_grid, y_grid, width=0.15) -> tuple[tuple[float, ...], ...]:
    thetas = theta_grid.points[:, 0]
    ys = y_grid.points[:, 0]
    dy = y_grid.spacing[0]
    rows = []
    for th in thetas:
        w = np.exp(-0.5 * ((ys - th) / width) ** 2)
        w = w / (w.sum() * dy)
        rows.append(tuple(float(v) for v in w))
    return tuple(rows)


class TestUpperPosterior:
    def setup_method(self):
        self.tg = midpoint_grid(0.0, 1.0, 64)
        self.yg = midpoint_grid(0.0, 1.0, 64)
        self.lik = proper_rows(self.tg, self.yg)

    def prior(self, low, up) -> CredalPrior:
        return CredalPrior(
            theta_grid=self.tg,
            y_grid=self.yg,
            lower_density=low,
            upper_density=up,
            likelihood_table=self.lik,
        )

    def test_precise_prior_collapses_to_bayes(self):
        nt = self.tg.size
        p = uniform_prior(nt, 1.0)
        cp = self.prior(p, p)
        lik = np.asarray(self.lik)
        for j in (0, 10, 33):
            bayes_post = lik[:, j] * np.asarray(p)
            bayes_post = bayes_post / (bayes_post.sum() * cp.dtheta)
            np.testing.assert_allclose(
                upper_posterior(cp, j), bayes_post, rtol=1e-12, atol=1e-12
            )

    def test_doubling_upper_envelope_scales_linearly(self):
        nt = self.tg.size
        low = uniform_prior(nt, 0.9)
        up = tuple(2 * v for v in low)
        cp = self.prior(low, up)
        lik = np.asarray(self.lik)
        j = 17
        bayes_low = lik[:, j] * np.asarray(low)
        bayes_low = bayes_low / (bayes_low.sum() * cp.dtheta)
        np.testing.assert_allclose(
            upper_posterior(cp, j), 2.0 * bayes_low, rtol=1e-12, atol=1e-12
        )

    def test_uniform_likelihood_row_cancels(self):
        nt = self.tg.size
        flat = tuple(tuple(1.0 for _ in range(self.yg.size)) for _ in range(nt))
        low = uniform_prior(nt, 0.8)
        up = tuple(np.linspace(1.0, 1.5, nt).tolist())
        cp = CredalPrior(
            theta_grid=self.tg,
            y_grid=self.yg,
            lower_density=low,
            upper_density=up,
            likelihood_table=flat,
        )
        low_int = math.fsum(low) * cp.dtheta
        assert cp.lower_integral == low_int
        np.testing.assert_allclose(
            upper_posterior(cp, 5), np.asarray(up) / low_int, rtol=1e-12
        )

    def test_vanishing_lower_marginal_is_error(self):
        nt = self.tg.size
        cp = self.prior(uniform_prior(nt, 0.0), uniform_prior(nt, 1.2))
        assert float(lower_marginal(cp)[0]) == 0.0
        with pytest.raises(ValueError, match="marginal"):
            upper_posterior(cp, 0)

    def test_envelope_dominates_any_compatible_precise_posterior(self):
        rng = np.random.default_rng(8)
        nt = self.tg.size
        low = np.full(nt, 0.7)
        up = np.full(nt, 1.4)
        cp = self.prior(tuple(low), tuple(up))
        lik = np.asarray(self.lik)
        for _ in range(10):
            t = rng.uniform(0, 1, nt)
            p0 = low + t * (up - low)
            p = p0 / (p0.sum() * cp.dtheta)  # proper density
            if np.any(p < low - 1e-12) or np.any(p > up + 1e-12):
                continue
            j = int(rng.integers(0, self.yg.size))
            bayes_post = lik[:, j] * p
            bayes_post = bayes_post / (bayes_post.sum() * cp.dtheta)
            assert np.all(bayes_post <= upper_posterior(cp, j) + 1e-9)

    def test_envelope_consistency_enforced(self):
        nt = self.tg.size
        with pytest.raises(ValueError, match="lower envelope exceeds"):
            self.prior(uniform_prior(nt, 1.3), uniform_prior(nt, 1.2))
        with pytest.raises(ValueError, match="envelope inconsistency"):
            self.prior(uniform_prior(nt, 0.5), uniform_prior(nt, 0.9))

    def test_shape_and_sign_messages(self):
        nt = self.tg.size
        with pytest.raises(ValueError, match="densities must match the parameter grid"):
            self.prior(uniform_prior(nt - 1, 1.0), uniform_prior(nt, 1.0))
        with pytest.raises(ValueError, match="densities must match the parameter grid"):
            self.prior(np.ones((nt, 1)), np.ones((nt, 1)))
        negative = (-0.1,) + uniform_prior(nt - 1, 1.0)
        with pytest.raises(ValueError, match="densities must be nonnegative"):
            self.prior(negative, uniform_prior(nt, 1.0))
        ragged = self.lik[:-1] + (self.lik[-1][:-1],)
        for table in (self.lik[:-1], np.ones((nt, self.yg.size + 1)), ragged):
            with pytest.raises(ValueError, match=r"likelihood table must be \(n_theta, n_y\)"):
                CredalPrior(
                    theta_grid=self.tg,
                    y_grid=self.yg,
                    lower_density=uniform_prior(nt, 1.0),
                    upper_density=uniform_prior(nt, 1.0),
                    likelihood_table=table,
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["lower_density", "upper_density", "likelihood_table"])
    def test_non_finite_entry_is_refused(self, name, bad):
        nt = self.tg.size
        fields = {
            "lower_density": np.full(nt, 0.9),
            "upper_density": np.full(nt, 1.1),
            "likelihood_table": np.array(self.lik),
        }
        fields[name][(0,) * fields[name].ndim] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CredalPrior(theta_grid=self.tg, y_grid=self.yg, **fields)

    def test_fields_are_read_only_arrays(self):
        cp = self.prior(uniform_prior(self.tg.size, 1.0), uniform_prior(self.tg.size, 1.0))
        assert cp.likelihood_table.shape == (self.tg.size, self.yg.size)
        for arr in (cp.lower_density, cp.upper_density, cp.likelihood_table):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_array_is_frozen_in_place_and_tuple_copied(self):
        nt = self.tg.size
        low = np.full(nt, 1.0)
        lik = np.asarray(self.lik)
        cp = CredalPrior(
            theta_grid=self.tg,
            y_grid=self.yg,
            lower_density=low,
            upper_density=uniform_prior(nt, 1.0),
            likelihood_table=lik,
        )
        assert cp.lower_density is low and not low.flags.writeable
        assert cp.likelihood_table is lik and not lik.flags.writeable
        assert cp.upper_density.tolist() == [1.0] * nt

    def test_compares_by_identity(self):
        p = uniform_prior(self.tg.size, 1.0)
        cp = self.prior(p, p)
        assert cp == cp
        assert cp != self.prior(p, p)


class TestEposterior:
    def test_equality_case_uniform_precise_prior(self):
        # 128 midpoint cells on [0,1]: the lower integral is exactly 1.0 in
        # floats, the condition holds with equality, and the max expectation
        # sits at 1 up to quadrature dust.
        tg = midpoint_grid(0.0, 1.0, 128)
        yg = midpoint_grid(0.0, 1.0, 128)
        ones = uniform_prior(128, 1.0)
        cp = CredalPrior(
            theta_grid=tg,
            y_grid=yg,
            lower_density=ones,
            upper_density=ones,
            likelihood_table=proper_rows(tg, yg),
        )
        condition, max_exp = check_eposterior(cp)
        assert condition
        assert abs(max_exp - 1.0) <= 1e-9

    def test_conforming_family_with_slack(self):
        tg = midpoint_grid(0.0, 1.0, 101)
        yg = midpoint_grid(0.0, 1.0, 101)
        cp = CredalPrior(
            theta_grid=tg,
            y_grid=yg,
            lower_density=uniform_prior(101, 0.8),
            upper_density=uniform_prior(101, 1.2),
            likelihood_table=proper_rows(tg, yg),
        )
        condition, max_exp = check_eposterior(cp)
        assert condition
        assert max_exp <= 1.0 + 1e-9

    def test_violating_family(self):
        # Shrink the upper envelope at one parameter below the lower
        # envelope's total mass: the condition fails and the constructed
        # expectation witnesses it by exceeding 1.
        tg = midpoint_grid(0.0, 1.0, 101)
        yg = midpoint_grid(0.0, 1.0, 101)
        low = [0.8] * 101
        up = [1.2] * 101
        low[50], up[50] = 0.3, 0.5
        cp = CredalPrior(
            theta_grid=tg,
            y_grid=yg,
            lower_density=tuple(low),
            upper_density=tuple(up),
            likelihood_table=proper_rows(tg, yg),
        )
        condition, max_exp = check_eposterior(cp)
        assert not condition
        assert max_exp > 1.0

    def test_improper_rows_rejected(self):
        tg = midpoint_grid(0.0, 1.0, 16)
        yg = midpoint_grid(0.0, 1.0, 16)
        bad = tuple(tuple(2.0 for _ in range(16)) for _ in range(16))
        cp = CredalPrior(
            theta_grid=tg,
            y_grid=yg,
            lower_density=uniform_prior(16, 0.9),
            upper_density=uniform_prior(16, 1.1),
            likelihood_table=bad,
        )
        with pytest.raises(ValueError, match="proper density"):
            check_eposterior(cp)

    def test_biconditional_on_randomized_families(self):
        rng = np.random.default_rng(13)
        tg = midpoint_grid(0.0, 1.0, 48)
        yg = midpoint_grid(0.0, 1.0, 48)
        lik = proper_rows(tg, yg)
        agreements = 0
        for _ in range(20):
            base = float(rng.uniform(0.7, 1.0))
            up_scale = float(rng.uniform(1.6, 2.2))
            low = np.full(48, base)
            up = np.full(48, base * up_scale)
            if rng.uniform() < 0.5:
                # Dip the upper envelope below the lower integral at one spot.
                j = int(rng.integers(0, 48))
                up[j] = float(rng.uniform(0.1, 0.6)) * base
                low[j] = min(low[j], up[j])
            cp = CredalPrior(
                theta_grid=tg,
                y_grid=yg,
                lower_density=tuple(low.tolist()),
                upper_density=tuple(up.tolist()),
                likelihood_table=lik,
            )
            condition, max_exp = check_eposterior(cp)
            assert condition == (max_exp <= 1.0 + 1e-9)
            agreements += 1
        assert agreements == 20

