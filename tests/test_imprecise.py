"""Contours, credal dominance, and the two region routes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcp import imprecise
from gridcp.fullcp import TieLevelError, Transducer, check_level
from gridcp.grid import Grid, Region, Sample, UniverseMismatchError, make_uniform_grid
from gridcp.imprecise import (
    PossibilityContour,
    ProbVector,
    check_functor_monotone,
    cred,
    ihdr_bruteforce,
    ihdr_contour,
    is_member,
    lower_prob,
    upper_prob,
)
from gridcp.scores import MeanAbsDistance


def contour_on(values) -> PossibilityContour:
    grid = make_uniform_grid([(0, 1)], [len(values)])
    return PossibilityContour(grid, tuple(float(v) for v in values))


def consonant_values(draw_values):
    """hypothesis helper: force one entry to exactly 1."""
    vals = list(draw_values)
    vals[len(vals) // 2] = 1.0
    return vals


@st.composite
def contours(draw, max_size=10):
    size = draw(st.integers(min_value=1, max_value=max_size))
    vals = draw(
        st.lists(st.floats(0, 1), min_size=size, max_size=size).map(consonant_values)
    )
    return contour_on(vals)


class TestContourConstruction:
    def test_rejects_non_consonant(self):
        grid = make_uniform_grid([(0, 1)], [2])
        with pytest.raises(ValueError, match="consonant"):
            PossibilityContour(grid, (0.5, 0.9))

    def test_rejects_out_of_range(self):
        grid = make_uniform_grid([(0, 1)], [2])
        with pytest.raises(ValueError):
            PossibilityContour(grid, (1.0, 1.2))


class TestCred:
    def grid(self) -> Grid:
        return Grid(axes=((0.0, 0.5, 1.0, 2.0),), spacing=(0.5,))

    def test_worked_example_already_consonant(self):
        cs = cred(Sample.of([0, 1]), MeanAbsDistance(), self.grid())
        assert cs.values.tolist() == [1.0, 1.0, 1.0, 2.0 / 3.0]

    def test_returns_the_contour_every_route_takes(self):
        contour = cred(Sample.of([0, 1]), MeanAbsDistance(), self.grid())
        assert isinstance(contour, PossibilityContour)
        assert upper_prob(contour, contour.universe.region([3])) == 2.0 / 3.0
        assert ihdr_contour(0.7, contour).indices == (0, 1, 2)
        assert ihdr_bruteforce(0.7, contour) == ihdr_contour(0.7, contour)

    def test_constant_sample_vacuous_contour(self):
        grid = make_uniform_grid([(0, 4)], [5])
        cs = cred(Sample.of([2, 2, 2]), MeanAbsDistance(), grid)
        assert max(cs.values) == 1.0

    def test_max_is_always_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = Sample.of(rng.uniform(-2, 2, int(rng.integers(1, 6))).tolist())
            grid = make_uniform_grid([(-3, 3)], [int(rng.integers(2, 10))])
            cs = cred(s, MeanAbsDistance(), grid)
            assert max(cs.values) == 1.0


class TestUpperLowerProb:
    def setup_method(self):
        self.cs = contour_on([1.0, 2.0 / 3.0, 1.0 / 3.0])
        self.grid = self.cs.universe

    def test_upper_full_is_one(self):
        assert upper_prob(self.cs, self.grid.full_region()) == 1.0

    def test_upper_empty_is_zero(self):
        assert upper_prob(self.cs, Region(self.grid, 0)) == 0.0

    def test_upper_hand_example(self):
        assert upper_prob(self.cs, self.grid.region([1, 2])) == 2.0 / 3.0

    def test_lower_full_and_empty(self):
        assert lower_prob(self.cs, self.grid.full_region()) == 1.0
        assert lower_prob(self.cs, Region(self.grid, 0)) == 0.0

    def test_lower_hand_example(self):
        assert lower_prob(self.cs, self.grid.region([0])) == 1.0 - 2.0 / 3.0

    def test_universe_mismatch(self):
        other = make_uniform_grid([(0, 1)], [4])
        with pytest.raises(UniverseMismatchError):
            upper_prob(self.cs, other.full_region())


@given(contours(max_size=8), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=80)
def test_conjugacy_and_maxitivity_exact(cs, bits_a, bits_b):
    m = cs.universe.size
    mask = (1 << m) - 1
    a = Region(cs.universe, bits_a & mask)
    b = Region(cs.universe, bits_b & mask)
    # Conjugacy: L(A) + U(A^c) = 1, exactly (IEEE round-to-nearest makes the
    # 1 - x + x pattern land back on 1.0 for x in [0, 1]).
    assert lower_prob(cs, a) + upper_prob(cs, a.complement()) == 1.0
    # Maxitivity: U(A u B) = max(U(A), U(B)).
    assert upper_prob(cs, Region(cs.universe, a.bits | b.bits)) == max(
        upper_prob(cs, a), upper_prob(cs, b)
    )


def possibility_to_probability(values) -> tuple[float, ...]:
    """Independent oracle: the classical descending-ladder transform.

    Points are ranked by descending plausibility; the mass of the j-th point
    is sum_{k>=j} (v_(k) - v_(k+1)) / k. The result is always dominated by
    the possibility measure, so is_member must accept it.
    """
    m = len(values)
    order = sorted(range(m), key=lambda i: -values[i])
    sorted_vals = [values[i] for i in order] + [0.0]
    mass = [0.0] * m
    for j in range(m):
        mass[order[j]] = math.fsum(
            (sorted_vals[k] - sorted_vals[k + 1]) / (k + 1) for k in range(j, m)
        )
    total = math.fsum(mass)
    return tuple(v / total for v in mass)


class TestIsMember:
    def test_point_mass_at_argmax(self):
        cs = contour_on([1.0, 0.4, 0.1])
        p = ProbVector(cs.universe, (1.0, 0.0, 0.0))
        assert is_member(p, cs)

    def test_single_violating_subset(self):
        cs = contour_on([1.0, 0.2])
        p = ProbVector(cs.universe, (0.5, 0.5))
        assert not is_member(p, cs)  # A = {2nd}: 0.5 > 0.2

    def test_vacuous_contour_accepts_anything(self):
        cs = contour_on([1.0, 1.0, 1.0])
        p = ProbVector(cs.universe, (0.2, 0.5, 0.3))
        assert is_member(p, cs)

    def test_rejects_oversized_universe(self):
        grid = make_uniform_grid([(0, 1)], [21])
        vals = [0.5] * 21
        vals[0] = 1.0
        cs = PossibilityContour(grid, tuple(vals))
        p = ProbVector(grid, tuple([1.0 / 21] * 21))
        with pytest.raises(ValueError, match="too large"):
            is_member(p, cs)

    def test_mass_is_a_read_only_array(self):
        grid = make_uniform_grid([(0, 1)], [3])
        p = ProbVector(grid, (0.2, 0.5, 0.3))
        assert p.mass.dtype == np.float64 and p.mass.tolist() == [0.2, 0.5, 0.3]
        with pytest.raises(ValueError):
            p.mass[0] = 1.0

    def test_array_is_frozen_in_place(self):
        grid = make_uniform_grid([(0, 1)], [2])
        arr = np.array([0.25, 0.75])
        assert ProbVector(grid, arr).mass is arr
        assert not arr.flags.writeable

    def test_compares_by_identity(self):
        grid = make_uniform_grid([(0, 1)], [2])
        p = ProbVector(grid, (0.5, 0.5))
        assert p == p
        assert p != ProbVector(grid, (0.5, 0.5))

    def test_shape_sign_and_sum_messages(self):
        grid = make_uniform_grid([(0, 1)], [2])
        for bad in ((1.0,), np.ones((2, 1)) / 2):
            with pytest.raises(ValueError, match="one mass per grid point required"):
                ProbVector(grid, bad)
        with pytest.raises(ValueError, match="mass must be nonnegative"):
            ProbVector(grid, (1.5, -0.5))
        with pytest.raises(ValueError, match="mass sums to 0.9, not 1"):
            ProbVector(grid, (0.4, 0.5))

    def test_refuses_non_finite_mass(self):
        # NaN compares false in the sign and sum checks.
        grid = make_uniform_grid([(0, 1)], [3])
        for bad in ((math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0), (math.inf, -math.inf, 1.0)):
            with pytest.raises(ValueError, match="mass must be finite"):
                ProbVector(grid, bad)

    @given(contours(max_size=8))
    @settings(max_examples=50)
    def test_accepts_descending_ladder_transform(self, cs):
        mass = possibility_to_probability(cs.values)
        assert is_member(ProbVector(cs.universe, mass), cs)

    @given(contours(max_size=7))
    @settings(max_examples=50)
    def test_matches_level_set_criterion(self, cs):
        # Independent characterization: dominance over all subsets is
        # equivalent to sum_{v(y) <= t} p(y) <= t at every contour value t.
        rng = np.random.default_rng(0)
        m = cs.universe.size
        raw = rng.dirichlet(np.ones(m))
        p = ProbVector(cs.universe, tuple(float(v / raw.sum()) for v in raw))
        vals = cs.values
        level_ok = all(
            math.fsum(p.mass[i] for i in range(m) if vals[i] <= t) <= t + 1e-12
            for t in set(vals)
        )
        assert is_member(p, cs) == level_ok


class TestSubsetTable:
    """The in-place doubling table against a per-mask reduction, and the one
    read-only table a contour keeps for both subset-enumeration routes."""

    @pytest.mark.parametrize("ufunc", [np.maximum, np.add])
    @pytest.mark.parametrize("size", range(11))
    def test_matches_the_per_mask_reduction(self, size, ufunc):
        values = np.random.default_rng(size).uniform(size=size)
        expected = []
        for mask in range(1 << size):
            acc = 0.0  # the empty set's entry; points join in index order
            for b, v in enumerate(values.tolist()):
                if mask >> b & 1:
                    acc = float(ufunc(acc, v))
            expected.append(acc)
        assert imprecise._subset_table(values, ufunc).tolist() == expected

    def test_cached_table_is_read_only(self):
        cs = contour_on([0.2, 1.0, 0.5])
        assert cs._upper_table.tolist() == [0.0, 0.2, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            cs._upper_table[0] = 1.0

    def test_built_once_per_contour(self, monkeypatch):
        built = []
        real = imprecise._subset_table
        monkeypatch.setattr(
            imprecise, "_subset_table", lambda v, ufunc: built.append(ufunc) or real(v, ufunc)
        )
        cs = contour_on([0.2, 1.0, 0.5, 0.7])
        ihdr_bruteforce(0.3, cs)
        ihdr_bruteforce(0.6, cs)
        assert is_member(ProbVector(cs.universe, (0.0, 1.0, 0.0, 0.0)), cs)
        assert built == [np.maximum, np.add]  # the mass table is the vector's, per call


class TestIhdrRoutes:
    def test_bruteforce_worked_example(self):
        # Full 2^3 enumeration by hand: only {1st,2nd} and the full set have
        # lower probability >= 0.5, so the intersection is {1st,2nd}.
        cs = contour_on([1.0, 2.0 / 3.0, 1.0 / 3.0])
        assert ihdr_bruteforce(0.5, cs).indices == (0, 1)

    def test_alpha_one_gives_empty(self):
        cs = contour_on([1.0, 2.0 / 3.0, 1.0 / 3.0])
        assert ihdr_bruteforce(1.0, cs) == Region(cs.universe, 0)

    def test_vacuous_contour_full_grid(self):
        cs = contour_on([1.0, 1.0, 1.0])
        assert ihdr_bruteforce(0.5, cs) == cs.universe.full_region()

    def test_contour_route_matches_example(self):
        cs = contour_on([1.0, 2.0 / 3.0, 1.0 / 3.0])
        assert ihdr_contour(0.5, cs).indices == (0, 1)

    def test_contour_alpha_zero(self):
        assert ihdr_contour(0.0, contour_on([1.0, 0.7, 0.2])).indices == (0, 1, 2)
        # Zero is a value of this contour: strict and weak sets differ there.
        with pytest.raises(TieLevelError):
            ihdr_contour(0.0, contour_on([1.0, 0.7, 0.0]))

    def test_contour_alpha_near_one_argmax_set(self):
        cs = contour_on([1.0, 0.7, 1.0])
        assert ihdr_contour(0.999, cs).indices == (0, 2)

    @pytest.mark.parametrize("alpha", [-0.5, 1.5, math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("route", [ihdr_bruteforce, ihdr_contour])
    def test_both_routes_refuse_alpha_outside_unit_interval(self, route, alpha):
        cs = contour_on([1.0, 2.0 / 3.0, 1.0 / 3.0])
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            route(alpha, cs)

    def test_bruteforce_rejects_large_grid(self):
        vals = [0.5] * 17
        vals[3] = 1.0
        cs = contour_on(vals)
        with pytest.raises(ValueError, match="too large"):
            ihdr_bruteforce(0.3, cs)

    @given(contours(max_size=12), st.floats(0.001, 0.999))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence(self, cs, alpha):
        # The computational content of the functor-image fact: for levels off
        # the contour's value set, definition and closed form agree exactly.
        if any(abs(alpha - v) < 1e-9 for v in cs.values):
            return
        assert ihdr_bruteforce(alpha, cs) == ihdr_contour(alpha, cs)

    @pytest.mark.parametrize("toward", [0.0, 1.0], ids=["ulp_below", "ulp_above"])
    def test_routes_agree_one_ulp_from_a_value_under_one_half(self, toward):
        # 1 - nextafter(1/3, 0) rounds to 1 - 1/3, so comparing lower
        # probabilities as 1 - U(A^c) >= 1 - alpha kept the 1/3 point out.
        cs = contour_on([1.0, 2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0])
        alpha = math.nextafter(1.0 / 3.0, toward)
        expected = (0, 1, 2, 3) if toward == 0.0 else (0, 1, 3)
        assert ihdr_contour(alpha, cs).indices == expected
        assert ihdr_bruteforce(alpha, cs).indices == expected

    def test_conformal_contour_equivalence(self):
        grid = make_uniform_grid([(-2, 2)], [9])
        rng = np.random.default_rng(12)
        for _ in range(25):
            s = Sample.of(rng.uniform(-2, 2, int(rng.integers(2, 7))).tolist())
            cs = cred(s, MeanAbsDistance(), grid)
            alpha = float(rng.uniform(0.02, 0.98))
            if any(abs(alpha - v) < 1e-9 for v in cs.values):
                continue
            assert ihdr_bruteforce(alpha, cs) == ihdr_contour(alpha, cs)


class TestContourValueSet:
    """The closed form refuses a level on the contour's own value set and
    takes one an ulp to either side of it."""

    def cases(self) -> dict[str, PossibilityContour]:
        grid = make_uniform_grid([(0.0, 2.0)], [4])
        consonant = cred(Sample.of([0, 1]), MeanAbsDistance(), grid)
        # Numerators over n + 1 = 5 with maximum 3: the values are k/3, not k/5.
        flat = Transducer(universe=grid, nums=(3, 2, 1, 2), n=4)
        assert consonant.values.max() == 1.0 and not flat.is_consonant()
        return {"consonant": consonant, "non_consonant": PossibilityContour.from_transducer(flat)}

    @pytest.mark.parametrize("kind", ["consonant", "non_consonant"])
    def test_refused_on_its_values_and_accepted_one_ulp_away(self, kind):
        cs = self.cases()[kind]
        for v in set(cs.values.tolist()):
            with pytest.raises(TieLevelError, match="value set"):
                ihdr_contour(v, cs)
            for alpha in (math.nextafter(v, 0.0), math.nextafter(v, 1.0)):
                if alpha != v:  # no level above 1
                    region = ihdr_contour(alpha, cs)
                    assert all((i in region) == (alpha < v) for i in np.flatnonzero(cs.values == v))

    def test_non_consonant_values_are_not_the_ranking_levels(self):
        cs = self.cases()["non_consonant"]
        assert cs.values.tolist() == [1.0, 2 / 3, 1 / 3, 2 / 3]
        check_level(2 / 3, 4)  # off the ranking route's set {k/5}
        with pytest.raises(TieLevelError):
            ihdr_contour(2 / 3, cs)


class TestFunctorMonotone:
    def test_identity_morphism(self):
        cs = contour_on([1.0, 0.4, 0.2])
        assert check_functor_monotone(cs, cs, 0.5)

    def test_hand_example(self):
        small = contour_on([1.0, 0.4, 0.2])
        big = contour_on([1.0, 0.8, 0.2])
        assert ihdr_contour(0.5, small).indices == (0,)
        assert ihdr_contour(0.5, big).indices == (0, 1)
        assert check_functor_monotone(small, big, 0.5)

    def test_precondition_violation_is_error_not_false(self):
        small = contour_on([1.0, 0.9, 0.2])
        big = contour_on([1.0, 0.8, 0.2])
        with pytest.raises(ValueError, match="precondition"):
            check_functor_monotone(small, big, 0.5)

    @given(contours(max_size=9), st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_randomized_dominated_pairs(self, cs_big, alpha):
        rng = np.random.default_rng(7)
        vals_big = cs_big.values.tolist()
        peak = vals_big.index(1.0)
        shrink = rng.uniform(0, 1, len(vals_big))
        vals_small = [v * s for v, s in zip(vals_big, shrink)]
        vals_small[peak] = 1.0
        if any(a > b for a, b in zip(vals_small, vals_big)):
            return
        cs_small = PossibilityContour(cs_big.universe, tuple(vals_small))
        if any(abs(alpha - v) < 1e-9 for v in list(vals_big) + vals_small):
            return
        assert check_functor_monotone(cs_small, cs_big, alpha)

    @staticmethod
    def dominated_pair(size: int, seed: int):
        """A contour on `size` points and one it dominates, sharing the peak."""
        rng = np.random.default_rng(seed)
        v_big = rng.uniform(0, 1, size)
        peak = int(rng.integers(0, size))
        v_big[peak] = 1.0
        v_small = v_big * rng.uniform(0, 1, size)
        v_small[peak] = 1.0
        grid = make_uniform_grid([(0, 1)], [size])
        return PossibilityContour(grid, v_small), PossibilityContour(grid, v_big)

    @pytest.mark.parametrize("size", [13, 14, 15, 16])
    def test_large_grid_goes_through_the_enumeration(self, size, monkeypatch):
        """Up to 16 points both regions come from `ihdr_bruteforce`."""
        small, big = self.dominated_pair(size, seed=size)
        routes = []

        def spy(route):
            def traced(a, c):
                routes.append(route.__name__)
                return route(a, c)

            return traced

        monkeypatch.setattr(imprecise, "ihdr_contour", spy(ihdr_contour))
        monkeypatch.setattr(imprecise, "ihdr_bruteforce", spy(ihdr_bruteforce))
        assert check_functor_monotone(small, big, 0.5)
        assert routes == ["ihdr_bruteforce", "ihdr_bruteforce"]
        for c in (small, big):  # the closed form still agrees off the value set
            assert 0.5 not in c.values.tolist()
            assert ihdr_contour(0.5, c) == ihdr_bruteforce(0.5, c)

    @pytest.mark.parametrize("size", [13, 14, 15, 16])
    def test_emptied_big_region_is_caught(self, size, monkeypatch):
        """The verdict reads the enumerated regions: emptying the big one
        leaves the small region (which holds the peak) outside it."""
        small, big = self.dominated_pair(size, seed=size)

        def emptied(a, c):
            return Region(c.universe, 0) if c is big else ihdr_bruteforce(a, c)

        monkeypatch.setattr(imprecise, "ihdr_bruteforce", emptied)
        assert not check_functor_monotone(small, big, 0.5)

    def test_grid_above_the_enumeration_limit_is_refused(self):
        small, big = self.dominated_pair(17, seed=17)
        with pytest.raises(ValueError, match="too large for subset enumeration"):
            check_functor_monotone(small, big, 0.5)

    def test_three_chain_composition(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            size = int(rng.integers(3, 10))
            v3 = rng.uniform(0, 1, size)
            peak = int(rng.integers(0, size))
            v3[peak] = 1.0
            v2 = v3 * rng.uniform(0, 1, size)
            v2[peak] = 1.0
            v1 = v2 * rng.uniform(0, 1, size)
            v1[peak] = 1.0
            grid = make_uniform_grid([(0, 1)], [size])
            cs1, cs2, cs3 = (
                PossibilityContour(grid, tuple(float(x) for x in v))
                for v in (v1, v2, v3)
            )
            alpha = float(rng.uniform(0.02, 0.98))
            if any(
                abs(alpha - x) < 1e-9 for x in v1.tolist() + v2.tolist() + v3.tolist()
            ):
                continue
            r1, r2, r3 = (ihdr_contour(alpha, c) for c in (cs1, cs2, cs3))
            assert r1.is_subset(r2) and r2.is_subset(r3)
            assert r1.is_subset(r3)  # the composite inclusion


@given(contours(max_size=8), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=60)
def test_ihdr_antitone_in_alpha(cs, a, b):
    assume(a not in cs.values and b not in cs.values)  # on the value set: refused
    lo, hi = min(a, b), max(a, b)
    assert ihdr_contour(hi, cs).is_subset(ihdr_contour(lo, cs))
