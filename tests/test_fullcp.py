"""The ranking transducer, attainable-level machinery, and regions."""

import gc
import itertools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp.fullcp import (
    TieLevelError,
    Transducer,
    check_level,
    kappa,
    levels,
    numerators_at,
    superlevel_region,
    transducer,
)
from gridcp import scores as scores_module
from gridcp.grid import Grid, Sample, make_uniform_grid
from gridcp.imprecise import PossibilityContour
from gridcp.scores import EmbeddingNet, MeanAbsDistance, NegPredictiveDensity, PrototypeEmbedding


def example_grid() -> Grid:
    """The worked four-point grid {0, 0.5, 1, 2}."""
    return Grid(axes=((0.0, 0.5, 1.0, 2.0),), spacing=(0.5,))


def next_level(alpha: float, n: int) -> float:
    """The smallest attainable level strictly above alpha, by a scan over
    all n+2 levels: the oracle for kappa's strict/weak identity."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return min(lv for lv in levels(n) if lv > alpha)


class TestTransducer:
    def test_large_grid_memory_stays_near_the_table(self):
        # The (G, n+1) table is 31 MiB here; one (G, n, m) float array would
        # be another 62 MiB, and the unblocked kernel peaked at 185 MiB.
        grid = make_uniform_grid([(-3.0, 3.0), (-3.0, 3.0)], [201, 201])
        y_n = Sample(np.random.default_rng(0).normal(size=(100, 2)))
        tracemalloc.start()
        try:
            transducer(y_n, MeanAbsDistance(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_worked_example(self):
        # Hand enumeration: candidate 0.5 gives T=(0.75, 0.75, 0), all three
        # indicators fire; candidate 2 gives T=(1.5, 0, 1.5), two fire.
        t = transducer(Sample.of([0, 1]), MeanAbsDistance(), example_grid())
        assert t.nums.tolist() == [3, 3, 3, 2]
        assert t.n == 2
        np.testing.assert_array_equal(t.values, [1.0, 1.0, 1.0, 2.0 / 3.0])

    def test_constant_sample_all_ties(self):
        grid = make_uniform_grid([(0, 4)], [5])
        for psi in (MeanAbsDistance(), PrototypeEmbedding(EmbeddingNet.identity(1))):
            t = transducer(Sample.of([2, 2, 2]), psi, grid)
            assert t.nums[grid.nearest_index(2.0)] == 4  # pi = 1 at the shared value

    def test_single_point_sample_degenerate_everything_plausible(self):
        # n = 1: the held-out score always ties the candidate's, so pi is
        # identically 1 and every region below level 1 is the full grid.
        # The 7-point grid has non-dyadic coordinates on purpose: the tie
        # must survive floating point, not just friendly values.
        grid = make_uniform_grid([(0, 4)], [7])
        s = Sample.of([2])
        for psi in (MeanAbsDistance(), PrototypeEmbedding(EmbeddingNet.identity(1))):
            t = transducer(s, psi, grid)
            assert t.nums.tolist() == [2] * 7
        assert kappa(0.93, s, MeanAbsDistance(), grid) == grid.full_region()

    def test_values_in_attainable_set(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = Sample.of(rng.uniform(-3, 3, n).tolist())
            grid = make_uniform_grid([(-3, 3)], [int(rng.integers(2, 12))])
            t = transducer(s, MeanAbsDistance(), grid)
            assert all(1 <= k <= n + 1 for k in t.nums)
            assert float(np.min(t.values)) >= 1.0 / (n + 1)

    def test_permuting_sample_leaves_values_identical(self):
        grid = make_uniform_grid([(-2, 2)], [9])
        values = [0.3, -1.1, 0.25, 1.9, -0.3]
        ref = transducer(Sample.of(values), MeanAbsDistance(), grid).nums
        for perm in itertools.permutations(values):
            np.testing.assert_array_equal(transducer(Sample.of(perm), MeanAbsDistance(), grid).nums, ref)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transducer(Sample.of([(0, 1)]), MeanAbsDistance(), example_grid())


def _two_layer_net(d: int) -> EmbeddingNet:
    rng = np.random.default_rng(3)
    return EmbeddingNet.from_weights(
        [rng.standard_normal((8, d)), rng.standard_normal((3, 8))],
        [rng.standard_normal(8), rng.standard_normal(3)],
    )


_STACK_GRIDS = {
    1: make_uniform_grid([(-2.0, 2.0)], [11]),
    2: make_uniform_grid([(-2.0, 2.0), (-1.0, 1.0)], [5, 4]),
}


class Malformed(MeanAbsDistance):
    """A score whose kernel drops the candidate column."""

    def loo_tables(self, points, candidates, rows=None):
        return super().loo_tables(points, candidates, rows)[:, :, :-1]


class Unranked(MeanAbsDistance):
    """A score whose candidate scores are NaN, so no score ranks at or above
    the candidate's: every numerator is 0."""

    def loo_tables(self, points, candidates, rows=None):
        out = super().loo_tables(points, candidates, rows)
        out[..., -1] = np.nan
        return out


class TestNumeratorsAt:
    """One kernel call over a stack of samples gives each sample's numerator
    at its own test point, bit for bit the single-sample transducer's,
    wherever the blocks fall."""

    @pytest.mark.parametrize("cells", [1, 37, 1 << 20], ids=["cells1", "cells37", "large"])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("score", ["mean_abs_distance", "prototype_embedding"])
    def test_each_numerator_is_the_single_sample_transducers(self, monkeypatch, score, d, n, cells):
        grid = _STACK_GRIDS[d]
        psi = MeanAbsDistance() if score == "mean_abs_distance" else PrototypeEmbedding(
            _two_layer_net(d)
        )
        rng = np.random.default_rng(n)
        points = grid.points[rng.integers(0, grid.size, (5, n))]
        tests = rng.integers(0, grid.size, 5)
        if score == "prototype_embedding" and n == 1:
            # The net maps 5 rows in one call to other bits than 5 one-row
            # calls, so embedding the stack, or the 5 test points, at once
            # would fail this test.
            net = psi.net
            whole = net.apply(points.reshape(-1, d))
            assert not np.array_equal(whole, np.concatenate([net.apply(p) for p in points]))
        monkeypatch.setattr(scores_module, "_BLOCK_CELLS", cells)
        tables = psi.loo_tables(points, grid.points)
        nums = numerators_at(points, tests, psi, grid)
        assert tables.shape == (5, grid.size, n + 1) and nums.shape == (5,)
        for t, points_t in enumerate(points):
            y_n = Sample(points_t)
            assert tables[t].tobytes() == psi.loo_matrix(y_n, grid.points).tobytes()
            assert nums[t] == transducer(y_n, psi, grid).nums[tests[t]]

    def test_refuses_a_stack_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            numerators_at(np.zeros((2, 3, 2)), [0, 1], MeanAbsDistance(), _STACK_GRIDS[1])

    @pytest.mark.parametrize("test", [-1, 11], ids=["minus_one", "grid_size"])
    @pytest.mark.parametrize(
        "psi",
        [MeanAbsDistance(), PrototypeEmbedding(_two_layer_net(1)), NegPredictiveDensity(mean=0.0, sd=1.0)],
        ids=lambda psi: psi.kind,
    )
    def test_refuses_a_test_point_off_the_grid(self, psi, test):
        # numpy would read -1 as the grid's last point and refuse 11 with a
        # bare IndexError.
        with pytest.raises(ValueError, match=r"rows must lie in 0\.\.10"):
            numerators_at(_STACK_GRIDS[1].points[[[0, 3], [1, 1]]], [2, test], psi, _STACK_GRIDS[1])

    @pytest.mark.parametrize(
        "psi, match", [(Malformed(), "malformed"), (Unranked(), "must lie in 1..n")]
    )
    def test_refuses_what_transducer_refuses(self, psi, match):
        grid = _STACK_GRIDS[1]
        with pytest.raises(ValueError, match=match):
            transducer(Sample(grid.points[[0, 3]]), psi, grid)
        with pytest.raises(ValueError, match=match):
            numerators_at(grid.points[[[0, 3], [1, 1]]], [2, 5], psi, grid)


# Two grids per dimension, and the scores of that dimension (the predictive
# density scores 1-D points only), built once so calls can share them.
_MEMO_GRIDS = {
    1: (_STACK_GRIDS[1], make_uniform_grid([(-3.0, 1.0)], [7])),
    2: (_STACK_GRIDS[2], make_uniform_grid([(-1.0, 2.0), (-2.0, 2.0)], [3, 6])),
}
_MEMO_SCORES = {
    1: (MeanAbsDistance(), PrototypeEmbedding(_two_layer_net(1)),
        NegPredictiveDensity(mean=0.3, sd=1.2)),
    2: (MeanAbsDistance(), PrototypeEmbedding(_two_layer_net(2))),
}


class TestTransducerMemo:
    """`transducer` keeps its last (score, grid) on the sample, by identity,
    and returns what a fresh sample of the same points would give."""

    @given(
        st.sampled_from([1, 2]),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_calls_match_a_fresh_sample(self, d, n, seed, calls):
        scores, grids = _MEMO_SCORES[d], _MEMO_GRIDS[d]
        points = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, d))
        y_n = Sample(points)
        last = None
        for s, g in calls:
            psi, grid = scores[s % len(scores)], grids[g]
            got = transducer(y_n, psi, grid)
            fresh = transducer(Sample(points), psi, grid)
            assert got.nums.tobytes() == fresh.nums.tobytes()
            assert got.n == n and got.universe is grid
            if last is not None:
                assert (got is last[2]) == (psi is last[0] and grid is last[1])
            last = (psi, grid, got)

    def test_key_is_identity(self, kernel_calls):
        grid = _MEMO_GRIDS[1][0]
        points = np.array([[0.3], [-1.1], [0.8]])
        y_n, psi = Sample(points), MeanAbsDistance()
        first = transducer(y_n, psi, grid)
        assert transducer(y_n, psi, grid) is first and len(kernel_calls) == 1
        equal_sample = transducer(Sample(points), psi, grid)
        equal_score = transducer(y_n, MeanAbsDistance(), grid)
        assert len(kernel_calls) == 3
        assert equal_sample is not first and equal_score is not first
        assert equal_sample.nums.tobytes() == equal_score.nums.tobytes() == first.nums.tobytes()

    def test_a_call_that_raises_leaves_no_entry(self, kernel_calls):
        y_n = Sample.of([(0.0, 1.0), (1.0, 0.5)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            transducer(y_n, MeanAbsDistance(), example_grid())
        assert y_n._memo is None and kernel_calls == []

    def test_a_malformed_table_leaves_no_entry(self):
        y_n = Sample.of([0.0, 1.0])
        with pytest.raises(ValueError, match="malformed"):
            transducer(y_n, Malformed(), example_grid())
        assert y_n._memo is None

    def test_threads_sharing_a_sample_get_their_own_transducers(self):
        # The entry is swapped as one (score, transducer) tuple, so a thread
        # never reads one call's score with another call's transducer.
        y_n = Sample.of([0.3, -1.1, 0.8, 1.4])
        keys = [(psi, grid) for psi in _MEMO_SCORES[1] for grid in _MEMO_GRIDS[1]]
        want = [transducer(Sample(y_n.points), psi, grid).nums.tobytes() for psi, grid in keys]
        wrong = []

        def work(offset: int) -> None:
            for i in range(300):
                k = (offset + i) % len(keys)
                t = transducer(y_n, *keys[k])
                if t.universe is not keys[k][1] or t.nums.tobytes() != want[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and wrong == []

    def test_the_entry_dies_with_its_sample(self):
        y_n = Sample.of([0.0, 1.0, 0.4])
        ref = weakref.ref(transducer(y_n, MeanAbsDistance(), example_grid()))
        gc.collect()
        assert ref() is not None  # the sample holds it
        del y_n
        gc.collect()
        assert ref() is None


class TestTieGrid:
    """The attainable-level set {k/(n+1)} and the rule that refuses it."""

    def test_levels(self):
        assert levels(3) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_next_level_examples(self):
        assert next_level(0.1, 3) == 0.25
        for n in (1, 4, 9):
            assert next_level(0.0, n) == 1.0 / (n + 1)
        # strictness: 0.25 itself is excluded
        assert next_level(0.25, 3) == 0.5

    def test_next_level_rejects_one(self):
        with pytest.raises(ValueError):
            next_level(1.0, 3)

    def test_check_level(self):
        check_level(0.1, 3)
        for alpha, n in ((0.5, 3), (1.0, 7), (0.0, 2)):
            with pytest.raises(TieLevelError, match=f"k/{n + 1}"):
                check_level(alpha, n)
        for alpha in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="outside"):
                check_level(alpha, 3)
        for n in (0, -1, -3, 2**53, 10**400):
            with pytest.raises(ValueError, match="n must be"):
                check_level(0.1, n)
        for n in (0, -1, 2**53):
            with pytest.raises(ValueError, match="n must be"):
                levels(n)

    def test_membership_agrees_with_the_level_tuple(self):
        # check_level looks only at the levels next to alpha*(n+1); it must
        # agree with a scan over all n+2 levels.
        rng = np.random.default_rng(11)
        odd = [math.nan, math.inf, -math.inf, -0.0, -1e-300, 1.0 + 1e-16, 2.0, 5e-324, 1e308, -1e308]
        for n in range(1, 61):
            lvls = levels(n)
            for alpha in [*lvls, *rng.uniform(0.0, 1.0, 50).tolist(), *odd]:
                if not 0.0 <= alpha <= 1.0:
                    with pytest.raises(ValueError, match="outside"):
                        check_level(alpha, n)
                elif alpha in lvls:
                    with pytest.raises(TieLevelError):
                        check_level(alpha, n)
                else:
                    check_level(alpha, n)


class TestKappa:
    def test_worked_example_alpha_06(self):
        # pi = (1, 1, 1, 2/3) and 2/3 > 0.6, so every candidate survives.
        r = kappa(0.6, Sample.of([0, 1]), MeanAbsDistance(), example_grid())
        assert r.indices == (0, 1, 2, 3)

    def test_alpha_07_drops_last(self):
        r = kappa(0.7, Sample.of([0, 1]), MeanAbsDistance(), example_grid())
        assert r.indices == (0, 1, 2)

    def test_tiny_alpha_full_grid(self):
        # pi is bounded below by 1/(n+1), so any alpha below that keeps all.
        grid = make_uniform_grid([(-4, 4)], [9])
        r = kappa(0.01, Sample.of([0, 1]), MeanAbsDistance(), grid)
        assert r == grid.full_region()

    def test_alpha_099_keeps_only_top_level(self):
        grid = make_uniform_grid([(-4, 4)], [9])
        s = Sample.of([-1.0, 1.2])
        t = transducer(s, MeanAbsDistance(), grid)
        r = kappa(0.99, s, MeanAbsDistance(), grid)
        assert set(r.indices) == {i for i, k in enumerate(t.nums) if k == 3}

    def test_tie_level_refused_with_diagnostic(self):
        with pytest.raises(TieLevelError, match="k/3"):
            kappa(1.0 / 3.0, Sample.of([0, 1]), MeanAbsDistance(), example_grid())

    def test_antitone_in_alpha(self):
        grid = make_uniform_grid([(-3, 3)], [13])
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            s = Sample.of(rng.uniform(-2, 2, n).tolist())
            a1, a2 = sorted(rng.uniform(0.02, 0.98, 2).tolist())
            if any(a1 == lv or a2 == lv for lv in levels(n)) or a1 == a2:
                continue
            r1 = kappa(a1, s, MeanAbsDistance(), grid)
            r2 = kappa(a2, s, MeanAbsDistance(), grid)
            assert r2.is_subset(r1)

    def test_region_depends_on_alpha_only_through_next_level(self):
        grid = make_uniform_grid([(-3, 3)], [11])
        s = Sample.of([0.5, -0.25, 1.0])
        for a1, a2 in [(0.05, 0.2), (0.3, 0.4), (0.8, 0.95)]:
            assert next_level(a1, s.n) == next_level(a2, s.n)
            assert kappa(a1, s, MeanAbsDistance(), grid) == kappa(
                a2, s, MeanAbsDistance(), grid
            )

    def test_strict_form_equals_weak_form_at_next_level(self):
        grid = make_uniform_grid([(-3, 3)], [11])
        s = Sample.of([0.5, -0.25, 1.0, 0.1])
        t = transducer(s, MeanAbsDistance(), grid)
        for alpha in (0.03, 0.17, 0.33, 0.61, 0.87):
            beta = next_level(alpha, s.n)
            weak_bits = 0
            for i, v in enumerate(t.values):
                if v >= beta:
                    weak_bits |= 1 << i
            assert superlevel_region(t, alpha).bits == weak_bits


class TestNormalizeConsonant:
    """PossibilityContour.from_transducer divides by the grid maximum."""

    def test_idempotent_on_consonant(self):
        t = transducer(Sample.of([0, 1]), MeanAbsDistance(), example_grid())
        assert t.is_consonant()
        assert PossibilityContour.from_transducer(t).values.tobytes() == t.values.tobytes()

    def test_divides_by_maximum(self):
        t = Transducer(universe=make_uniform_grid([(0, 1)], [2]), nums=(2, 1), n=2)
        assert not t.is_consonant()
        np.testing.assert_array_equal(PossibilityContour.from_transducer(t).values, [1.0, 0.5])

    def test_constant_transducer_normalizes_to_one(self):
        t = Transducer(universe=make_uniform_grid([(0, 1)], [3]), nums=(2, 2, 2), n=4)
        np.testing.assert_array_equal(PossibilityContour.from_transducer(t).values, [1.0, 1.0, 1.0])

    def test_preserves_argmax_and_idempotent(self):
        rng = np.random.default_rng(9)
        grid = make_uniform_grid([(0, 1)], [6])
        for _ in range(25):
            n = int(rng.integers(2, 9))
            nums = tuple(int(v) for v in rng.integers(1, n + 2, 6))
            t = Transducer(universe=grid, nums=nums, n=n)
            c = PossibilityContour.from_transducer(t)
            assert c.values.max() == 1.0
            assert np.array_equal(c.values == 1.0, t.nums == t.nums.max())
            again = PossibilityContour(grid, c.values / c.values.max())
            assert again.values.tobytes() == c.values.tobytes()


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=5),
    st.integers(min_value=3, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_transducer_values_never_zero(values, grid_size):
    grid = make_uniform_grid([(-5, 5)], [grid_size])
    t = transducer(Sample.of(values), MeanAbsDistance(), grid)
    assert all(k >= 1 for k in t.nums)
    for v in t.values.tolist():
        assert any(v == lv for lv in levels(t.n)[1:])
