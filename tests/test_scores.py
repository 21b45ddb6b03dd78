"""Score families: frozen values, exact permutation equivariance, embedding nets."""

import contextlib
import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridcp import scores as scores_module
from gridcp.fullcp import numerators_at, transducer
from gridcp.grid import Sample, make_uniform_grid
from gridcp.scores import (
    EmbeddingNet,
    MeanAbsDistance,
    NegPredictiveDensity,
    PrototypeEmbedding,
    ScoreFn,
    _partial_sums,
)
from test_scores_oracle import loo_by_definition

finite_floats = st.floats(-50, 50)


def score(psi: ScoreFn, sample, y) -> float:
    """psi of the point y against the sample: the candidate column of the
    leave-one-out table."""
    return float(psi.loo_matrix(Sample.of(sample), np.reshape(y, (1, -1)))[0, -1])


def is_equivariant(psi: ScoreFn, points: np.ndarray, candidates, perm) -> bool:
    """Whether sampling points[perm] permutes the table's training columns by
    perm and leaves its candidate column bit-identical."""
    n = len(points)
    table = psi.loo_matrix(Sample(points), candidates)
    permuted = psi.loo_matrix(Sample(points[list(perm)]), candidates)
    return (
        permuted[:, :n].tobytes() == table[:, list(perm)].tobytes()
        and permuted[:, n].tobytes() == table[:, n].tobytes()
    )


class FirstElementScore(ScoreFn):
    """Deliberately order-sensitive: negative control for equivariance checks."""

    kind = "first_element"

    def loo_matrix(self, y_n: Sample, candidates) -> np.ndarray:
        cand = np.asarray(candidates, dtype=float).reshape(-1, y_n.dim)
        return np.repeat(np.abs(cand[:, :1] - y_n.points[0, 0]), y_n.n + 1, axis=1)


class TestMeanAbs:
    def test_candidate_at_mean(self):
        assert score(MeanAbsDistance(), [0, 1], 0.5) == 0.0

    def test_hand_arithmetic(self):
        assert score(MeanAbsDistance(), [0, 2], 0.0) == 1.0

    def test_identity(self):
        assert score(MeanAbsDistance(), [3], 3.0) == 0.0

    def test_euclidean_for_d2(self):
        s = [(0, 0), (2, 2)]
        assert score(MeanAbsDistance(), s, (1, 1)) == 0.0
        assert score(MeanAbsDistance(), s, (1, 0)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score(MeanAbsDistance(), [(0, 0)], 1.0)


class TestPrototype:
    def test_candidate_at_prototype(self):
        psi = PrototypeEmbedding(EmbeddingNet.identity(1))
        assert score(psi, [0, 1], 0.5) == 0.0

    def test_hand_arithmetic(self):
        psi = PrototypeEmbedding(EmbeddingNet.identity(1))
        assert score(psi, [0, 2], 0.0) == -1.0

    def test_zero_net_collapses(self):
        psi = PrototypeEmbedding(EmbeddingNet(((((0.0,),), (0.0,)),)))
        for y in (-3.0, 0.0, 7.5):
            assert score(psi, [0, 2, 4], y) == 0.0

    def test_sign_is_nonpositive(self):
        psi = PrototypeEmbedding(EmbeddingNet.identity(1))
        assert score(psi, [0, 4], 9.0) <= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score(PrototypeEmbedding(EmbeddingNet.identity(1)), [(0, 1)], (0, 1))

    def test_net_of_another_width_is_refused(self):
        psi = PrototypeEmbedding(EmbeddingNet.identity(2))
        grid = make_uniform_grid([(-1, 1)], [5])
        message = "net takes 2-D points; the sample is 1-D"
        with pytest.raises(ValueError, match=message):
            transducer(Sample.of([0.1, 0.2]), psi, grid)
        with pytest.raises(ValueError, match=message):
            numerators_at(grid.points[[[1, 3]]], [2], psi, grid)

    @given(st.lists(finite_floats, min_size=1, max_size=6), finite_floats)
    def test_identity_net_matches_neg_squared_mean_abs(self, values, y):
        candidates = np.array([[y]])
        lhs = PrototypeEmbedding(EmbeddingNet.identity(1)).loo_matrix(Sample.of(values), candidates)
        rhs = -MeanAbsDistance().loo_matrix(Sample.of(values), candidates) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


_SAMPLE_SCORES = {
    "mean_abs": lambda d: MeanAbsDistance(),
    "prototype": lambda d: PrototypeEmbedding(EmbeddingNet.identity(d)),
}


class TestCandidateShapes:
    """Both sample scores take (G, d) candidates, or (G,) when d = 1, and
    refuse any other shape rather than reshape it."""

    @pytest.mark.parametrize(
        "d, cand_shape",
        [(2, (6,)), (2, (4, 3)), (1, (3, 2)), (1, ())],
        ids=["flat", "wide", "2d_for_1d", "scalar"],
    )
    @pytest.mark.parametrize("kind", sorted(_SAMPLE_SCORES))
    def test_refuses_other_shapes(self, kind, d, cand_shape):
        psi = _SAMPLE_SCORES[kind](d)
        points = np.arange(3.0 * d).reshape(1, 3, d)
        candidates = np.arange(float(math.prod(cand_shape))).reshape(cand_shape)
        match = re.escape(f"candidates of shape {cand_shape} do not fit samples of shape (1, 3, {d})")
        with pytest.raises(ValueError, match=match):
            psi.loo_matrix(Sample(points[0]), candidates)
        with pytest.raises(ValueError, match=match):
            psi.loo_tables(points, candidates)

    @pytest.mark.parametrize("kind", sorted(_SAMPLE_SCORES))
    def test_accepts_one_column_or_flat_for_1d(self, kind):
        psi, y_n = _SAMPLE_SCORES[kind](1), Sample.of([0.2, 1.1])
        tables = [psi.loo_matrix(y_n, c) for c in ([0.5, -1.0], [[0.5], [-1.0]])]
        assert tables[0].shape == (2, 3)
        assert tables[0].tobytes() == tables[1].tobytes()


class TestNegPredictiveDensity:
    def test_matches_gaussian(self):
        psi = NegPredictiveDensity(mean=1.0, sd=2.0)
        expected = -math.exp(-0.125) / (2.0 * math.sqrt(2 * math.pi))
        assert score(psi, [99.0], 2.0) == pytest.approx(expected, rel=1e-15)

    def test_sample_argument_ignored(self):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        assert score(psi, [1], 0.3) == score(psi, [-9, 4], 0.3)

    def test_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            NegPredictiveDensity(mean=0.0, sd=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("mean", math.nan), ("mean", math.inf), ("mean", -math.inf)]
        + [("sd", v) for v in (math.nan, math.inf, -math.inf, 0.0)],
    )
    def test_rejects_non_finite_mean_and_non_positive_sd(self, field, value):
        params = {"mean": 0.0, "sd": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            NegPredictiveDensity(**params)

    @pytest.mark.parametrize("sample_dim, cand_shape", [(2, (4, 2)), (1, (4, 2))])
    def test_loo_matrix_refuses_multivariate_points(self, sample_dim, cand_shape):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        y_n = Sample(np.arange(3.0 * sample_dim).reshape(3, sample_dim))
        with pytest.raises(ValueError, match="neg_predictive_density scores 1-D points"):
            psi.loo_matrix(y_n, np.zeros(cand_shape))

    @pytest.mark.parametrize(
        "sample, y",
        [([1.0], [0.0, 5.0]), ([(1.0, 2.0)], 0.0)],
        ids=["2d_point", "2d_sample"],
    )
    def test_evaluate_refuses_multivariate_points(self, sample, y):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        with pytest.raises(ValueError, match="neg_predictive_density scores 1-D points"):
            score(psi, sample, y)

    def test_loo_matrix_takes_flat_or_one_column_candidates_only(self):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        y_n = Sample.of([1.0])
        tables = [psi.loo_matrix(y_n, c) for c in ([0.5], np.array([[0.5]]))]
        for table in tables:
            assert table.tobytes() == tables[0].tobytes()
        assert tables[0][0, -1] == -float(psi.density(0.5))
        with pytest.raises(ValueError, match=re.escape("candidates of shape ()")):
            psi.loo_matrix(y_n, 0.5)


@st.composite
def equivariance_cases(draw):
    """(score, sample, candidates, permutation) over all three scores, d = 1
    and 2, and embeddings into m = 1..3 dimensions, so m != d too."""
    kind = draw(st.sampled_from(["mean_abs", "prototype", "neg_density"]))
    d = 1 if kind == "neg_density" else draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    points = st.lists(st.floats(-10, 10), min_size=d, max_size=d)
    sample = np.array(draw(st.lists(points, min_size=n, max_size=n)))
    candidates = np.array(draw(st.lists(points, min_size=1, max_size=4)))
    if kind == "mean_abs":
        psi = MeanAbsDistance()
    elif kind == "neg_density":
        psi = NegPredictiveDensity(mean=draw(st.floats(-3, 3)), sd=draw(st.floats(0.1, 3)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        h, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        psi = PrototypeEmbedding(EmbeddingNet.from_weights(
            [rng.standard_normal((h, d)), rng.standard_normal((m, h))],
            [rng.standard_normal(h), rng.standard_normal(m)],
        ))
    return psi, sample, candidates, draw(st.permutations(range(n)))


class TestPermutationInvariance:
    """Permuting the sample permutes the leave-one-out table's columns 0..n-1
    the same way and leaves column n, the candidate's, bit-identical."""

    @settings(max_examples=300, deadline=None)
    @given(equivariance_cases())
    def test_loo_table_is_permutation_equivariant(self, case):
        assert is_equivariant(*case)

    def test_mean_abs_random_permutations(self):
        rng = np.random.default_rng(0)
        points = np.array([[0.3], [-1.2], [4.0], [2.2]])
        for _ in range(20):
            assert is_equivariant(MeanAbsDistance(), points, [[0.7]], rng.permutation(4))

    def test_prototype_random_permutations(self):
        rng = np.random.default_rng(5)
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((3, 1)), rng.standard_normal((2, 3))],
            [rng.standard_normal(3), rng.standard_normal(2)],
        )
        points = np.array([[0.3], [-1.2], [4.0], [2.2], [0.9]])
        for _ in range(20):
            assert is_equivariant(PrototypeEmbedding(net), points, [[0.7]], rng.permutation(5))

    def test_negative_control(self):
        points = np.array([[0.0], [10.0], [20.0]])
        assert not all(
            is_equivariant(FirstElementScore(), points, [[1.0]], perm)
            for perm in itertools.permutations(range(3))
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_bit_for_bit(self, n):
        # Every permutation, n <= 6, both sample scores, an embedding m != d.
        rng = np.random.default_rng(n)
        points = rng.uniform(-5, 5, (n, 1))
        candidates = rng.uniform(-5, 5, (3, 1))
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((2, 1))], [rng.standard_normal(2)]
        )
        for psi in (MeanAbsDistance(), PrototypeEmbedding(net)):
            for perm in itertools.permutations(range(n)):
                assert is_equivariant(psi, points, candidates, perm)


class TestVectorizedKernelAgreesWithEvaluate:
    """The fast leave-one-out tables must match the scalar definition."""

    @pytest.mark.parametrize(
        "psi",
        [
            MeanAbsDistance(),
            PrototypeEmbedding(EmbeddingNet.identity(1)),
            NegPredictiveDensity(mean=0.3, sd=1.7),
        ],
    )
    def test_agreement(self, psi):
        rng = np.random.default_rng(11)
        y_n = Sample.of(rng.uniform(-2, 2, 5).tolist())
        candidates = rng.uniform(-2, 2, 7).reshape(-1, 1)
        fast = psi.loo_matrix(y_n, candidates)
        slow = loo_by_definition(psi, y_n, candidates)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_in_two_dimensions(self, seed):
        # d = 2 and an embedding into R^3 (m != d) through a hidden layer.
        rng = np.random.default_rng(seed)
        y_n = Sample(rng.uniform(-2, 2, (6, 2)))
        candidates = rng.uniform(-2, 2, (9, 2))
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((4, 2)), rng.standard_normal((3, 4))],
            [rng.standard_normal(4), rng.standard_normal(3)],
        )
        for psi in (MeanAbsDistance(), PrototypeEmbedding(net)):
            fast = psi.loo_matrix(y_n, candidates)
            slow = loo_by_definition(psi, y_n, candidates)
            assert fast.shape == (9, 7)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def _one_shot_table(points, candidates, dist, embed=np.asarray):
    """The unblocked kernel: one (G, n, m) difference array for columns 0..n-1."""
    n, d = points.shape
    train = embed(points)
    cand = embed(np.asarray(candidates, dtype=float).reshape(-1, d))
    sums, totals = _partial_sums(train)
    t_train = dist((sums[None, :, :] + cand[:, None, :]) / n - train[None, :, :])
    t_cand = dist(totals / n - cand)
    return np.concatenate([t_train, t_cand[:, None]], axis=1)


_norm = lambda v: np.linalg.norm(v, axis=-1)  # noqa: E731
_neg_sq = lambda v: -np.sum(v * v, axis=-1)  # noqa: E731

# (bounds, counts): uneven counts, one-point axes, and symmetric bounds with
# odd counts, which put 0.0 on an axis.
_PRODUCT_GRIDS = {
    "21x21": ([(-2.0, 2.0), (-2.0, 2.0)], [21, 21]),
    "7x5x3": ([(-3.0, 3.0), (-1.0, 1.0), (-0.5, 0.5)], [7, 5, 3]),
    "1x6": ([(0.5, 0.5), (-1.0, 2.0)], [1, 6]),
    "4x1x3": ([(-1.5, 1.5), (0.25, 0.25), (-2.0, 2.0)], [4, 1, 3]),
}


def _spy_on_factoring(monkeypatch) -> list:
    """The width in coordinates of each factor the kernel fills, in order:
    one entry per candidate-column sum of squares, whose (samples, values)
    planes are one per coordinate of the factor."""
    widths, real = [], scores_module._sum_of_squares

    def spy(planes, *args):
        planes = list(planes)
        if planes[0].ndim == 2:
            widths.append(len(planes))
        return real(planes, *args)

    monkeypatch.setattr(scores_module, "_sum_of_squares", spy)
    return widths


def _blocking_cases():
    """(score, d, m, dist, embed) for both sample scores, d = 1 and 2, m != d."""
    rng = np.random.default_rng(5)
    ident = EmbeddingNet.identity(1)
    wide = EmbeddingNet.from_weights([rng.standard_normal((2, 1))], [rng.standard_normal(2)])
    deep = EmbeddingNet.from_weights(
        [rng.standard_normal((4, 2)), rng.standard_normal((3, 4))],
        [rng.standard_normal(4), rng.standard_normal(3)],
    )
    return {
        "mean_abs_d1": (MeanAbsDistance(), 1, 1, _norm, np.asarray),
        "mean_abs_d2": (MeanAbsDistance(), 2, 2, _norm, np.asarray),
        "prototype_d1": (PrototypeEmbedding(ident), 1, 1, _neg_sq, ident.apply),
        "prototype_d1_m2": (PrototypeEmbedding(wide), 1, 2, _neg_sq, wide.apply),
        "prototype_d2_m3": (PrototypeEmbedding(deep), 2, 3, _neg_sq, deep.apply),
    }


class TestBlockedKernelIsBitExact:
    """Blocking the kernel over candidates changes no bit of any table."""

    @pytest.mark.parametrize("cells", [1, 7, None], ids=["cells1", "cells7", "default"])
    @pytest.mark.parametrize("case", sorted(_blocking_cases()))
    def test_matches_one_shot_table(self, monkeypatch, cells, case):
        psi, d, m, dist, embed = _blocking_cases()[case]
        if cells is not None:
            monkeypatch.setattr(scores_module, "_BLOCK_CELLS", cells)
        n = 3
        rows = max(1, scores_module._BLOCK_CELLS // n)
        rng = np.random.default_rng(0)
        y_n = Sample(rng.uniform(-2, 2, (n, d)))
        # G one less than a block, exactly one block, and one more; and a
        # product grid, which the mean distance fills one axis at a time.
        draws = [rng.uniform(-2, 2, (size, d)) for size in (rows - 1, rows, rows + 1)]
        grid = make_uniform_grid([(-2.0, 2.0)] * d, [9, 7][:d])
        for candidates in draws + [grid.points]:
            table = psi.loo_matrix(y_n, candidates)
            assert table.shape == (len(candidates), n + 1)
            expected = _one_shot_table(y_n.points, candidates, dist, embed)
            assert table.tobytes() == expected.tobytes(), len(candidates)

    @pytest.mark.parametrize("cells", [1, None], ids=["cells1", "default"])
    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 20])
    @pytest.mark.parametrize("shape", sorted(_PRODUCT_GRIDS))
    def test_product_grid_matches_one_shot_table(self, monkeypatch, shape, n, T, cells):
        if cells is not None:
            monkeypatch.setattr(scores_module, "_BLOCK_CELLS", cells)
        grid = make_uniform_grid(*_PRODUCT_GRIDS[shape])
        d = grid.dim
        points = np.random.default_rng(n).uniform(-2, 2, (T, n, d))
        # The identity net embeds the grid as itself, so the prototype is
        # factored per axis too, with a negation for the square root.
        ident = EmbeddingNet.identity(d)
        for psi, dist, embed in ((MeanAbsDistance(), _norm, np.asarray),
                                 (PrototypeEmbedding(ident), _neg_sq, ident.apply)):
            tables = psi.loo_tables(points, grid.points)
            assert tables.shape == (T, grid.size, n + 1)
            for t in range(T):
                expected = _one_shot_table(points[t], grid.points, dist, embed)
                assert tables[t].tobytes() == expected.tobytes(), (psi.kind, t)

    @pytest.mark.parametrize("shape", sorted(_PRODUCT_GRIDS))
    def test_single_point_sample_ties_at_every_product_grid_point(self, shape):
        # n = 1: the held-out score is |c - y|, the candidate's |y - c|.
        grid = make_uniform_grid(*_PRODUCT_GRIDS[shape])
        for y in (grid.points[len(grid.points) // 2], np.linspace(0.3, -0.7, grid.dim)):
            nums = transducer(Sample([y]), MeanAbsDistance(), grid).nums
            assert nums.tolist() == [2] * grid.size

    @pytest.mark.parametrize("near", ["permuted", "swapped_pair", "minus_one", "duplicated_row", "empty"])
    def test_near_product_is_one_factor(self, monkeypatch, near):
        widths = _spy_on_factoring(monkeypatch)
        pts = make_uniform_grid(*_PRODUCT_GRIDS["7x5x3"]).points
        rng = np.random.default_rng(4)
        candidates = {
            "permuted": pts[rng.permutation(len(pts))],
            "swapped_pair": pts[[0, 2, 1, *range(3, len(pts))]],
            "minus_one": np.delete(pts, 40, axis=0),
            "duplicated_row": np.insert(pts, 40, pts[40], axis=0),
            "empty": pts[:0],
        }[near]
        points = rng.uniform(-2, 2, (4, 3))
        table = MeanAbsDistance().loo_matrix(Sample(points), candidates)
        assert table.tobytes() == _one_shot_table(points, candidates, _norm).tobytes()
        assert widths == [3]

    @pytest.mark.parametrize("seed", range(4))
    def test_mixing_net_embeds_no_product(self, seed):
        # Nets like those the harness draws mix the coordinates, so rows 0
        # and 1 of the embedded grid differ in every coordinate; the
        # identity net's embedding is the grid, a product of its axes.
        rng = np.random.default_rng(seed)
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((3, 2)), rng.standard_normal((2, 3))],
            [rng.standard_normal(3), rng.standard_normal(2)],
        )
        grid = make_uniform_grid([(-4.0, 4.0)] * 2, [201, 201])
        assert scores_module._product_axes(net.apply(grid.points)) is None
        axes = scores_module._product_axes(EmbeddingNet.identity(2).apply(grid.points))
        assert [axis.tolist() for axis in axes] == [list(axis) for axis in grid.axes]

    @pytest.mark.parametrize("kind", ["mean_abs", "prototype", "mean_abs_1d", "rows"])
    def test_factoring(self, monkeypatch, kind):
        # A 2-D mean distance on a product grid is one factor per axis; a
        # net's embedded grid is no product, and 1-D calls and `rows` are
        # one factor of every coordinate.
        widths = _spy_on_factoring(monkeypatch)
        case = {"prototype": "prototype_d2_m3", "mean_abs_1d": "mean_abs_d1"}.get(kind, "mean_abs_d2")
        psi, d, *_ = _blocking_cases()[case]
        grid = make_uniform_grid([(-2.0, 2.0)] * d, [21, 21][:d])
        points = np.random.default_rng(6).uniform(-2, 2, (2, 5, d))
        psi.loo_tables(points, grid.points, [[3], [8]] if kind == "rows" else None)
        assert widths == {"mean_abs": [1, 1], "prototype": [3], "mean_abs_1d": [1], "rows": [2]}[kind]


def test_wide_embedding_adds_coordinates_in_order():
    # np.add.reduce adds 8 or more terms pairwise; the kernel adds the squared
    # coordinates left to right at every embedding width.
    rng = np.random.default_rng(2)
    net = EmbeddingNet.from_weights([rng.standard_normal((9, 1))], [rng.standard_normal(9)])
    points, candidates = rng.uniform(-2, 2, (4, 1)), rng.uniform(-2, 2, (50, 1))
    in_order = lambda v: -functools.reduce(np.add, [v[..., k] * v[..., k] for k in range(9)])  # noqa: E731
    table = PrototypeEmbedding(net).loo_matrix(Sample(points), candidates)
    assert table.tobytes() == _one_shot_table(points, candidates, in_order, net.apply).tobytes()


_ROWS_GRIDS = {
    1: make_uniform_grid([(-2.0, 2.0)], [7]),
    2: make_uniform_grid([(-2.0, 2.0), (-1.0, 1.0)], [3, 4]),
}


@st.composite
def rows_cases(draw):
    """(score, stack of samples, grid, rows, _BLOCK_CELLS or None) over every
    shipped score, d = 1 and 2, and block sizes at the edges of the blocks
    of the row-picking call."""
    kind = draw(st.sampled_from(["mean_abs", "identity", "two_layer", "neg_density"]))
    d = 1 if kind == "neg_density" else draw(st.sampled_from([1, 2]))
    grid, n = _ROWS_GRIDS[d], draw(st.integers(1, 5))
    T, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = {
        "mean_abs": lambda: MeanAbsDistance(),
        "identity": lambda: PrototypeEmbedding(EmbeddingNet.identity(d)),
        "two_layer": lambda: PrototypeEmbedding(EmbeddingNet.from_weights(
            [rng.standard_normal((4, d)), rng.standard_normal((3, 4))],
            [rng.standard_normal(4), rng.standard_normal(3)],
        )),
        "neg_density": lambda: NegPredictiveDensity(mean=0.3, sd=1.2),
    }[kind]()
    points = grid.points[rng.integers(0, grid.size, (T, n))]
    # a small grid, so rows repeat within a sample and across samples
    rows = np.array(draw(st.lists(
        st.lists(st.integers(0, grid.size - 1), min_size=k, max_size=k), min_size=T, max_size=T
    )))
    cells = draw(st.sampled_from([None, 1, n, k * n - 1, k * n, k * n + 1, 2 * k * n, T * k * n]))
    return psi, points, grid, rows, cells


class TestRowsArePickedFromTheFullTable:
    """`loo_tables` with `rows` gives rows rows[t] of table t, bit for bit."""

    @given(rows_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_full_tables(self, case):
        psi, points, grid, rows, cells = case
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setattr(scores_module, "_BLOCK_CELLS", max(cells, 1))
            picked = psi.loo_tables(points, grid.points, rows)
            full = psi.loo_tables(points, grid.points)
        T, n, _ = points.shape
        assert picked.shape == (T, rows.shape[1], n + 1)
        for t in range(T):
            assert picked[t].tobytes() == full[t, rows[t]].tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_row_is_not_embedded_alone(self, d):
        # A net maps one row alone to other bits than the same row among
        # others, so the kernel must pick rows after embedding every
        # candidate, never embed the picked ones.
        grid, rng = _ROWS_GRIDS[d], np.random.default_rng(3)
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((8, d)), rng.standard_normal((3, 8))],
            [rng.standard_normal(8), rng.standard_normal(3)],
        )
        alone = [net.apply(grid.points[i : i + 1])[0] for i in range(grid.size)]
        assert not np.array_equal(np.array(alone), net.apply(grid.points))
        points, psi = grid.points[[[1]]], PrototypeEmbedding(net)
        full = psi.loo_tables(points, grid.points)
        for i in range(grid.size):
            picked = psi.loo_tables(points, grid.points, [[i]])
            assert picked.tobytes() == full[:, [i]].tobytes(), i

    @pytest.mark.parametrize(
        "rows", [[[0]], [[0], [1], [2]], [0, 1], [[0.0], [1.0]]], ids=["few", "many", "1d", "float"]
    )
    @pytest.mark.parametrize("psi", [MeanAbsDistance(), NegPredictiveDensity(mean=0.0, sd=1.0)])
    def test_refuses_rows_of_another_shape(self, psi, rows):
        with pytest.raises(ValueError, match=r"rows must be a \(2, k\) integer array"):
            psi.loo_tables(np.zeros((2, 3, 1)), _ROWS_GRIDS[1].points, np.array(rows))

    @pytest.mark.parametrize("row", [-1, 7], ids=["minus_one", "grid_size"])
    @pytest.mark.parametrize(
        "psi",
        [MeanAbsDistance(), PrototypeEmbedding(EmbeddingNet.identity(1)), NegPredictiveDensity(mean=0.0, sd=1.0)],
        ids=lambda psi: psi.kind,
    )
    def test_refuses_rows_off_the_grid(self, psi, row):
        # numpy would take -1 as the last grid point and refuse 7 with a bare
        # IndexError; the kernel names the range instead.
        with pytest.raises(ValueError, match=r"rows must lie in 0\.\.6"):
            psi.loo_tables(np.zeros((2, 3, 1)), _ROWS_GRIDS[1].points, [[0], [row]])


class TestKernelMemory:
    @pytest.mark.parametrize("kind", ["mean_abs", "prototype"])
    def test_peak_stays_near_the_table(self, kind):
        # 201x201 grid, n = 100: the table is 31 MiB; a (G, n, m) difference
        # array would be another 62 MiB. The kernel's temporaries are a few
        # 128 KiB blocks, the embedded candidates and the candidate column.
        rng = np.random.default_rng(0)
        grid = make_uniform_grid([(-3.0, 3.0), (-3.0, 3.0)], [201, 201])
        y_n = Sample(rng.normal(size=(100, 2)))
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((3, 2)), rng.standard_normal((2, 3))],
            [rng.standard_normal(3), rng.standard_normal(2)],
        )
        psi = MeanAbsDistance() if kind == "mean_abs" else PrototypeEmbedding(net)
        psi.loo_matrix(y_n, grid.points)  # warm-up: numpy's lazy set-up is not the kernel's
        tracemalloc.start()
        try:
            table = psi.loo_matrix(y_n, grid.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 2 * 2**20, (peak - table.nbytes) / 2**20

    @pytest.mark.parametrize("kind", ["mean_abs", "prototype"])
    def test_rows_peak_stays_near_the_stack(self, kind):
        # 400 samples of n = 50, 20 rows each: T k n = 400,000 cells, about 24
        # blocks, so one (T, k, n) plane would be 3.1 MiB beside the 3.1 MiB
        # stack of rows. The kernel takes whole samples' rows a block at a
        # time, so its temporaries are a few blocks, the samples' embeddings
        # and partial sums, and the picked candidates.
        rng = np.random.default_rng(1)
        grid = make_uniform_grid([(-3.0, 3.0)], [201])
        points = grid.points[rng.integers(0, grid.size, (400, 50))]
        rows = rng.integers(0, grid.size, (400, 20))
        net = EmbeddingNet.from_weights([rng.standard_normal((3, 1)), rng.standard_normal((2, 3))],
                                        [rng.standard_normal(3), rng.standard_normal(2)])
        psi = MeanAbsDistance() if kind == "mean_abs" else PrototypeEmbedding(net)
        psi.loo_tables(points, grid.points, rows)  # warm-up
        tracemalloc.start()
        try:
            picked = psi.loo_tables(points, grid.points, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= picked.nbytes + 2 * 2**20, (peak - picked.nbytes) / 2**20


def _partial_sums_by_deletion(points: np.ndarray) -> np.ndarray:
    """The definition: row i of each sample in a (..., n, d) stack is fsum
    over each column with row i deleted."""
    out = np.empty(points.shape)
    for idx in np.ndindex(*points.shape[:-2]):
        sample = points[idx]
        for i in range(len(sample)):
            rest = np.delete(sample, i, axis=0)
            out[idx][i] = [math.fsum(col) for col in rest.T]
    return out


def _totals_by_fsum(points: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(col) for col in np.swapaxes(points, -1, -2).reshape(-1, points.shape[-2])])


@contextlib.contextmanager
def _path(path: str):
    """`_partial_sums` on one path: "fixed" tries fixed point at any size
    (falling back to the fsum loop where a column does not fit), "fsum"
    never does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scores_module, "_FIXED_TERMS", 0 if path == "fixed" else math.inf)
        yield


def _fits(points: np.ndarray) -> bool:
    """Whether the fixed-point path takes the whole stack."""
    flat = np.swapaxes(points, -1, -2).reshape(-1, points.shape[-2])
    return scores_module._fixed_sums(flat) is not None


_mixed_floats = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
    st.floats(-10, 10).map(lambda v: round(v, 1)),
    st.sampled_from([0.1, -0.1, 0.2, -0.3, 1e16, -1e16, 1.0, -1.0, 0.0, -0.0]),
)
_shapes = st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(1, 3))  # (T, n, m)
_mixed_stacks = _shapes.flatmap(lambda shape: arrays(float, shape, elements=_mixed_floats))
# Multiples of 2^s below 2^55 * 2^s, s shared by the stack: every column fits
# the int64 budget (55 + 1 + bit_length(41) <= 62), subnormal stacks included.
_fitting_stacks = st.tuples(_shapes, st.integers(-1074, 900)).flatmap(
    lambda args: arrays(float, args[0], elements=st.integers(-(2**55), 2**55).map(
        lambda k, s=args[1]: math.ldexp(k, s)))
)


@settings(max_examples=300)
@given(st.one_of(_mixed_stacks, _fitting_stacks))
def test_partial_sums_match_deletion_byte_for_byte(points):
    # Both paths, on (T, n, m) stacks.
    for path in ("fixed", "fsum"):
        with _path(path):
            sums, totals = _partial_sums(points)
        assert sums.tobytes() == _partial_sums_by_deletion(points).tobytes(), path
        assert totals.tobytes() == _totals_by_fsum(points).tobytes(), path


@settings(max_examples=200)
@given(_fitting_stacks)
def test_fitting_stacks_take_the_fixed_path(points):
    assert _fits(points)


def _column(*values) -> np.ndarray:
    """A stack of one sample with one coordinate."""
    return np.array(values, dtype=float)[None, :, None]


def _outcome(points, path: str):
    """`_partial_sums`' bytes on one path, or the type of what it raised."""
    with _path(path):
        try:
            sums, totals = _partial_sums(points)
        except (ValueError, OverflowError) as exc:
            return type(exc)
    return sums.tobytes(), totals.tobytes()


_EDGE_CASES = {
    # case: (stack, whether the fixed-point path takes it)
    "n1": (np.array([[[3.5, -0.1]], [[0.0, 2.0**-1074]]]), True),
    "zeros": (np.array([[[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]]), True),
    "negative_zeros": (_column(-0.0, -0.0, -0.0), True),
    "zero_and_tiny": (_column(-0.0, 5e-324, 0.0, -5e-324), True),
    "subnormals": (_column(5e-324, -1e-323, 2.0**-1030, -(2.0**-1023) + 5e-324), True),
    # (max e - E) + bit_length(n + 1): 60 + 2 = 62, then 63
    "at_int64_budget": (_column(2.0**59, 1.0), True),
    "past_int64_budget": (_column(2.0**60, 1.0), False),
    "int64_overflow": (_column(2.0**62, 2.0**62, 1.0), False),
    "rounds_up": (_column(1.0, 2.0**-53, 2.0**-55), True),
    "ties_to_even": (_column(1.0 + 2.0**-52, 2.0**-53, 0.0), True),
    "nan": (_column(1.0, math.nan), False),
    "inf": (_column(math.inf, 1.0), False),
    "minus_inf": (_column(-math.inf, 2.0, 3.0), False),
    "overflow_1e308": (_column(1e308, 1e308), False),
    "huge_cancelling": (_column(1e308, -1e308), False),
}


@pytest.mark.parametrize("case", _EDGE_CASES)
def test_partial_sums_edge_cases_agree_across_paths(case):
    points, fits = _EDGE_CASES[case]
    assert _fits(points) == fits
    expected = _outcome(points, "fsum")
    assert _outcome(points, "fixed") == expected
    if np.isfinite(points).all() and not isinstance(expected, type):
        assert expected == (_partial_sums_by_deletion(points).tobytes(), _totals_by_fsum(points).tobytes())


def test_partial_sums_raise_as_fsum_does():
    # fsum over a column with an infinite entry and its negation is refused,
    # and a column of sums past the largest double overflows.
    assert _outcome(_column(math.inf, 1.0), "fixed") is ValueError
    assert _outcome(_column(1e308, 1e308), "fixed") is OverflowError


class TestEmbeddingNet:
    def test_relu_between_layers(self):
        # One hidden layer: x -> max(0, -x) -> scaled
        net = EmbeddingNet.from_weights(
            [np.array([[-1.0]]), np.array([[2.0]])], [np.array([0.0]), np.array([0.0])]
        )
        assert net.apply(np.array([[3.0]]))[0, 0] == 0.0
        assert net.apply(np.array([[-3.0]]))[0, 0] == 6.0

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ValueError):
            EmbeddingNet.from_weights(
                [np.ones((2, 1)), np.ones((1, 3))], [np.zeros(2), np.zeros(1)]
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmbeddingNet(((((float("nan"),),), (0.0,)),))

    @pytest.mark.parametrize("bias", [math.nan, math.inf])
    def test_rejects_nonfinite_bias(self, bias):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingNet.from_weights([[[1.0]]], [[bias]])

    def test_weights_and_biases_pair_up(self):
        # Two weight matrices and one bias vector are no 1-layer net.
        with pytest.raises(ValueError, match="zip"):
            EmbeddingNet.from_weights([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1)])

    @pytest.mark.parametrize(
        "W, b", [([1.0], [0.0]), ([[1.0], [1.0]], [0.0]), (np.ones((1, 0)), [0.0])]
    )
    def test_rejects_malformed_layer(self, W, b):
        with pytest.raises(ValueError, match="a layer needs"):
            EmbeddingNet.from_weights([W], [b])

    def test_layers_are_read_only_copies(self):
        W, b = np.ones((2, 1)), np.zeros(2)
        net = EmbeddingNet.from_weights([W], [b])
        for arr, given_arr in zip(net.layers[0], (W, b)):
            assert arr.dtype == np.float64 and arr is not given_arr
            with pytest.raises(ValueError):
                arr[0] = 5.0
        W[0, 0] = b[0] = 5.0  # the caller's arrays stay writable
        assert net.apply(np.array([[1.0]])).tolist() == [[1.0, 1.0]]

    def test_compares_by_identity(self):
        net = EmbeddingNet.identity(2)
        assert net == net
        assert net != EmbeddingNet.identity(2)


@given(st.lists(finite_floats, min_size=1, max_size=7), finite_floats)
@settings(max_examples=60)
def test_scores_finite_on_finite_inputs(values, y):
    s, candidates = Sample.of(values), np.array([[y]])
    assert np.isfinite(MeanAbsDistance().loo_matrix(s, candidates)).all()
    psi = PrototypeEmbedding(EmbeddingNet.identity(1))
    assert np.isfinite(psi.loo_matrix(s, candidates)).all()
