"""Score families: frozen values, exact permutation invariance, embedding nets."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp import scores as scores_module
from gridcp.grid import Sample
from gridcp.scores import (
    EmbeddingNet,
    MeanAbsDistance,
    NegPredictiveDensity,
    PrototypeEmbedding,
    ScoreFn,
    check_permutation_invariance,
    score_mean_abs,
    score_prototype,
    _fsum_mean,
    _partial_sums,
)

finite_floats = st.floats(-50, 50)


class FirstElementScore(ScoreFn):
    """Deliberately order-sensitive: negative control for invariance checks."""

    kind = "first_element"

    def evaluate(self, sample: Sample, y) -> float:
        return abs(sample.points[0, 0] - float(np.atleast_1d(y)[0]))


class TestMeanAbs:
    def test_candidate_at_mean(self):
        assert score_mean_abs(Sample.of([0, 1]), 0.5) == 0.0

    def test_hand_arithmetic(self):
        assert score_mean_abs(Sample.of([0, 2]), 0.0) == 1.0

    def test_identity(self):
        assert score_mean_abs(Sample.of([3]), 3.0) == 0.0

    def test_euclidean_for_d2(self):
        s = Sample.of([(0, 0), (2, 2)])
        assert score_mean_abs(s, (1, 1)) == 0.0
        assert score_mean_abs(s, (1, 0)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score_mean_abs(Sample.of([(0, 0)]), 1.0)


class TestPrototype:
    def test_candidate_at_prototype(self):
        net = EmbeddingNet.identity(1)
        assert score_prototype(Sample.of([0, 1]), 0.5, net) == 0.0

    def test_hand_arithmetic(self):
        net = EmbeddingNet.identity(1)
        assert score_prototype(Sample.of([0, 2]), 0.0, net) == -1.0

    def test_zero_net_collapses(self):
        net = EmbeddingNet(((((0.0,),), (0.0,)),))
        for y in (-3.0, 0.0, 7.5):
            assert score_prototype(Sample.of([0, 2, 4]), y, net) == 0.0

    def test_sign_is_nonpositive(self):
        net = EmbeddingNet.identity(1)
        assert score_prototype(Sample.of([0, 4]), 9.0, net) <= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score_prototype(Sample.of([(0, 1)]), (0, 1), EmbeddingNet.identity(1))

    @given(st.lists(finite_floats, min_size=1, max_size=6), finite_floats)
    def test_identity_net_matches_neg_squared_mean_abs(self, values, y):
        net = EmbeddingNet.identity(1)
        lhs = score_prototype(Sample.of(values), y, net)
        rhs = -score_mean_abs(Sample.of(values), y) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNegPredictiveDensity:
    def test_matches_gaussian(self):
        psi = NegPredictiveDensity(mean=1.0, sd=2.0)
        expected = -math.exp(-0.125) / (2.0 * math.sqrt(2 * math.pi))
        assert psi.evaluate(Sample.of([99.0]), 2.0) == pytest.approx(expected, rel=1e-15)

    def test_sample_argument_ignored(self):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        assert psi.evaluate(Sample.of([1]), 0.3) == psi.evaluate(Sample.of([-9, 4]), 0.3)

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
        [([1.0], [0.0, 5.0]), ([1.0], [[0.0]]), ([(1.0, 2.0)], 0.0)],
        ids=["2d_point", "nested_point", "2d_sample"],
    )
    def test_evaluate_refuses_multivariate_points(self, sample, y):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        with pytest.raises(ValueError, match="neg_predictive_density scores 1-D points"):
            psi.evaluate(Sample.of(sample), y)

    def test_evaluate_accepts_scalars_and_one_coordinate(self):
        psi = NegPredictiveDensity(mean=0.0, sd=1.0)
        values = {psi.evaluate(Sample.of([1.0]), y) for y in (0.5, np.float64(0.5), [0.5], np.array([0.5]))}
        assert values == {-float(psi.density(0.5))}


class TestPermutationInvariance:
    def test_mean_abs_random_permutations(self):
        s = Sample.of([0.3, -1.2, 4.0, 2.2])
        assert check_permutation_invariance(MeanAbsDistance(), s, 0.7, trials=20)

    def test_prototype_random_permutations(self):
        rng = np.random.default_rng(5)
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((3, 1)), rng.standard_normal((2, 3))],
            [rng.standard_normal(3), rng.standard_normal(2)],
        )
        s = Sample.of([0.3, -1.2, 4.0, 2.2, 0.9])
        assert check_permutation_invariance(PrototypeEmbedding(net), s, 0.7, trials=20)

    def test_negative_control(self):
        s = Sample.of([0.0, 10.0, 20.0])
        assert not check_permutation_invariance(FirstElementScore(), s, 1.0, trials=50)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            check_permutation_invariance(MeanAbsDistance(), Sample.of([1]), 0.0, trials=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_bit_for_bit(self, n):
        # Exact (not approximate) equality across every permutation, n <= 6.
        rng = np.random.default_rng(n)
        values = rng.uniform(-5, 5, n).tolist()
        y = float(rng.uniform(-5, 5))
        net = EmbeddingNet.from_weights(
            [rng.standard_normal((2, 1))], [rng.standard_normal(2)]
        )
        scores = [MeanAbsDistance(), PrototypeEmbedding(net)]
        for psi in scores:
            ref = psi.evaluate(Sample.of(values), y)
            for perm in itertools.permutations(values):
                assert psi.evaluate(Sample.of(perm), y) == ref


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
        slow = ScoreFn.loo_matrix(psi, y_n, candidates)
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
            slow = ScoreFn.loo_matrix(psi, y_n, candidates)
            assert fast.shape == (9, 7)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def _one_shot_table(points, candidates, dist, embed=np.asarray):
    """The unblocked kernel: one (G, n, m) difference array for columns 0..n-1."""
    n, d = points.shape
    train = embed(points)
    cand = embed(np.asarray(candidates, dtype=float).reshape(-1, d))
    t_train = dist((_partial_sums(train)[None, :, :] + cand[:, None, :]) / n - train[None, :, :])
    t_cand = dist(_fsum_mean(train) - cand)
    return np.concatenate([t_train, t_cand[:, None]], axis=1)


def _blocking_cases():
    """(score, d, m, dist, embed) for both sample scores, d = 1 and 2, m != d."""
    rng = np.random.default_rng(5)
    norm = lambda v: np.linalg.norm(v, axis=-1)  # noqa: E731
    neg_sq = lambda v: -np.sum(v * v, axis=-1)  # noqa: E731
    ident = EmbeddingNet.identity(1)
    wide = EmbeddingNet.from_weights([rng.standard_normal((2, 1))], [rng.standard_normal(2)])
    deep = EmbeddingNet.from_weights(
        [rng.standard_normal((4, 2)), rng.standard_normal((3, 4))],
        [rng.standard_normal(4), rng.standard_normal(3)],
    )
    return {
        "mean_abs_d1": (MeanAbsDistance(), 1, 1, norm, np.asarray),
        "mean_abs_d2": (MeanAbsDistance(), 2, 2, norm, np.asarray),
        "prototype_d1": (PrototypeEmbedding(ident), 1, 1, neg_sq, ident.apply),
        "prototype_d1_m2": (PrototypeEmbedding(wide), 1, 2, neg_sq, wide.apply),
        "prototype_d2_m3": (PrototypeEmbedding(deep), 2, 3, neg_sq, deep.apply),
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
        rows = max(1, scores_module._BLOCK_CELLS // (n * m))
        rng = np.random.default_rng(0)
        y_n = Sample(rng.uniform(-2, 2, (n, d)))
        # G one less than a block, exactly one block, and one more.
        for size in (rows - 1, rows, rows + 1):
            candidates = rng.uniform(-2, 2, (size, d))
            table = psi.loo_matrix(y_n, candidates)
            assert table.shape == (size, n + 1)
            expected = _one_shot_table(y_n.points, candidates, dist, embed)
            assert table.tobytes() == expected.tobytes(), size


def _partial_sums_by_deletion(points: np.ndarray) -> np.ndarray:
    """The definition: row i is fsum over each column with row i deleted."""
    n, d = points.shape
    out = np.empty((n, d))
    for i in range(n):
        rest = np.delete(points, i, axis=0)
        for k in range(d):
            out[i, k] = math.fsum(rest[:, k]) if n > 1 else 0.0
    return out


_mixed_floats = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
    st.floats(-10, 10).map(lambda v: round(v, 1)),
    st.sampled_from([0.1, -0.1, 0.2, -0.3, 1e16, -1e16, 1.0, -1.0, 0.0, -0.0]),
)


@settings(max_examples=300)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(_mixed_floats, min_size=d, max_size=d), min_size=1, max_size=40
        )
    )
)
def test_partial_sums_match_deletion_byte_for_byte(rows):
    points = np.array(rows, dtype=float)
    assert _partial_sums(points).tobytes() == _partial_sums_by_deletion(points).tobytes()


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
    s = Sample.of(values)
    assert math.isfinite(score_mean_abs(s, y))
    assert math.isfinite(score_prototype(s, y, EmbeddingNet.identity(1)))
