"""Golden outputs: refactors must leave every report byte-identical.

The digests below are the sha256 of each experiment's JSON and CSV report at
seed 7 with the trial counts in TRIALS. They were recorded before `Grid` was
redefined by its axes and before `Transducer.nums` and
`PossibilityContour.values` became arrays. A change that moves one of them
changes what `ck` writes; re-record only for a change that means to.

TRANSDUCER_2D_DIGESTS pin the leave-one-out kernels off the 1-D path: the
sha256 of `transducer(...).nums.tobytes()` on a 41x41 grid at n = 20, for the
mean distance and for a seeded 2-layer embedding into R^3. They were recorded
before `Sample` became an array and the two kernels were merged.
"""

import hashlib

import numpy as np
import pytest

from gridcp.fullcp import transducer
from gridcp.grid import Grid, Sample, make_uniform_grid
from gridcp.harness import ExperimentConfig, emit, run_experiment
from gridcp.imprecise import cred
from gridcp.scores import EmbeddingNet, MeanAbsDistance, PrototypeEmbedding

TRIALS = {
    "coverage": 100,
    "diagram": 50,
    "bayes_triangle": 20,
    "monad_laws": 1,
    "category_axioms": 20,
    "eposterior": 1,
    "ihdr_oracle": 100,
}

DIGESTS = {
    ("coverage", "json"): "da2f9ff42512ff94334ad6f3a84839ccc59437b8f19abbdafabe61d51fa0e073",
    ("coverage", "csv"): "6e4c24fc1d743cf6051c6ef011df15234222d4aa9b6fc66ed2ae2320669d949a",
    ("diagram", "json"): "8d32f8f011e320731cc32a9c5e52e8522b5662cec398e5ce5eea727a78fb6bf4",
    ("diagram", "csv"): "7e9ef35f634afbadbfe23dcf5a1d78d7a0a5dd78f6233807cf904b0427725193",
    ("bayes_triangle", "json"): "3d0d710c2d426a1eb7cb4af193c595678f002eb9d06bf887b8f0255a15cf49e3",
    ("bayes_triangle", "csv"): "c30289cc7e8fff151936a5239e3384f3e6100ce80dee93e4c2dba277362409f9",
    ("monad_laws", "json"): "906ff3affd93cd0d90b0a490cdd08ac8d486db9ea5e9609277e42e167761e915",
    ("monad_laws", "csv"): "490614d1b656cb79192dd696b817b6d8caa9345e9aa023307e0a22d669b20cb1",
    ("category_axioms", "json"): "06ebac9eb6481c008d8e52c2ea0ee75f4cca6292227b95f04d92a7a5a8963b38",
    ("category_axioms", "csv"): "a07b469cbea19c67b7df95893b1d821f94bf7a2283eb7aa0e43254cb84bfea47",
    ("eposterior", "json"): "fd1be69c901de760bdbb8b2fc759d87cdefea647678968de0c50404906288648",
    ("eposterior", "csv"): "279415aa73739209f1fb5c77f6da5b77895d402496f505040e8b5e0dc48a9c19",
    ("ihdr_oracle", "json"): "bb6ec9af2fa26574fe36ee9a52f33a7a62f608f8bc4439950cd98988941b2783",
    ("ihdr_oracle", "csv"): "84b89bc49d4e0f9f3a9709f77c3acee2c1eae7dcd8d629a2b86ec3be9d7524fd",
}


@pytest.mark.parametrize("experiment", sorted(TRIALS))
def test_report_digests(tmp_path, experiment):
    report = run_experiment(
        ExperimentConfig(experiment=experiment, seed=7, trials=TRIALS[experiment])
    )
    for fmt in ("json", "csv"):
        path = tmp_path / f"report.{fmt}"
        emit(report, str(path), fmt)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == DIGESTS[experiment, fmt], f"{experiment} {fmt} report changed"


# The worked example: sample {0, 1} on the grid {0, 0.5, 1, 2}. The values
# are Python floats compared exactly.
WORKED_GRID = Grid(axes=((0.0, 0.5, 1.0, 2.0),), spacing=(0.5,))


def test_worked_example_numbers():
    sample = Sample.of([0, 1])
    t = transducer(sample, MeanAbsDistance(), WORKED_GRID)
    assert t.nums.tolist() == [3, 3, 3, 2]
    assert t.values.tolist() == [1.0, 1.0, 1.0, 0.6666666666666666]
    assert cred(sample, MeanAbsDistance(), WORKED_GRID).values.tolist() == [
        1.0, 1.0, 1.0, 0.6666666666666666
    ]


def test_two_dimensional_numbers():
    # A 2-D grid, to pin the lexicographic point order (dimension 0 slowest).
    grid = make_uniform_grid([(-1, 2), (0, 1)], [4, 3])
    sample = Sample.of([(0.0, 0.5), (1.0, 1.0), (2.0, 0.0)])
    t = transducer(sample, MeanAbsDistance(), grid)
    assert grid.points.tolist() == [
        [x0, x1] for x0 in (-1.0, 0.0, 1.0, 2.0) for x1 in (0.0, 0.5, 1.0)
    ]
    assert t.nums.tolist() == [2, 2, 2, 2, 3, 2, 4, 4, 4, 3, 3, 3]
    assert t.values.tolist() == [
        0.5, 0.5, 0.5, 0.5, 0.75, 0.5, 1.0, 1.0, 1.0, 0.75, 0.75, 0.75
    ]


TRANSDUCER_2D_DIGESTS = {
    "mean_abs_distance": "a1a3c9bee595a9160699da6456a5fb14293b5b844b5b747b18fe864be4052d66",
    "prototype_embedding": "1fc8b920b0c363a6f8c5d95933e9ed80df442df11b2dfab3a544d3c73b65d043",
}


def test_two_dimensional_transducer_digests():
    rng = np.random.default_rng(7)
    grid = make_uniform_grid([(-3.0, 3.0), (-2.0, 2.0)], [41, 41])
    sample = Sample.of(rng.uniform(-2.0, 2.0, (20, 2)).tolist())
    net = EmbeddingNet.from_weights(
        [rng.standard_normal((4, 2)), rng.standard_normal((3, 4))],
        [rng.standard_normal(4) * 0.5, rng.standard_normal(3) * 0.5],
    )
    for psi in (MeanAbsDistance(), PrototypeEmbedding(net)):
        nums = transducer(sample, psi, grid).nums
        assert nums.dtype == np.int64
        digest = hashlib.sha256(nums.tobytes()).hexdigest()
        assert digest == TRANSDUCER_2D_DIGESTS[psi.kind], f"{psi.kind} transducer changed"
