"""Splitting the leave-one-out kernel and the rank count across CPUs.

`scores._split` runs a table's blocks in contiguous parts, one per CPU and
at most `_MAX_PARTS`, the first in the calling thread. The CPU count is
patched to 1, 2 and 3 here, and most tests shrink the blocks and the least
part, so every test holds on a host with any number of CPUs.
"""

import sys
import threading

import numpy as np
import pytest

import test_fullcp
import test_scores
from gridcp import scores as scores_module
from gridcp.fullcp import numerators_at, transducer
from gridcp.grid import Sample, make_uniform_grid
from gridcp.scores import EmbeddingNet, MeanAbsDistance, PrototypeEmbedding
from test_scores import _neg_sq, _norm, _one_shot_table


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers{w}")
def workers(request, monkeypatch) -> int:
    monkeypatch.setattr(scores_module, "_cpus", lambda: request.param)
    return request.param


def _blocks(monkeypatch, cells: int) -> None:
    """Blocks of `cells` cells, and a part of one block or more."""
    monkeypatch.setattr(scores_module, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(scores_module, "_PART_CELLS", cells)


@pytest.fixture
def starts(monkeypatch) -> list:
    """One entry per thread started."""
    started, real = [], threading.Thread.start

    def spy(self):
        started.append(self)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def _net(d: int) -> EmbeddingNet:
    rng = np.random.default_rng(8)
    return EmbeddingNet.from_weights(
        [rng.standard_normal((4, d)), rng.standard_normal((2, 4))],
        [rng.standard_normal(4), rng.standard_normal(2)],
    )


# (score, grid, dist, embed): a mixing net's prototype and a 1-D mean
# distance fill one factor of every coordinate, a 2-D or 3-D mean distance
# one factor per grid axis (with `rows`, one factor again).
_CASES = {
    "blocked_2d": (PrototypeEmbedding(_net(2)), ([(-2.0, 2.0), (-1.0, 1.0)], [9, 7]), _neg_sq, _net(2).apply),
    "blocked_1d": (MeanAbsDistance(), ([(-2.0, 2.0)], [50]), _norm, np.asarray),
    "product_2d": (MeanAbsDistance(), ([(-2.0, 2.0), (-1.0, 1.0)], [9, 7]), _norm, np.asarray),
    "product_3d": (MeanAbsDistance(), ([(-3.0, 3.0), (-1.0, 1.0), (-0.5, 0.5)], [7, 5, 3]), _norm,
                   np.asarray),
}


@pytest.mark.parametrize("cells", [7, 64], ids=["cells7", "cells64"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_tables_match_the_one_shot_table(monkeypatch, workers, starts, case, cells):
    _blocks(monkeypatch, cells)
    psi, spec, dist, embed = _CASES[case]
    grid = make_uniform_grid(*spec)
    points = np.random.default_rng(1).uniform(-2, 2, (3, 4, grid.dim))
    tables = psi.loo_tables(points, grid.points)
    for t in range(3):
        expected = _one_shot_table(points[t], grid.points, dist, embed)
        assert tables[t].tobytes() == expected.tobytes(), t
    assert bool(starts) == (workers > 1)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_rows_match_the_full_tables(monkeypatch, workers, starts, case):
    _blocks(monkeypatch, 7)
    psi, spec, *_ = _CASES[case]
    grid = make_uniform_grid(*spec)
    rng = np.random.default_rng(2)
    points = rng.uniform(-2, 2, (5, 4, grid.dim))
    rows = rng.integers(0, grid.size, (5, 6))
    picked = psi.loo_tables(points, grid.points, rows)
    full = psi.loo_tables(points, grid.points)
    for t in range(5):
        assert picked[t].tobytes() == full[t, rows[t]].tobytes(), t
    assert bool(starts) == (workers > 1)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_numerators_match_the_one_shot_count(monkeypatch, workers, starts, case):
    # 2 cells a block: each rank-count row of n + 1 = 5 cells is a block.
    _blocks(monkeypatch, 2)
    psi, spec, dist, embed = _CASES[case]
    grid = make_uniform_grid(*spec)
    rng = np.random.default_rng(3)
    points = rng.uniform(-2, 2, (6, 4, grid.dim))
    tests = rng.integers(0, grid.size, 6)
    at_tests = numerators_at(points, tests, psi, grid)
    for t in range(6):
        table = _one_shot_table(points[t], grid.points, dist, embed)
        expected = np.sum(table >= table[:, -1:], axis=1)
        nums = transducer(Sample(points[t]), psi, grid).nums
        assert nums.tobytes() == expected.tobytes(), t
        assert at_tests[t] == expected[tests[t]], t
    assert bool(starts) == (workers > 1)


def test_more_workers_than_cores_under_frequent_switches(monkeypatch, starts):
    # Eight parts a call, switching threads every microsecond: a part that
    # wrote outside its own cells would change some table or count.
    monkeypatch.setattr(scores_module, "_cpus", lambda: 8)
    monkeypatch.setattr(scores_module, "_MAX_PARTS", 8)
    _blocks(monkeypatch, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in ("blocked_2d", "product_2d"):
            psi, spec, dist, embed = _CASES[case]
            grid = make_uniform_grid(*spec)
            points = np.random.default_rng(5).uniform(-2, 2, (2, 4, grid.dim))
            for _ in range(5):
                tables = psi.loo_tables(points, grid.points)
                for t in range(2):
                    table = _one_shot_table(points[t], grid.points, dist, embed)
                    assert tables[t].tobytes() == table.tobytes()
                    nums = transducer(Sample(points[t]), psi, grid).nums
                    assert nums.tolist() == np.sum(table >= table[:, -1:], axis=1).tolist()
    finally:
        sys.setswitchinterval(interval)
    assert starts and not any(worker.is_alive() for worker in starts)


@pytest.mark.parametrize(
    "count, cells, cpus, parts",
    [
        # a part gets about _PART_CELLS = 12 blocks of 2^14 cells or more
        (48, 48 << 14, 2, 2),
        (47, 47 << 14, 2, 2),
        (47, 47 << 14, 3, 3),
        (23, 23 << 14, 3, 1),
        (1000, 1000 << 14, 64, 3),  # at most _MAX_PARTS, whatever the CPU count
        (1000, 1000 << 14, 1, 1),
        (18725, 18725 * 21, 2, 2),  # rows of 21 cells
        (18724, 18724 * 21, 2, 1),
        (2, 50 << 20, 3, 2),  # at most one part per item
        (1, 10 << 20, 2, 1),
        (0, 0, 2, 1),
    ],
)
def test_part_count(monkeypatch, count, cells, cpus, parts):
    monkeypatch.setattr(scores_module, "_cpus", lambda: cpus)
    assert scores_module._parts(count, cells) == parts


@pytest.mark.parametrize(
    "count, parts, bounds",
    [
        (10, 3, [(0, 3), (3, 6), (6, 10)]),
        (10, 2, [(0, 5), (5, 10)]),
        (7, 1, [(0, 7)]),
        (2, 2, [(0, 1), (1, 2)]),
        (0, 1, [(0, 0)]),
    ],
)
def test_parts_are_contiguous_and_cover_the_range(count, parts, bounds):
    seen, lock = [], threading.Lock()

    def run(lo, hi):
        with lock:
            seen.append((lo, hi))

    scores_module._split(run, count, parts)
    assert sorted(seen) == bounds


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_an_exception_in_a_part_reaches_the_caller(failing):
    before = threading.active_count()
    done = []

    def run(lo, hi):
        if (lo > 0) == (failing == "worker"):
            raise ValueError(f"part {lo}..{hi} failed")
        done.append(lo)

    with pytest.raises(ValueError, match=r"part \d+\.\.\d+ failed"):
        scores_module._split(run, 9, 3)
    # every part ran to its end before the caller saw the exception
    assert len(done) == (1 if failing == "worker" else 2)
    assert threading.active_count() == before


def test_a_one_block_call_starts_no_thread(monkeypatch, starts):
    monkeypatch.setattr(scores_module, "_cpus", lambda: 3)
    rng = np.random.default_rng(4)
    for d, counts in ((1, [12]), (2, [4, 3])):
        grid = make_uniform_grid([(-1.0, 1.0)] * d, counts)
        points = rng.normal(size=(2, 6, d))
        for psi in (MeanAbsDistance(), PrototypeEmbedding(_net(d))):
            transducer(Sample(points[0]), psi, grid)
            numerators_at(points, [0, 5], psi, grid)
            psi.loo_tables(points, grid.points, [[1, 2], [3, 4]])
    assert starts == []


def test_a_table_splits_from_two_least_parts(monkeypatch, starts):
    # n = 20 on a 1-D grid, 2 * _PART_CELLS = 24 * 2^14 cells: the kernel and
    # the rank count both split a table of n + 1 columns from 18725 candidates.
    monkeypatch.setattr(scores_module, "_cpus", lambda: 3)
    sample = Sample(np.random.default_rng(6).normal(size=(20, 1)))
    psi = MeanAbsDistance()
    transducer(sample, psi, make_uniform_grid([(-2.0, 2.0)], [18724]))
    assert starts == []
    psi.loo_matrix(sample, make_uniform_grid([(-2.0, 2.0)], [18725]).points)
    assert len(starts) == 1  # the kernel's
    transducer(sample, psi, make_uniform_grid([(-2.0, 2.0)], [18725]))
    assert len(starts) == 3  # the kernel's and the rank count's


@pytest.mark.parametrize("kind", ["mean_abs", "prototype"])
@pytest.mark.parametrize("cpus", [2, 64])
def test_kernel_memory_with_many_workers(monkeypatch, starts, kind, cpus):
    monkeypatch.setattr(scores_module, "_cpus", lambda: cpus)
    test_scores.TestKernelMemory().test_peak_stays_near_the_table(kind)
    # warm-up and measured call: one thread each below the cap, two at it
    assert len(starts) == 2 * (min(cpus, scores_module._MAX_PARTS) - 1)


@pytest.mark.parametrize("cpus", [2, 64])
def test_transducer_memory_with_many_workers(monkeypatch, cpus):
    monkeypatch.setattr(scores_module, "_cpus", lambda: cpus)
    test_fullcp.TestTransducer().test_large_grid_memory_stays_near_the_table()
