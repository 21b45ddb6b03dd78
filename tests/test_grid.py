"""Grid, region, and sample plumbing."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcp.bayes import midpoint_grid

from gridcp.grid import (
    Grid,
    Region,
    Sample,
    UniverseMismatchError,
    make_uniform_grid,
)


class TestMakeUniformGrid:
    def test_two_point_endpoints(self):
        grid = make_uniform_grid([(0, 1)], [2])
        assert grid.points.tolist() == [[0.0], [1.0]]

    def test_unit_square_corners(self):
        grid = make_uniform_grid([(0, 1), (0, 1)], [2, 2])
        assert grid.size == 4
        assert grid.points.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_five_point_axis(self):
        # linspace recomputed by hand: step (1-(-1))/4 = 0.5
        grid = make_uniform_grid([(-1, 1)], [5])
        assert grid.points.tolist() == [[-1.0], [-0.5], [0.0], [0.5], [1.0]]

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            make_uniform_grid([(1, 0)], [3])

    @pytest.mark.parametrize(
        "lo,hi", [(float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0)]
    )
    def test_rejects_non_finite_bounds(self, lo, hi):
        for m in (1, 3):
            with pytest.raises(ValueError, match="non-finite"):
                make_uniform_grid([(lo, hi)], [m])
        for count in (1, 3):
            with pytest.raises(ValueError, match="non-finite"):
                midpoint_grid(lo, hi, count)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            make_uniform_grid([(0, 1)], [0])

    def test_axes_span_the_bounds(self):
        bounds = [(-3.7, 2.9), (0.1, 0.2)]
        grid = make_uniform_grid(bounds, [7, 3])
        assert [(axis[0], axis[-1]) for axis in grid.axes] == bounds

    def test_lexicographic_order(self):
        grid = make_uniform_grid([(0, 1), (0, 2)], [3, 4])
        points = grid.points.tolist()
        assert points == sorted(points)

    def test_nearest_index(self):
        grid = make_uniform_grid([(-1, 1)], [5])
        assert grid.nearest_index(0.24) == 2
        assert grid.nearest_index(0.26) == 3
        assert grid.nearest_index(9.0) == 4
        assert grid.points[grid.nearest_index(-0.74)].tolist() == [-0.5]

    def test_nearest_index_2d(self):
        grid = make_uniform_grid([(0, 1), (0, 1)], [3, 3])
        assert grid.points[grid.nearest_index((0.9, 0.1))].tolist() == [1.0, 0.0]



WORKED_GRID = Grid(axes=((0.0, 0.5, 1.0, 2.0),), spacing=(0.5,))


def _brute_nearest(grid, point) -> int:
    """Index of the nearest grid point by squared Euclidean distance."""
    return int(np.argmin(((grid.points - np.asarray(point, dtype=float)) ** 2).sum(axis=1)))


class TestAxisDefinedGrid:
    def test_points_are_the_read_only_product_of_axes(self):
        grid = make_uniform_grid([(-3.7, 2.9), (0.1, 0.2), (0, 1)], [7, 3, 2])
        assert grid.points.tolist() == [list(p) for p in itertools.product(*grid.axes)]
        assert grid.points.dtype == np.float64
        assert grid.counts == (7, 3, 2) and grid.size == 42 and grid.dim == 3
        with pytest.raises(ValueError):
            grid.points[0, 0] = 1.0

    def test_points_and_counts_are_not_fields(self):
        # Points and counts that disagree can no longer be stated, nor bounds
        # that the axes disagree with: bounds are only the builders' input.
        with pytest.raises(TypeError):
            Grid(points=((0.0,), (1.0,)), counts=(5,), spacing=(0.25,))
        with pytest.raises(TypeError):
            Grid(axes=((0.0, 1.0),), bounds=((0.0, 1.0),), spacing=(1.0,))

    @pytest.mark.parametrize(
        "axes,spacing,match",
        [
            (((0.0, 0.0, 1.0),), (0.5,), "strictly increasing"),
            (((1.0, 0.0),), (1.0,), "strictly increasing"),
            (((float("nan"),),), (0.0,), "axis 0 has a non-finite point"),
            (((float("inf"),),), (0.0,), "axis 0 has a non-finite point"),
            (((float("-inf"),),), (0.0,), "axis 0 has a non-finite point"),
            (((0.0, float("nan"), 1.0),), (0.5,), "strictly increasing"),
            (((float("-inf"), 0.0),), (1.0,), "axis 0 has a non-finite point"),
            (((0.0, float("inf")),), (1.0,), "axis 0 has a non-finite point"),
            (((0.0,), (float("nan"),)), (0.0, 0.0), "axis 1 has a non-finite point"),
            (((0.0, 1.0),), (0.0,), "spacing"),
            (((0.0, 1.0),), (float("inf"),), "spacing"),
            (((0.0,),), (0.0, 0.0), "one entry per dimension"),
            ((), (), "one entry per dimension"),
            (((),), (0.0,), "at least one point"),
        ],
    )
    def test_rejects_malformed_axes(self, axes, spacing, match):
        with pytest.raises(ValueError, match=match):
            Grid(axes=axes, spacing=spacing)

    def test_equality_is_by_axes(self):
        grid = make_uniform_grid([(0, 1)], [3])
        assert grid == Grid(axes=((0.0, 0.5, 1.0),), spacing=(0.5,))
        assert grid != Grid(axes=((0.0, 0.25, 1.0),), spacing=(0.5,))

    def test_midpoint_grid_snaps_to_its_own_points(self):
        grid = midpoint_grid(0, 1, 10)
        assert grid.points[grid.nearest_index(0.15)].tolist() == [0.15000000000000002]

    def test_worked_grid_snaps_to_the_nearest_point(self):
        for point, nearest in ((1.4, 1.0), (1.6, 2.0), (-3.0, 0.0)):
            assert WORKED_GRID.points[WORKED_GRID.nearest_index(point)].tolist() == [nearest]

    @pytest.mark.parametrize(
        "grid",
        [
            midpoint_grid(0.0, 1.0, 10),
            midpoint_grid(-3.0, 7.0, 7),
            WORKED_GRID,
            Grid(axes=((-1.0, 0.0, 0.1, 3.0), (-2.0, 5.0, 5.5)), spacing=(1.0, 2.5)),
        ],
    )
    def test_snap_on_non_uniform_and_midpoint_grids(self, grid):
        for i, p in enumerate(grid.points.tolist()):
            assert grid.nearest_index(p) == i
        rng = np.random.default_rng(0)
        lo = np.array([axis[0] for axis in grid.axes]) - 1.0
        hi = np.array([axis[-1] for axis in grid.axes]) + 1.0
        for point in rng.uniform(lo, hi, (300, grid.dim)).tolist():
            assert grid.nearest_index(point) == _brute_nearest(grid, point)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-50, 50), st.floats(0.01, 50), st.integers(1, 40)),
        min_size=1,
        max_size=2,
    ),
    st.data(),
)
def test_nearest_index_is_the_brute_force_argmin(dims, data):
    grid = make_uniform_grid([(lo, lo + w) for lo, w, _ in dims], [m for *_, m in dims])
    point = [data.draw(st.floats(lo - w, lo + 2 * w)) for lo, w, _ in dims]
    for c, axis in zip(point, grid.axes):
        gaps = np.sort(np.abs(np.asarray(axis) - c))
        assume(len(gaps) == 1 or gaps[1] - gaps[0] > 1e-9)  # away from exact midpoints
    assert grid.nearest_index(point) == _brute_nearest(grid, point)


def _scalar_nearest_index(grid: Grid, point) -> int:
    """The snapping rule one point at a time, as a loop: the reference for
    `Grid.nearest_indices`."""
    idx = 0
    for c, axis, h in zip(point, grid.axes, grid.spacing):
        last = len(axis) - 1
        i = min(max(round((c - axis[0]) / h), 0), last) if last else 0
        while i > 0 and c - axis[i - 1] < axis[i] - c:
            i -= 1
        while i < last and axis[i + 1] - c < c - axis[i]:
            i += 1
        idx = idx * (last + 1) + i
    return idx


@st.composite
def _snap_axes(draw):
    """(axis, spacing) of one dimension: uniform, midpoint or hand-built,
    single-point axes included."""
    kind = draw(st.sampled_from(["uniform", "midpoint", "hand_built"]))
    lo, width = draw(st.floats(-50, 50)), draw(st.floats(0.01, 50))
    count = draw(st.integers(1, 25))
    if kind == "uniform":
        grid = make_uniform_grid([(lo, lo + width)], [count])
    elif kind == "midpoint":
        grid = midpoint_grid(lo, lo + width, count)
    else:
        axis = sorted(set(draw(st.lists(st.floats(-50, 50), min_size=1, max_size=12))))
        spacing = draw(st.floats(0.01, 20)) if len(axis) > 1 else 0.0
        return tuple(axis), spacing
    return grid.axes[0], grid.spacing[0]


@st.composite
def _snap_coordinate(draw, axis, spacing):
    """A coordinate inside or outside the axis span, on an axis point, on the
    exact midpoint of two neighbours, or where the first guess is a half."""
    choices = [st.floats(axis[0] - 10, axis[-1] + 10), st.sampled_from(axis)]
    if len(axis) > 1:
        pairs = list(zip(axis, axis[1:]))
        choices.append(st.sampled_from([(a + b) / 2 for a, b in pairs]))
        choices.append(st.integers(-3, len(axis) + 2).map(lambda k: axis[0] + (k + 0.5) * spacing))
    return draw(st.one_of(choices))


@settings(max_examples=300, deadline=None)
@given(st.lists(_snap_axes(), min_size=1, max_size=2), st.data())
def test_nearest_indices_is_nearest_index_of_each_row(dims, data):
    axes, spacing = zip(*dims)
    grid = Grid(axes=axes, spacing=spacing)
    row = st.tuples(*(_snap_coordinate(*dim) for dim in dims))
    points = data.draw(st.lists(row, min_size=1, max_size=20))
    got = grid.nearest_indices(np.array(points))
    assert got.shape == (len(points),)
    assert got.tolist() == [grid.nearest_index(p) for p in points]
    assert got.tolist() == [_scalar_nearest_index(grid, p) for p in points]


class TestNearestIndices:
    def test_exact_midpoints_round_half_to_even(self):
        grid = make_uniform_grid([(0.0, 4.0)], [5])
        points = np.array([[0.5], [1.5], [2.5], [3.5], [-0.5], [4.5]])
        assert grid.nearest_indices(points).tolist() == [0, 2, 2, 4, 0, 4]

    def test_two_dimensions_in_grid_order(self):
        grid = make_uniform_grid([(0, 1), (0, 1)], [2, 3])
        points = np.array([[0.9, 0.1], [0.1, 0.9], [2.0, -2.0]])
        assert grid.nearest_indices(points).tolist() == [3, 2, 3]

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (1, 3, 1)])
    def test_refuses_an_array_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 1\) array"):
            make_uniform_grid([(0, 1)], [3]).nearest_indices(np.zeros(shape))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_non_finite_points(self, bad):
        grid = make_uniform_grid([(0, 1)], [1])
        with pytest.raises(ValueError, match="non-finite"):
            grid.nearest_indices(np.array([[0.5], [bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            grid.nearest_index(bad)

class TestRegionOps:
    def setup_method(self):
        self.grid = make_uniform_grid([(0, 1)], [3])

    def test_complement_of_full_is_empty(self):
        assert self.grid.full_region().complement() == Region(self.grid, 0)

    def test_subset(self):
        assert self.grid.region([0, 1]).is_subset(self.grid.region([0, 1, 2]))
        assert not self.grid.region([0, 2]).is_subset(self.grid.region([0, 1]))

    def test_universe_mismatch(self):
        other = make_uniform_grid([(0, 1)], [4])
        with pytest.raises(UniverseMismatchError):
            self.grid.full_region().is_subset(other.full_region())


_MASK_GRIDS = {m: make_uniform_grid([(0, 1)], [m]) for m in (1, 7, 8, 9, 40_401)}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_MASK_GRIDS)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]),
)
def test_from_mask_matches_bit_loop(size, seed, density):
    grid = _MASK_GRIDS[size]
    mask = np.random.default_rng(seed).random(size) < density
    on = np.flatnonzero(mask).tolist()
    region = Region.from_mask(grid, mask)
    assert region.bits == sum(1 << i for i in on)
    assert region.indices == tuple(on)
    assert all(type(i) is int for i in region.indices)
    assert region.mask.dtype == bool and np.array_equal(region.mask, mask)
    assert grid.region(on) == region


@given(st.sampled_from([1, 7, 8, 9]), st.integers(0, 2**9 - 1))
def test_indices_matches_bit_loop(size, bits):
    region = Region(_MASK_GRIDS[size], bits % (1 << size))
    assert region.indices == tuple(i for i in range(size) if (region.bits >> i) & 1)


def test_from_mask_refuses_wrong_shape():
    grid = _MASK_GRIDS[8]
    for bad in (np.ones(7, bool), np.ones(9, bool), np.ones((1, 8), bool)):
        with pytest.raises(ValueError, match="shape"):
            Region.from_mask(grid, bad)


class TestSample:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Sample.of([0.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Sample.of([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample(())

    def test_of_scalars_and_points(self):
        assert Sample.of([1, 2]).points.tolist() == [[1.0], [2.0]]
        assert Sample.of([(1, 2)]).dim == 2

    def test_points_are_a_read_only_array(self):
        s = Sample.of([(0, 1), (2, 3), (4, 5)])
        assert s.points.dtype == np.float64
        assert (s.n, s.dim) == (3, 2)
        with pytest.raises(ValueError):
            s.points[0, 0] = 9.0

    def test_array_is_frozen_in_place_and_of_copies(self):
        arr = np.array([[0.0], [1.0]])
        assert Sample(arr).points is arr
        assert not arr.flags.writeable
        mine = np.array([0.0, 1.0])
        Sample.of(mine)
        assert mine.flags.writeable

    def test_non_finite_message_names_the_observation(self):
        with pytest.raises(ValueError, match=r"non-finite observation \(1.0, nan\)"):
            Sample.of([(0, 0), (1, float("nan"))])

    def test_rejects_malformed_shapes(self):
        for bad in (np.zeros(3), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((1, 1, 1))):
            with pytest.raises(ValueError):
                Sample(bad)

    def test_compares_by_identity(self):
        s = Sample.of([1, 2])
        assert s == s
        assert s != Sample.of([1, 2])


def test_grid_immutability_hashable():
    grid = make_uniform_grid([(0, 1)], [3])
    assert hash(grid) == hash(make_uniform_grid([(0, 1)], [3]))
    assert len({grid.region([0]), grid.region([0])}) == 1
