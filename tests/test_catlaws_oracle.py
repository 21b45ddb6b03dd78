"""The relation-matrix arrows against the bitmask implementation they replaced.

The functions prefixed `bitmask_` are the earlier bit-loop forms of compose,
tensor and the hyperspace constructions, kept here as an oracle: they build
every fiber as an integer code (bit y set when y is in the fiber), one
element at a time. Hyperspace element i is the subset with code i + 1.
`random_correspondence` is the earlier one-draw-per-fiber arrow source, the
oracle for the campaigns' `_draw`; `itertools.product` is the oracle for
their `_sweep`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp import catlaws
from gridcp.catlaws import (
    _INNER_BLOCK,
    FiniteCorrespondence,
    _all_correspondences,
    _bool_matmul,
    _draw,
    _failures,
    _sweep,
    compose,
    hyperspace,
    tensor,
    vietoris_map,
    vietoris_multiplication,
    vietoris_unit,
)


def random_correspondence(
    rng: np.random.Generator, source: int, target: int, nonempty: bool = False
) -> FiniteCorrespondence:
    """One arrow, drawn with one `rng.integers` call per fiber."""
    lo = 1 if nonempty else 0
    fibers = [int(rng.integers(lo, 1 << target)) for _ in range(source)]
    return FiniteCorrespondence.from_fibers(target, fibers)


def _image(phi: FiniteCorrespondence, subset_mask: int) -> int:
    out = 0
    for x in range(phi.source):
        if (subset_mask >> x) & 1:
            out |= phi.fibers[x]
    return out


def bitmask_compose(phi, psi):
    return FiniteCorrespondence.from_fibers(
        psi.target, tuple(_image(psi, f) for f in phi.fibers)
    )


def bitmask_tensor(phi, psi):
    n2, m2 = psi.source, psi.target
    fibers = []
    for idx in range(phi.source * n2):
        x, y = divmod(idx, n2)
        fx, fy = phi.fibers[x], psi.fibers[y]
        mask = 0
        for u in range(phi.target):
            if (fx >> u) & 1:
                for v in range(m2):
                    if (fy >> v) & 1:
                        mask |= 1 << (u * m2 + v)
        fibers.append(mask)
    return FiniteCorrespondence.from_fibers(phi.target * m2, tuple(fibers))


def _nonempty_submasks(mask):
    s = mask
    while s:
        yield s
        s = (s - 1) & mask


def bitmask_vietoris_map(phi, variant="singleton"):
    fibers = []
    for idx in range(hyperspace(phi.source)):
        img = _image(phi, idx + 1)
        if variant == "singleton":
            fibers.append(1 << (img - 1))
        else:
            mask = 0
            for s in _nonempty_submasks(img):
                mask |= 1 << (s - 1)
            fibers.append(mask)
    return FiniteCorrespondence.from_fibers(hyperspace(phi.target), tuple(fibers))


def bitmask_vietoris_unit(n):
    return FiniteCorrespondence.from_fibers(
        hyperspace(n), tuple(1 << ((1 << i) - 1) for i in range(n))
    )


def bitmask_vietoris_multiplication(n):
    kx = hyperspace(n)
    fibers = []
    for idx in range(hyperspace(kx)):
        fam = idx + 1
        union = 0
        for i in range(kx):
            if (fam >> i) & 1:
                union |= i + 1
        fibers.append(1 << (union - 1))
    return FiniteCorrespondence.from_fibers(kx, tuple(fibers))


SIZES = st.integers(1, 4)


def arrows(source: int, target: int, nonempty: bool = False):
    codes = st.integers(1 if nonempty else 0, (1 << target) - 1)
    return st.lists(codes, min_size=source, max_size=source).map(
        lambda fibers: FiniteCorrespondence.from_fibers(target, tuple(fibers))
    )


@st.composite
def composable(draw, nonempty=False):
    x, y, z = (draw(SIZES) for _ in range(3))
    return draw(arrows(x, y, nonempty)), draw(arrows(y, z, nonempty))


@st.composite
def any_arrow(draw, nonempty=False):
    return draw(arrows(draw(SIZES), draw(SIZES), nonempty))


@settings(max_examples=200, deadline=None)
@given(composable())
def test_compose_matches_bitmask(pair):
    phi, psi = pair
    assert compose(phi, psi) == bitmask_compose(phi, psi)


@settings(max_examples=200, deadline=None)
@given(any_arrow(), any_arrow())
def test_tensor_matches_bitmask_and_kron(phi, psi):
    product = tensor(phi, psi)
    assert product == bitmask_tensor(phi, psi)
    assert np.array_equal(product.matrix, np.kron(phi.matrix, psi.matrix))


@settings(max_examples=200, deadline=None)
@given(any_arrow(nonempty=True), st.sampled_from(["singleton", "downset"]))
def test_vietoris_map_matches_bitmask(phi, variant):
    assert vietoris_map(phi, variant) == bitmask_vietoris_map(phi, variant)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_and_multiplication_match_bitmask(n):
    assert vietoris_unit(n) == bitmask_vietoris_unit(n)
    assert vietoris_multiplication(n) == bitmask_vietoris_multiplication(n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacks_match_one_arrow_at_a_time(data):
    """The campaigns lean on broadcasting: a stack acts arrow by arrow."""
    phi, psi = data.draw(composable(nonempty=True))
    others = data.draw(st.lists(arrows(phi.source, phi.target, True), min_size=1, max_size=5))
    stack = FiniteCorrespondence(np.array([a.matrix for a in [phi, *others]]))
    composed = compose(stack, psi)
    products = tensor(stack, psi)
    for variant in ("singleton", "downset"):
        lifted = vietoris_map(stack, variant)
        for k in range(len(stack.matrix)):
            assert lifted[k] == vietoris_map(stack[k], variant)
    for k in range(len(stack.matrix)):
        assert composed[k] == compose(stack[k], psi)
        assert products[k] == tensor(stack[k], psi)


# Inner lengths at and around the product's block edges, and the longest
# inner axis a campaign takes (the monad laws' 2^15 - 1).
EDGE_LENGTHS = [1, _INNER_BLOCK - 1, _INNER_BLOCK, _INNER_BLOCK + 1, 32_767]


@st.composite
def boolean_operands(draw):
    """Two broadcastable boolean stacks: (..., m, k) and (..., k, n).

    Stack axes of size 1 and missing leading axes broadcast; the inner length
    k sits at and around the product's block edges or is small. Rows and
    columns may be all False (empty fibers) or all True.
    """
    stack = draw(st.lists(st.integers(1, 3), max_size=2))
    a_stack = [draw(st.sampled_from([1, d])) for d in stack]
    b_stack = [draw(st.sampled_from([1, d])) for d in stack]
    b_stack = b_stack[draw(st.integers(0, len(b_stack))) :]  # drop leading axes
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.sampled_from(EDGE_LENGTHS) | st.integers(1, 9))
    # At density k^-1/2 an entry of the product has about one witness.
    density = draw(st.sampled_from([0.0, k**-0.5, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((*a_stack, m, k)) < density
    b = rng.random((*b_stack, k, n)) < density
    if draw(st.booleans()):
        # Keep one inner index, at a block edge or anywhere, as the only
        # possible witness, so a block the product skips shows.
        edges = [i for i in (0, _INNER_BLOCK - 1, _INNER_BLOCK, k - 1) if i < k]
        keep = np.arange(k) == draw(st.sampled_from(edges) | st.integers(0, k - 1))
        a &= keep
        b &= keep[:, None]
    if draw(st.booleans()):
        a[..., 0, :] = False  # an empty fiber on each side
        b[..., 0, :] = False
    return a, b


@settings(max_examples=150, deadline=None)
@given(boolean_operands())
def test_float32_product_is_the_boolean_product(operands):
    a, b = operands
    got = _bool_matmul(a, b)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, np.matmul(a, b))


@pytest.mark.parametrize("k", EDGE_LENGTHS)
def test_float32_product_sees_a_lone_witness_at_every_block_edge(k):
    """Row r of `a` holds only inner index edges[r], so a @ a.T is the
    identity exactly when no block skips or clips an edge."""
    edges = {i for lo in range(0, k, _INNER_BLOCK) for i in (lo - 1, lo, lo + 1)}
    edges = sorted(i for i in edges | {k - 1} if 0 <= i < k)
    a = np.arange(k) == np.array(edges)[:, None]
    np.testing.assert_array_equal(_bool_matmul(a, a.T), np.eye(len(edges), dtype=bool))


SEEDS = st.integers(0, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SIZES, SIZES), min_size=1, max_size=5), st.integers(1, 5), SEEDS)
def test_draw_is_random_correspondence_arrow_after_arrow(homs, count, seed):
    """Row t of the draw holds the arrows that drawing trial t's arrows one
    after another would give, and the stream goes on where it would."""
    drawn, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    stacks = _draw(drawn, homs, count)
    for t in range(count):
        for stack, (source, target) in zip(stacks, homs):
            assert stack[t] == random_correspondence(oracle, source, target)
    assert drawn.integers(0, 2**32) == oracle.integers(0, 2**32)


@pytest.mark.parametrize("max_size", [3, 4])
@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_tensor_trials_draw_what_scalar_draws_gave(max_size, seed):
    """A tensor trial's six sizes in one call, then its five arrows in one
    draw: the stream of six scalar size draws and five arrow-by-arrow ones."""
    drawn, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        sizes = drawn.integers(1, max_size + 1, 6).tolist()
        assert sizes == [int(oracle.integers(1, max_size + 1)) for _ in range(6)]
        a1, b1, c1, a2, b2, c2 = sizes
        homs = [(a1, b1), (b1, c1), (a2, b2), (b2, c2), (a2, a2)]
        for stack, (source, target) in zip(_draw(drawn, homs, 1), homs):
            assert stack[0] == random_correspondence(oracle, source, target)
    assert drawn.integers(0, 2**32) == oracle.integers(0, 2**32)


def _everything(*stacks: FiniteCorrespondence) -> np.ndarray:
    """A law that fails on every tuple, so `_failures` lists them all."""
    return np.ones(np.broadcast_shapes(*(s.matrix.shape[:-2] for s in stacks)), dtype=bool)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize(
    "sizes, nonempty",
    [
        ([(3, 1)], False),
        ([(1, 2), (2, 1), (1, 1)], False),
        ([(2, 2), (2, 1)], True),
        ([(1, 2), (2, 2), (2, 1), (1, 2)], False),
        ([(2, 2), (2, 2), (2, 1)], False),
    ],
)
def test_sweep_visits_every_tuple_once_first_arrow_slowest(chunk, sizes, nonempty, monkeypatch):
    monkeypatch.setattr(catlaws, "_CHUNK_PAIRS", chunk)
    inner = [_all_correspondences(s, t, nonempty) for s, t in sizes[1:]]
    tuples_per_outer = int(np.prod([len(s.matrix) for s in inner]))
    visited = []
    for arrows, bad in _sweep(_everything, *sizes[0], *inner, nonempty=nonempty):
        assert bad.size <= max(chunk, tuples_per_outer)
        visited += [tuple(a.fibers for a in arrows) for arrows in _failures(arrows, bad)]
    lo = 1 if nonempty else 0
    every_arrow = [
        list(itertools.product(range(lo, 1 << t), repeat=s)) for s, t in sizes
    ]
    assert visited == list(itertools.product(*every_arrow))
