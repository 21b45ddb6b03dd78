"""The relation-matrix arrows against the bitmask implementation they replaced.

The functions prefixed `bitmask_` are the earlier bit-loop forms of compose,
tensor and the hyperspace constructions, kept here as an oracle: they build
every fiber as an integer code (bit y set when y is in the fiber), one
element at a time. Hyperspace element i is the subset with code i + 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp.catlaws import (
    _INNER_BLOCK,
    FiniteCorrespondence,
    _bool_matmul,
    FinSet,
    compose,
    hyperspace,
    tensor,
    vietoris_map,
    vietoris_multiplication,
    vietoris_unit,
)


def _image(phi: FiniteCorrespondence, subset_mask: int) -> int:
    out = 0
    for x in range(phi.source.size):
        if (subset_mask >> x) & 1:
            out |= phi.fibers[x]
    return out


def bitmask_compose(phi, psi):
    return FiniteCorrespondence.from_fibers(
        phi.source, psi.target, tuple(_image(psi, f) for f in phi.fibers)
    )


def bitmask_tensor(phi, psi):
    src = FinSet(
        f"({phi.source.label}*{psi.source.label})", phi.source.size * psi.source.size
    )
    tgt = FinSet(
        f"({phi.target.label}*{psi.target.label})", phi.target.size * psi.target.size
    )
    n2, m2 = psi.source.size, psi.target.size
    fibers = []
    for idx in range(src.size):
        x, y = divmod(idx, n2)
        fx, fy = phi.fibers[x], psi.fibers[y]
        mask = 0
        for u in range(phi.target.size):
            if (fx >> u) & 1:
                for v in range(m2):
                    if (fy >> v) & 1:
                        mask |= 1 << (u * m2 + v)
        fibers.append(mask)
    return FiniteCorrespondence.from_fibers(src, tgt, tuple(fibers))


def _nonempty_submasks(mask):
    s = mask
    while s:
        yield s
        s = (s - 1) & mask


def bitmask_vietoris_map(phi, variant="singleton"):
    kx, ky = hyperspace(phi.source), hyperspace(phi.target)
    fibers = []
    for idx in range(kx.size):
        img = _image(phi, idx + 1)
        if variant == "singleton":
            fibers.append(1 << (img - 1))
        else:
            mask = 0
            for s in _nonempty_submasks(img):
                mask |= 1 << (s - 1)
            fibers.append(mask)
    return FiniteCorrespondence.from_fibers(kx, ky, tuple(fibers))


def bitmask_vietoris_unit(x):
    return FiniteCorrespondence.from_fibers(
        x, hyperspace(x), tuple(1 << ((1 << i) - 1) for i in range(x.size))
    )


def bitmask_vietoris_multiplication(x):
    kx = hyperspace(x)
    kkx = hyperspace(kx)
    fibers = []
    for idx in range(kkx.size):
        fam = idx + 1
        union = 0
        for i in range(kx.size):
            if (fam >> i) & 1:
                union |= i + 1
        fibers.append(1 << (union - 1))
    return FiniteCorrespondence.from_fibers(kkx, kx, tuple(fibers))


SIZES = st.integers(1, 4)


def arrows(source: FinSet, target: FinSet, nonempty: bool = False):
    codes = st.integers(1 if nonempty else 0, (1 << target.size) - 1)
    return st.lists(codes, min_size=source.size, max_size=source.size).map(
        lambda fibers: FiniteCorrespondence.from_fibers(source, target, tuple(fibers))
    )


@st.composite
def composable(draw, nonempty=False):
    x, y, z = (FinSet(label, draw(SIZES)) for label in "XYZ")
    return draw(arrows(x, y, nonempty)), draw(arrows(y, z, nonempty))


@st.composite
def any_arrow(draw, nonempty=False):
    return draw(arrows(FinSet("X", draw(SIZES)), FinSet("Y", draw(SIZES)), nonempty))


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
    x = FinSet("X", n)
    assert vietoris_unit(x) == bitmask_vietoris_unit(x)
    assert vietoris_multiplication(x) == bitmask_vietoris_multiplication(x)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacks_match_one_arrow_at_a_time(data):
    """The campaigns lean on broadcasting: a stack acts arrow by arrow."""
    phi, psi = data.draw(composable(nonempty=True))
    others = data.draw(st.lists(arrows(phi.source, phi.target, True), min_size=1, max_size=5))
    stack = FiniteCorrespondence(
        phi.source, phi.target, np.array([a.matrix for a in [phi, *others]])
    )
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
