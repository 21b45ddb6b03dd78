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
    FiniteCorrespondence,
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
