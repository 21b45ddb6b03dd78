"""Finite-scale checker for the algebra of set-valued maps.

An object is a finite set {0..n-1}, named by its size n. An arrow (a
correspondence) is only its read-only boolean matrix, whose row x is the
fiber of x, as in Rel; its source and target are the sizes of the matrix's
last two axes. So composition is the boolean matrix product

    (psi . phi)[x, z] = any over y of phi[x, y] and psi[y, z],

and the monoidal product is the Kronecker product. Leading matrix axes stack
arrows with the same endpoints; `compose`, `tensor` and `vietoris_map`
broadcast over them. So each law is written once, as a predicate on arrow
stacks, and every campaign feeds it from one of two sources. A sweep
(`_sweep`) checks every tuple of arrows: stack k goes on broadcast axis k,
the first arrow varies slowest, and the outer arrows are built a block of at
most `_CHUNK_PAIRS` tuples at a time. A draw (`_draw`) turns rows of random
fiber codes into aligned stacks. `_tally` totals the blocks of either and
collects a witness of each failing tuple. The tensor trials draw their sizes
too, so `_draw_tensor_trials` zero-pads each trial's arrows to the largest
size, at the low indices so that each object's last element stays last, and
stacks a chunk of trials. Each law's two sides still come from separate
routes. Boolean products are float32 matrix products tested for non-zero
(`_bool_matmul`): with 0/1 entries a sum of non-negative terms is positive
exactly when one term is, whatever the order and rounding.

On finite discrete instances, continuity and measurability are automatic, so
the machine-checkable content is purely algebraic: identity and
associativity laws, the monoidal product with product fibers, and the
hyperspace (nonempty-subsets) construction with singleton unit and union
multiplication. `hyperspace(n)` is the size 2^n - 1 of the hyperspace of
an n-element set.

The hyperspace functor comes in two variants:

* ``singleton``: a correspondence's lift maps a subset C to the one-element
  fiber {phi[C]}, the direct image. The monad laws hold for this form and
  are what `check_monad_laws` verifies.
* ``downset``: the lift maps C to every nonempty subset of phi[C]. Its
  composition law still holds, but lifting the identity yields the
  down-closure rather than the identity, so the unit and associativity laws
  fail as literal correspondence equalities; `downset_divergence_report`
  verifies the former and records the divergence of the latter instead of
  reconciling the two definitions.

Subsets of a base set of size n are indexed 0..2^n-2, index i standing for
the subset whose members are the set bits of i+1. Reports name an arrow by
its `fibers`, the same code for each row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FiniteCorrespondence",
    "hyperspace",
    "identity",
    "compose",
    "tensor",
    "vietoris_map",
    "vietoris_unit",
    "vietoris_multiplication",
    "check_category_axioms",
    "check_tensor_laws",
    "check_functor_laws",
    "check_monad_laws",
    "downset_divergence_report",
]


# Cases (arrow pairs, arrows, trials or families) one chunk of a campaign
# holds. A chunk of 7x7 lifted arrows then takes 0.38 MiB of float32
# products, under the 0.47 MiB tables `check_monad_laws(4)` must hold anyway.
_CHUNK_PAIRS = 2048
# Inner-axis cells per row that `_bool_matmul` casts at once. The monad
# products at base size 4 run 15 rows against 32,767 inner cells: cast whole
# they take 3.75 MiB, in blocks of 1,024 they take 0.12 MiB.
_INNER_BLOCK = 1 << 10
# Associator-table cells (max_size^6 per trial) one chunk of randomized
# tensor trials holds: 32 trials at max_size 4, whose padded products then
# peak at 0.4 MiB, no higher than the exhaustive core. Chunks of 2^18 cells
# ran no faster and doubled that peak.
_CHUNK_CELLS = 1 << 17
# A tensor trial draws six sizes (a1, b1, c1, a2, b2, c2), then five arrows
# phi1: a1 -> b1, psi1: b1 -> c1, phi2: a2 -> b2, psi2: b2 -> c2 and
# rho: a2 -> a2, whose (source, target) sit at these positions.
_TENSOR_HOMS = ((0, 1), (1, 2), (3, 4), (4, 5), (3, 3))
_EMPTY_FIBER = "empty fiber encountered; hyperspace lift needs nonempty images"
# Cells of the largest hyperspace table a campaign builds: the 15 x 32,767
# unit and multiplication tables of `check_monad_laws(4)`.
_MAX_TABLE_CELLS = 15 * 32_767


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for boolean stacks, as float32 products tested for non-zero.

    Exact: the entries are 0/1, so a sum of non-negative terms is positive
    exactly when one term is, in any order and with any rounding. The inner
    axis goes through in blocks of `_INNER_BLOCK`, so no cast operand grows
    past that many cells per row.
    """
    out = np.matmul(a[..., :_INNER_BLOCK], b[..., :_INNER_BLOCK, :], dtype=np.float32) > 0
    for lo in range(_INNER_BLOCK, a.shape[-1], _INNER_BLOCK):
        hi = lo + _INNER_BLOCK
        out |= np.matmul(a[..., lo:hi], b[..., lo:hi, :], dtype=np.float32) > 0
    return out


def _members(codes, width: int) -> np.ndarray:
    """Membership rows of subset codes: [..., y] is bit y of each code."""
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.empty(codes.shape + (width,), dtype=bool)
    for y in range(width):  # one column at a time keeps temporaries small
        rows[..., y] = (codes >> y) & 1
    return rows


def _codes(rows: np.ndarray) -> np.ndarray:
    """Subset code of each membership row (the inverse of `_members`)."""
    codes = np.zeros(rows.shape[:-1], dtype=np.int64)
    for y in range(rows.shape[-1]):  # never casts all of `rows` to int64
        np.add(codes, 1 << y, out=codes, where=rows[..., y])
    return codes


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> np.ndarray:
    """Membership table of the nonempty subsets of {0..n-1}, by index."""
    table = _members(np.arange(1, 1 << n), n)
    table.flags.writeable = False
    return table


def _one_hot(images: np.ndarray) -> np.ndarray:
    """Singleton fibers: row r holds only the index of the subset images[r]
    (nothing, for an empty images[r]). Set by index, so no temporary as wide
    as the hyperspace is built."""
    codes = _codes(images).ravel()
    rows = np.zeros((len(codes), (1 << images.shape[-1]) - 1), dtype=bool)
    hit = np.flatnonzero(codes)
    rows[hit, codes[hit] - 1] = True
    return rows.reshape(images.shape[:-1] + rows.shape[-1:])


def _check_table(cells: int, shape: str) -> None:
    """Refuse, before it is built, a hyperspace table of `shape` with more
    cells than `_MAX_TABLE_CELLS`."""
    if cells > _MAX_TABLE_CELLS:
        raise ValueError(f"a {shape} table is past {_MAX_TABLE_CELLS:,} cells, the largest a "
                         "campaign builds (check_monad_laws(4))")


def _check_code_width(target: int) -> None:
    """Fiber codes are int64, so a target holds at most 63 elements."""
    if not 0 <= target <= 63:
        raise ValueError(f"target size {target} is outside 0..63, the range of int64 fiber codes")


@dataclass(frozen=True, eq=False)
class FiniteCorrespondence:
    """A set-valued map: matrix[x, y] is True when y is in the fiber of x.

    The last two axes of `matrix` are the source and target sizes; leading
    axes, if any, index a stack of arrows with these endpoints. The matrix
    is stored read-only: a boolean array passed in is frozen in place rather
    than copied, since stacks run to megabytes.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=bool)
        if m.ndim < 2 or 0 in m.shape[-2:]:
            raise ValueError(f"matrix shape {m.shape} does not end in two nonempty endpoints")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def source(self) -> int:
        return self.matrix.shape[-2]

    @property
    def target(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def from_fibers(cls, target: int, fibers: Sequence[int]) -> FiniteCorrespondence:
        """One arrow from its fiber codes (bit y set when y is in the fiber),
        one per source element."""
        _check_code_width(target)
        if any(not 0 <= f < 1 << target for f in fibers):
            raise ValueError("fiber contains elements outside the target")
        return cls(_members(fibers, target))

    @property
    def fibers(self) -> tuple[int, ...]:
        """Fiber codes of a single arrow, as reports name it."""
        if self.matrix.ndim != 2:
            raise ValueError("a stack of arrows has no single fiber table; index it")
        _check_code_width(self.target)
        return tuple(_codes(self.matrix).tolist())

    def __getitem__(self, key) -> FiniteCorrespondence:
        """Index the stack axes: one arrow, or a sub-stack."""
        return FiniteCorrespondence(self.matrix[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteCorrespondence):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


def identity(n: int) -> FiniteCorrespondence:
    return FiniteCorrespondence(np.eye(n, dtype=bool))


def compose(phi: FiniteCorrespondence, psi: FiniteCorrespondence) -> FiniteCorrespondence:
    """psi after phi: the boolean matrix product, broadcast over stack axes."""
    if phi.target != psi.source:
        raise ValueError(
            f"endpoint mismatch: target size {phi.target} vs source size {psi.source}"
        )
    return FiniteCorrespondence(_bool_matmul(phi.matrix, psi.matrix))


def tensor(
    phi: FiniteCorrespondence, psi: FiniteCorrespondence
) -> FiniteCorrespondence:
    """Product correspondence on product sets, with product fibers.

    For single arrows this is np.kron of the matrices; stack axes broadcast
    as in `compose`. Pairs (x, y) are indexed x * |Y| + y, so re-bracketing
    a triple product is the identity on indices and the associator is strict.
    Rows of phi, each column repeated |psi target| times, meet tiled rows of psi.
    """
    left = np.repeat(phi.matrix, psi.target, axis=-1)[..., :, None, :]
    blocks = left & np.tile(psi.matrix, phi.target)[..., None, :, :]
    return FiniteCorrespondence(blocks.reshape(blocks.shape[:-3] + (-1, blocks.shape[-1])))


# ---------------------------------------------------------------------------
# Hyperspace of nonempty subsets
# ---------------------------------------------------------------------------


def hyperspace(n: int) -> int:
    """Size of the set of nonempty subsets of {0..n-1}: element i is the
    subset with code i+1."""
    return (1 << n) - 1


def vietoris_map(
    phi: FiniteCorrespondence, variant: str = "singleton"
) -> FiniteCorrespondence:
    """Lift a correspondence to the hyperspaces of its endpoints.

    ``singleton``: subset C maps to the one-element fiber {phi[C]}.
    ``downset``:   subset C maps to every nonempty subset of phi[C].

    Requires every fiber of phi nonempty (images must stay nonempty), and
    a lift of at most `_MAX_TABLE_CELLS` cells.
    """
    s, t, stack = phi.source, phi.target, phi.matrix.shape[:-2]
    shape = " x ".join([*map(str, stack), f"(2^{s} - 1)", f"(2^{t} - 1)"])
    _check_table(math.prod(stack) * hyperspace(s) * hyperspace(t), shape)
    if not phi.matrix.any(axis=-1).all():
        raise ValueError(_EMPTY_FIBER)
    if variant not in ("singleton", "downset"):
        raise ValueError(f"unknown variant {variant!r}")
    images = _bool_matmul(_subsets(phi.source), phi.matrix)  # direct images
    if variant == "singleton":
        lift = _one_hot(images)
    else:
        # A subset lies inside the image when none of its members lies outside.
        lift = ~_bool_matmul(~images, _subsets(phi.target).T)
    return FiniteCorrespondence(lift)


def vietoris_unit(n: int) -> FiniteCorrespondence:
    """x maps to the singleton fiber containing the subset {x}."""
    _check_table(n * hyperspace(n), f"{n} x (2^{n} - 1)")
    return FiniteCorrespondence(_one_hot(np.eye(n, dtype=bool)))


def vietoris_multiplication(n: int) -> FiniteCorrespondence:
    """A family of subsets maps to the singleton fiber holding its union.

    The source is the hyperspace of the hyperspace, so this table has
    2^(2^n - 1) - 1 rows, past `_MAX_TABLE_CELLS` from n = 5 on. The rows
    are built `_CHUNK_PAIRS` families at a time, so no membership table of
    the whole double hyperspace is held.
    """
    kx = hyperspace(n)
    # 2^19 rows are past the cap alone, so no row count above 2^63 is built.
    _check_table(hyperspace(min(kx, 63)) * kx, f"(2^{kx} - 1) x {kx}")
    mu = np.empty((hyperspace(kx), kx), dtype=bool)
    for lo in range(0, len(mu), _CHUNK_PAIRS):
        families = _members(np.arange(lo, min(lo + _CHUNK_PAIRS, len(mu))) + 1, kx)
        mu[lo : lo + len(families)] = _one_hot(families @ _subsets(n))
    return FiniteCorrespondence(mu)


# ---------------------------------------------------------------------------
# Laws, their two sources of arrows, and the campaigns
# ---------------------------------------------------------------------------


def _arrow_count(source: int, target: int, nonempty: bool = False) -> int:
    return ((1 << target) - nonempty) ** source


def _all_correspondences(
    source: int, target: int, nonempty: bool = False, positions: range | None = None
) -> FiniteCorrespondence:
    """Every arrow, or those at `positions`, as one stack.

    Arrows are enumerated with the first fiber varying slowest.
    """
    rows = _subsets(target)
    if not nonempty:
        rows = np.vstack([np.zeros((1, target), dtype=bool), rows])
    shape = (len(rows),) * source
    if positions is None:
        positions = range(_arrow_count(source, target, nonempty))
    digits = np.unravel_index(np.arange(positions.start, positions.stop), shape)
    return FiniteCorrespondence(rows[np.stack(digits, axis=-1)])


def _differs(lhs: FiniteCorrespondence, rhs: FiniteCorrespondence, axis=(-2, -1)):
    """Per stacked arrow (or per row, with axis=-1): do the fiber tables differ?"""
    return (lhs.matrix != rhs.matrix).any(axis=axis)


def _unit_laws(phi):
    """id . phi = phi = phi . id, per broadcast index (True where one fails)."""
    left = compose(identity(phi.source), phi)
    return _differs(left, phi) | _differs(compose(phi, identity(phi.target)), phi)


def _associativity(phi, psi, theta):
    """theta . (psi . phi) = (theta . psi) . phi, per broadcast index."""
    return _differs(compose(compose(phi, psi), theta), compose(phi, compose(psi, theta)))


def _bifunctoriality(phi1, psi1, phi2, psi2):
    """(psi1 . phi1) x (psi2 . phi2) = (psi1 x psi2) . (phi1 x phi2), per broadcast index."""
    lhs = tensor(compose(phi1, psi1), compose(phi2, psi2))
    return _differs(lhs, compose(tensor(phi1, phi2), tensor(psi1, psi2)))


def _sweep(law, source: int, target: int, *inner: FiniteCorrespondence, nonempty=False):
    """Check `law` on every tuple of an outer arrow source -> target (fibers
    nonempty if asked) and one arrow of each `inner` stack.

    Stack k goes on broadcast axis k, so the first arrow varies slowest. The
    outer arrows are built one block at a time, each block meeting every
    inner tuple in at most `_CHUNK_PAIRS` tuples (or one outer arrow at
    least). Yields each block's stacks, as the law saw them, and its verdict.
    """
    # Stack k takes depth-1-k trailing unit axes; broadcasting adds the rest.
    depth = 1 + len(inner)
    inner = [s[(slice(None),) + (None,) * (depth - 1 - k)] for k, s in enumerate(inner, 1)]
    step = max(1, _CHUNK_PAIRS // math.prod(len(s.matrix) for s in inner))
    every = range(_arrow_count(source, target, nonempty))
    for lo in range(0, len(every), step):
        outer = _all_correspondences(source, target, nonempty, every[lo : lo + step])
        arrows = [outer[(slice(None),) + (None,) * (depth - 1)], *inner]
        yield arrows, law(*arrows)


def _composition_sweep(a: int, b: int, c: int, variant: str):
    """`_sweep` of T(psi . phi) = T(psi) . T(phi) for the lift `variant` over
    every nonempty-fiber phi: a -> b and psi: b -> c. Each psi and each a -> c
    arrow is lifted once: T(psi . phi) is read at the composite's position."""
    psis = _all_correspondences(b, c, nonempty=True)
    t_psi = vietoris_map(psis, variant)
    lifts = vietoris_map(_all_correspondences(a, c, nonempty=True), variant).matrix
    place = hyperspace(c) ** np.arange(a - 1, -1, -1)  # first fiber slowest

    def law(phi, psi):
        codes = _codes(compose(phi, psi).matrix)
        if not codes.all():  # a code of 0 must not wrap to position -1
            raise ValueError(_EMPTY_FIBER)
        lhs = FiniteCorrespondence(lifts[(codes - 1) @ place])
        return _differs(lhs, compose(vietoris_map(phi, variant), t_psi))

    return _sweep(law, a, b, psis, nonempty=True)


def _draw(rng: np.random.Generator, homs, count: int) -> list[FiniteCorrespondence]:
    """`count` random arrows per hom-set (source, target), as stacks aligned
    on axis 0. One `rng.integers(0, highs, size=(count, fibers))` call draws
    every fiber code, row t holding trial t's arrows in `homs` order: the
    codes that one draw per fiber, in that order, would give."""
    highs = np.repeat([1 << t for _, t in homs], [s for s, _ in homs])
    codes = rng.integers(0, highs, size=(count, len(highs)))
    rows = _members(codes, max(t for _, t in homs))
    stops = itertools.accumulate(s for s, _ in homs)
    return [
        FiniteCorrespondence(rows[:, stop - s : stop, :t]) for (s, t), stop in zip(homs, stops)
    ]


def _draw_tensor_trials(rng: np.random.Generator, max_size: int, count: int):
    """`count` tensor trials, drawn one after another: a trial's six sizes in
    one `rng.integers` call, then its arrows' fiber codes in another, the
    codes `_draw` would give for the trial's `_TENSOR_HOMS`.

    Returns the (count, 6) sizes and the five arrows as (count, max_size,
    max_size) stacks, zero-padded at the low indices: source element x of an
    s -> t arrow is row max_size - s + x, target element y is column
    max_size - t + y. So each endpoint's last element stays last.
    """
    sizes, codes = [], []
    for _ in range(count):
        szs = rng.integers(1, max_size + 1, 6).tolist()
        highs = [1 << szs[j] for i, j in _TENSOR_HOMS for _ in range(szs[i])]
        codes.append(rng.integers(0, np.array(highs)))
        sizes.append(szs)
    sizes = np.array(sizes)
    sources = sizes[:, [i for i, _ in _TENSOR_HOMS]].ravel()
    targets = sizes[:, [j for _, j in _TENSOR_HOMS]].ravel()
    arrow = np.repeat(np.arange(len(sources)), sources)  # each code's arrow
    first = np.cumsum(sources) - sources  # each arrow's first code
    rows = np.arange(len(arrow)) - first[arrow] + max_size - sources[arrow]
    padded = np.zeros((len(sources), max_size), dtype=np.int64)
    padded[arrow, rows] = np.concatenate(codes) << max_size - targets[arrow]
    stacks = _members(padded.reshape(count, len(_TENSOR_HOMS), max_size), max_size)
    return sizes, [FiniteCorrespondence(stacks[:, k]) for k in range(len(_TENSOR_HOMS))]


def _padded_identity(real: np.ndarray) -> FiniteCorrespondence:
    """Per row of `real`, the identity on the elements it marks: a padded
    object's identity, zero on its padding."""
    return FiniteCorrespondence(np.eye(real.shape[-1], dtype=bool) & real[..., None])


def _unpad(stack: FiniteCorrespondence, t: int, source: int, target: int):
    """Arrow t of a stack padded at the low indices, at its own size."""
    return FiniteCorrespondence(stack.matrix[t, -source:, -target:])


def _failures(arrows: Sequence[FiniteCorrespondence], bad: np.ndarray):
    """The arrow tuples a law failed on, in C order of its verdict `bad`:
    each stack, broadcast to the verdict's shape, names its arrow there."""
    full = [np.broadcast_to(a.matrix, bad.shape + a.matrix.shape[-2:]) for a in arrows]
    for idx in zip(*np.nonzero(bad)):
        yield [FiniteCorrespondence(m[idx]) for m in full]


def _witness(law: str, *arrows: FiniteCorrespondence) -> dict:
    return {"law": law, "fibers": [list(a.fibers) for a in arrows]}


def _tally(verdicts, witness) -> tuple[int, list]:
    """The cases a campaign's (arrows, bad) blocks checked, and
    witness(*tuple) of each tuple that failed, in the order of `_failures`."""
    checked, found = 0, []
    for arrows, bad in verdicts:
        checked += bad.size
        found.extend(witness(*failed) for failed in _failures(arrows, bad))
    return checked, found


def check_category_axioms(sizes: Sequence[int], trials: int, seed: int) -> dict:
    """Verify associativity and both unit laws on a 4-object chain.

    `sizes` gives the chain X -> Y -> Z -> W, each in 1..63 so that every
    fiber code fits an int64. The unit laws are checked on every arrow
    X -> Y, so that count may not pass 100,000. Associativity is exhaustive
    when the triple count is at most a million (all sizes <= 2 always
    qualifies); otherwise `trials` random triples are drawn.
    """
    if len(sizes) != 4:
        raise ValueError("need four object sizes for an associativity chain")
    if any(not 1 <= s <= 63 for s in sizes):
        raise ValueError(f"sizes must each be in 1..63, got {list(sizes)}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    homs = list(zip(sizes, sizes[1:]))
    units = _arrow_count(*homs[0])
    if units > 100_000:
        raise ValueError(f"{units} arrows X0 -> X1 are too many to sweep")
    rng = np.random.default_rng(seed)
    _, unit_failures = _tally(
        _sweep(_unit_laws, *homs[0]), lambda phi: {"law": "unit", "fibers": list(phi.fibers)}
    )

    # Associativity on the full chain: every triple, or chunks of drawn ones.
    exhaustive = math.prod(_arrow_count(*h) for h in homs) <= 1_000_000
    if exhaustive:
        inner = (_all_correspondences(*h) for h in homs[1:])
        verdicts = _sweep(_associativity, *homs[0], *inner)
    else:
        chunks = range(0, trials, _CHUNK_PAIRS)
        draws = (_draw(rng, homs, min(_CHUNK_PAIRS, trials - lo)) for lo in chunks)
        verdicts = ((arrows, _associativity(*arrows)) for arrows in draws)
    assoc_trials, assoc_failures = _tally(verdicts, functools.partial(_witness, "associativity"))

    return {
        "law": "category_axioms",
        "instance_sizes": list(sizes),
        "exhaustive": exhaustive,
        "trials": {"unit": units, "associativity": assoc_trials},
        "counterexamples": unit_failures + assoc_failures,
    }


def check_tensor_laws(max_size: int, trials: int, seed: int) -> dict:
    """Monoidal structure: bifunctoriality, unitors, strict associator.

    Bifunctoriality is exhaustive over 2-element objects and randomized at
    sizes up to `max_size`, at most 8: the associator's fiber table has
    max_size^3 x max_size^3 cells. Unitor and associator identities are
    exact index bookkeeping and are checked on random instances.
    """
    if not 1 <= max_size <= 8:
        raise ValueError(f"max_size must be in 1..8, got {max_size}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)

    # Exhaustive core at 2-element objects: (phi1, psi1, phi2, psi2).
    twos = _all_correspondences(2, 2)
    exhaustive_count, counterexamples = _tally(
        _sweep(_bifunctoriality, 2, 2, twos, twos, twos),
        functools.partial(_witness, "bifunctoriality"),
    )

    # Randomized campaign at sizes up to max_size, a chunk of trials at a
    # time, padded to max_size (`_draw_tensor_trials`). Zero padding commutes
    # with the boolean and Kronecker products, up to a relabelling that both
    # sides of a law share, so each law compares padded stacks exactly. Only
    # id (x) id = id needs the padding masks: a padded identity is not the
    # identity on the padded set.
    id_unit = identity(1)
    per_chunk = min(_CHUNK_PAIRS, max(1, _CHUNK_CELLS // max_size**6))
    for lo in range(0, trials, per_chunk):
        count = min(per_chunk, trials - lo)
        sizes, arrows = _draw_tensor_trials(rng, max_size, count)
        phi1, psi1, phi2, psi2, rho = arrows
        real1, real2 = (np.arange(max_size) >= max_size - sizes[:, [k]] for k in (0, 3))
        on_product = (real1[:, :, None] & real2[:, None, :]).reshape(count, -1)
        prod_id = tensor(_padded_identity(real1), _padded_identity(real2))
        verdicts = np.column_stack(
            [
                _bifunctoriality(phi1, psi1, phi2, psi2),
                _differs(prod_id, _padded_identity(on_product)),
                # Tensoring with the unit is the identity on fiber tables.
                _differs(tensor(phi1, id_unit), phi1) | _differs(tensor(id_unit, phi1), phi1),
                # Strict associator: re-bracketing leaves the fiber table unchanged.
                _differs(tensor(tensor(phi1, rho), phi2), tensor(phi1, tensor(rho, phi2))),
            ]
        )
        for t, law in zip(*np.nonzero(verdicts)):  # trial by trial, laws in order
            szs = sizes[t].tolist()
            unpadded = [_unpad(a, t, szs[i], szs[j]) for a, (i, j) in zip(arrows, _TENSOR_HOMS)]
            if law == 0:
                counterexamples.append(_witness("bifunctoriality", *unpadded[:4]))
            elif law == 1:
                counterexamples.append({"law": "tensor_identity", "sizes": [szs[0], szs[3]]})
            elif law == 2:
                counterexamples.append({"law": "unitor", "fibers": list(unpadded[0].fibers)})
            else:
                counterexamples.append({"law": "associator", "sizes": szs})

    return {
        "law": "tensor_laws",
        "instance_sizes": {"exhaustive": 2, "randomized_max": max_size},
        "trials": {"exhaustive": exhaustive_count, "randomized": trials},
        "counterexamples": counterexamples,
    }


def check_functor_laws(max_size: int = 3) -> dict:
    """Hyperspace lift (singleton variant) preserves identities and composition.

    Exhaustive over all nonempty-fiber correspondences between sets of sizes
    up to `max_size`, at most 3: at 4 the (4, 4, 4) sweep alone would be
    15^4 * 15^4, about 2.6e9 pairs.
    """
    if not 1 <= max_size <= 3:
        raise ValueError(f"max_size must be in 1..3, got {max_size}")
    identity_failures = [
        {"law": "T(id)=id", "size": n}
        for n in range(1, max_size + 1)
        if vietoris_map(identity(n)) != identity(hyperspace(n))
    ]
    sizes = itertools.product(range(1, max_size + 1), repeat=3)
    sweeps = (_composition_sweep(a, b, c, "singleton") for a, b, c in sizes)
    comp_checks, comp_failures = _tally(
        itertools.chain.from_iterable(sweeps),
        lambda phi, psi: {
            **_witness("T(psi.phi)=T(psi).T(phi)", phi, psi),
            "sizes": [phi.source, phi.target, psi.target],
        },
    )
    return {
        "law": "functor_laws",
        "instance_sizes": list(range(1, max_size + 1)),
        "trials": {"identity": max_size, "composition": comp_checks},
        "counterexamples": identity_failures + comp_failures,
    }


def check_monad_laws(base_size: int) -> dict:
    """Unit and associativity laws of the hyperspace monad, singleton variant.

    Unit laws are verified elementwise over the hyperspace by composing the
    actual unit/multiplication tables. Associativity compares the two
    composites mu . T(mu) and mu . mu_{T} on families of double-hyperspace
    elements: every singleton family (elementwise over the double
    hyperspace), every family when the triple hyperspace is enumerable
    (base size <= 2), and every two-element family at base size 3.
    """
    if not 1 <= base_size <= 4:
        raise ValueError("base_size must be in 1..4")
    kx = hyperspace(base_size)
    mu = vietoris_multiplication(base_size)
    id_k = identity(kx)
    counterexamples: list[dict] = []

    # Left unit: mu . T(eta) = id on the hyperspace.
    if compose(vietoris_map(vietoris_unit(base_size)), mu) != id_k:
        counterexamples.append({"law": "unit_left"})
    # Right unit: mu . eta_{T(X)} = id on the hyperspace.
    if compose(vietoris_unit(kx), mu) != id_k:
        counterexamples.append({"law": "unit_right"})

    # Associativity on families of double-hyperspace elements: family f has
    # the next sizes[f] member indices of `flat`.
    k = hyperspace(kx)
    if base_size <= 2:
        family_of, flat = np.nonzero(_subsets(k))  # every family, by index
        sizes = np.bincount(family_of)
    else:
        # int32 keeps the two 32,767-entry arrays at base size 4 under the
        # peak the unit laws reach.
        flat, sizes = np.arange(k, dtype=np.int32), np.ones(k, dtype=np.int32)
        if base_size == 3:  # every pair, then the whole double hyperspace
            pairs = np.column_stack(np.triu_indices(k, 1)).ravel()
            flat = np.concatenate([flat, pairs, np.arange(k)])
            sizes = np.concatenate([sizes, np.full(len(pairs) // 2, 2), [k]])
    assoc_checks = offset = 0
    for lo in range(0, len(sizes), _CHUNK_PAIRS):
        counts = sizes[lo : lo + _CHUNK_PAIRS]
        at = np.cumsum(counts) - counts  # each family's start within the chunk
        members = flat[offset : offset + counts.sum()]
        offset += len(members)
        assoc_checks += len(at)
        # T(mu) sends a family to the set of its members' unions; mu unions that.
        lhs = mu.matrix[_codes(np.logical_or.reduceat(mu.matrix[members], at)) - 1]
        # mu at the hyperspace object merges the family first; mu finishes.
        rhs = mu.matrix[_codes(np.logical_or.reduceat(_members(members + 1, kx), at)) - 1]
        for f in np.flatnonzero((lhs != rhs).any(axis=1)):
            family = members[at[f] : at[f] + counts[f]].tolist()
            counterexamples.append({"law": "associativity", "family": family})

    return {
        "law": "monad_laws",
        "variant": "singleton",
        "instance_sizes": [base_size],
        "trials": {
            "unit_left": kx,
            "unit_right": kx,
            "associativity": assoc_checks,
        },
        "counterexamples": counterexamples,
    }


def downset_divergence_report(base_size: int) -> dict:
    """The down-set lift, taken literally: what holds and what diverges.

    Composition still factors (T(psi.phi) = T(psi).T(phi)) and the right
    unit law holds; lifting the identity yields the down-closure rather than
    the identity, and the left unit/associativity composites inherit that
    gap. This report verifies the former and counts witnesses of the latter
    instead of forcing them green.
    """
    if not 1 <= base_size <= 3:
        raise ValueError("base_size must be in 1..3 for the down-set variant")
    kx = hyperspace(base_size)
    id_k = identity(kx)
    mu = vietoris_multiplication(base_size)
    eta = vietoris_unit(base_size)

    # Composition law, exhaustive over nonempty-fiber arrows X -> X.
    sweep = _composition_sweep(base_size, base_size, base_size, "downset")
    comp_checks, comp_failures = _tally(sweep, lambda *pair: None)  # counted only

    t_id = vietoris_map(identity(base_size), variant="downset")
    left_unit = compose(vietoris_map(eta, variant="downset"), mu)
    right_unit = compose(vietoris_unit(kx), mu)

    return {
        "law": "downset_variant",
        "instance_sizes": [base_size],
        "composition_checks": comp_checks,
        "composition_failures": len(comp_failures),
        "identity_lift_divergences": int(_differs(t_id, id_k, axis=-1).sum()),
        "left_unit_divergences": int(_differs(left_unit, id_k, axis=-1).sum()),
        "right_unit_holds": right_unit == id_k,
    }
