"""Finite-scale checker for the algebra of set-valued maps.

Objects are finite sets {0..size-1}; arrows are correspondences (one target
subset per source element, stored as bitmasks), composed by unioning fibers:

    (psi . phi)(x) = union over y in phi(x) of psi(y).

On finite discrete instances, continuity and measurability are automatic, so
the machine-checkable content is purely algebraic: identity and
associativity laws, the monoidal product with product fibers, and the
hyperspace (nonempty-subsets) construction with singleton unit and union
multiplication.

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
the nonempty bitmask i+1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FinSet",
    "FiniteCorrespondence",
    "VietorisObject",
    "identity",
    "compose",
    "tensor",
    "unit_object",
    "vietoris_map",
    "vietoris_unit",
    "vietoris_multiplication",
    "check_category_axioms",
    "check_tensor_laws",
    "check_functor_laws",
    "check_monad_laws",
    "downset_divergence_report",
    "random_correspondence",
]


@dataclass(frozen=True)
class FinSet:
    """A finite set with elements 0..size-1."""

    label: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")


@dataclass(frozen=True)
class FiniteCorrespondence:
    """A set-valued map: fibers[x] is the bitmask of targets of x."""

    source: FinSet
    target: FinSet
    fibers: tuple[int, ...]

    def __post_init__(self):
        if len(self.fibers) != self.source.size:
            raise ValueError("one fiber per source element required")
        full = (1 << self.target.size) - 1
        for f in self.fibers:
            if f < 0 or f & ~full:
                raise ValueError("fiber contains elements outside the target")

    def image(self, subset_mask: int) -> int:
        """Direct image of a source subset: the union of its fibers."""
        out = 0
        for x in range(self.source.size):
            if (subset_mask >> x) & 1:
                out |= self.fibers[x]
        return out

    def has_empty_fiber(self) -> bool:
        return any(f == 0 for f in self.fibers)


def identity(x: FinSet) -> FiniteCorrespondence:
    return FiniteCorrespondence(x, x, tuple(1 << i for i in range(x.size)))


def compose(phi: FiniteCorrespondence, psi: FiniteCorrespondence) -> FiniteCorrespondence:
    """psi after phi: fiber(x) = union of psi's fibers over phi(x)."""
    if phi.target != psi.source:
        raise ValueError(
            f"endpoint mismatch: {phi.target} (target) vs {psi.source} (source)"
        )
    return FiniteCorrespondence(
        phi.source, psi.target, tuple(psi.image(f) for f in phi.fibers)
    )


def unit_object() -> FinSet:
    return FinSet("I", 1)


def tensor(
    phi: FiniteCorrespondence, psi: FiniteCorrespondence
) -> FiniteCorrespondence:
    """Product correspondence on product sets, with product fibers.

    Pairs (x, y) are indexed x * |Y| + y, so re-bracketing a triple product
    is the identity on indices and the associator is strict.
    """
    src = FinSet(
        f"({phi.source.label}*{psi.source.label})",
        phi.source.size * psi.source.size,
    )
    tgt = FinSet(
        f"({phi.target.label}*{psi.target.label})",
        phi.target.size * psi.target.size,
    )
    n2 = psi.source.size
    m2 = psi.target.size
    fibers = []
    for idx in range(src.size):
        x, y = divmod(idx, n2)
        fx = phi.fibers[x]
        fy = psi.fibers[y]
        mask = 0
        for u in range(phi.target.size):
            if (fx >> u) & 1:
                for v in range(m2):
                    if (fy >> v) & 1:
                        mask |= 1 << (u * m2 + v)
        fibers.append(mask)
    return FiniteCorrespondence(src, tgt, tuple(fibers))


# ---------------------------------------------------------------------------
# Hyperspace of nonempty subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VietorisObject:
    """All nonempty subsets of a base set, canonically ordered by bitmask.

    Element index i stands for the subset with bitmask i+1, so there are
    2^size - 1 elements.
    """

    base: FinSet

    @property
    def size(self) -> int:
        return (1 << self.base.size) - 1

    def as_finset(self) -> FinSet:
        return FinSet(f"K({self.base.label})", self.size)

    def mask_of(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"subset index {index} out of range")
        return index + 1

    def index_of(self, mask: int) -> int:
        if not 1 <= mask <= self.size:
            raise ValueError(f"mask {mask} is not a nonempty subset of the base")
        return mask - 1


def _nonempty_submasks(mask: int) -> Iterable[int]:
    s = mask
    while s:
        yield s
        s = (s - 1) & mask


def vietoris_map(
    phi: FiniteCorrespondence, variant: str = "singleton"
) -> FiniteCorrespondence:
    """Lift a correspondence to the hyperspaces of its endpoints.

    ``singleton``: subset C maps to the one-element fiber {phi[C]}.
    ``downset``:   subset C maps to every nonempty subset of phi[C].

    Requires every fiber of phi nonempty (images must stay nonempty).
    """
    if phi.has_empty_fiber():
        raise ValueError("empty fiber encountered; hyperspace lift needs nonempty images")
    if variant not in ("singleton", "downset"):
        raise ValueError(f"unknown variant {variant!r}")
    kx = VietorisObject(phi.source)
    ky = VietorisObject(phi.target)
    fibers = []
    for idx in range(kx.size):
        img = phi.image(kx.mask_of(idx))
        if variant == "singleton":
            fibers.append(1 << ky.index_of(img))
        else:
            mask = 0
            for s in _nonempty_submasks(img):
                mask |= 1 << ky.index_of(s)
            fibers.append(mask)
    return FiniteCorrespondence(kx.as_finset(), ky.as_finset(), tuple(fibers))


def vietoris_unit(x: FinSet) -> FiniteCorrespondence:
    """x maps to the singleton fiber containing the subset {x}."""
    kx = VietorisObject(x)
    return FiniteCorrespondence(
        x, kx.as_finset(), tuple(1 << kx.index_of(1 << i) for i in range(x.size))
    )


def vietoris_multiplication(x: FinSet) -> FiniteCorrespondence:
    """A family of subsets maps to the singleton fiber holding its union.

    The source is the hyperspace of the hyperspace, so this table has
    2^(2^n - 1) - 1 rows; callers cap the base size.
    """
    kx = VietorisObject(x)
    kkx = VietorisObject(kx.as_finset())
    fibers = []
    for idx in range(kkx.size):
        fam = kkx.mask_of(idx)  # bitmask over hyperspace indices
        union = 0
        for i in range(kx.size):
            if (fam >> i) & 1:
                union |= kx.mask_of(i)
        fibers.append(1 << kx.index_of(union))
    return FiniteCorrespondence(kkx.as_finset(), kx.as_finset(), tuple(fibers))


# ---------------------------------------------------------------------------
# Law-checking campaigns
# ---------------------------------------------------------------------------


def random_correspondence(
    rng: np.random.Generator,
    source: FinSet,
    target: FinSet,
    nonempty: bool = False,
) -> FiniteCorrespondence:
    full = (1 << target.size) - 1
    lo = 1 if nonempty else 0
    fibers = tuple(int(rng.integers(lo, full + 1)) for _ in range(source.size))
    return FiniteCorrespondence(source, target, fibers)


def _all_correspondences(source: FinSet, target: FinSet, nonempty: bool = False):
    full = (1 << target.size) - 1
    lo = 1 if nonempty else 0
    for fibers in itertools.product(range(lo, full + 1), repeat=source.size):
        yield FiniteCorrespondence(source, target, fibers)


def check_category_axioms(sizes: Sequence[int], trials: int, seed: int) -> dict:
    """Verify associativity and both unit laws on a 4-object chain.

    `sizes` gives the chain X -> Y -> Z -> W. Enumeration is exhaustive when
    the triple count stays below a million (all sizes <= 2 always qualifies);
    otherwise `trials` random triples are drawn. Unit laws are exhaustive
    whenever the arrow count allows, randomized beyond.
    """
    if len(sizes) != 4:
        raise ValueError("need four object sizes for an associativity chain")
    objs = [FinSet(f"X{i}", s) for i, s in enumerate(sizes)]
    rng = np.random.default_rng(seed)
    counterexamples: list[dict] = []

    def arrow_count(a: FinSet, b: FinSet) -> int:
        return (1 << b.size) ** a.size

    # Unit laws on X0 -> X1.
    a, b = objs[0], objs[1]
    unit_trials = 0
    if arrow_count(a, b) <= 100_000:
        arrows = _all_correspondences(a, b)
    else:
        arrows = (random_correspondence(rng, a, b) for _ in range(trials))
    for phi in arrows:
        unit_trials += 1
        if compose(identity(a), phi) != phi or compose(phi, identity(b)) != phi:
            counterexamples.append({"law": "unit", "fibers": list(phi.fibers)})

    # Associativity on the full chain.
    n_triples = (
        arrow_count(objs[0], objs[1])
        * arrow_count(objs[1], objs[2])
        * arrow_count(objs[2], objs[3])
    )
    assoc_trials = 0
    if n_triples <= 1_000_000:
        triple_iter = itertools.product(
            _all_correspondences(objs[0], objs[1]),
            _all_correspondences(objs[1], objs[2]),
            _all_correspondences(objs[2], objs[3]),
        )
        exhaustive = True
    else:
        triple_iter = (
            (
                random_correspondence(rng, objs[0], objs[1]),
                random_correspondence(rng, objs[1], objs[2]),
                random_correspondence(rng, objs[2], objs[3]),
            )
            for _ in range(trials)
        )
        exhaustive = False
    for phi, psi, theta in triple_iter:
        assoc_trials += 1
        lhs = compose(compose(phi, psi), theta)
        rhs = compose(phi, compose(psi, theta))
        if lhs != rhs:
            counterexamples.append(
                {
                    "law": "associativity",
                    "fibers": [list(phi.fibers), list(psi.fibers), list(theta.fibers)],
                }
            )

    return {
        "law": "category_axioms",
        "instance_sizes": list(sizes),
        "exhaustive": exhaustive,
        "trials": {"unit": unit_trials, "associativity": assoc_trials},
        "counterexamples": counterexamples,
    }


def check_tensor_laws(max_size: int, trials: int, seed: int) -> dict:
    """Monoidal structure: bifunctoriality, unitors, strict associator.

    Bifunctoriality is exhaustive over 2-element objects and randomized at
    sizes up to `max_size`; unitor and associator identities are exact index
    bookkeeping and are checked on random instances.
    """
    rng = np.random.default_rng(seed)
    counterexamples: list[dict] = []

    def bifunctorial(phi1, psi1, phi2, psi2) -> bool:
        lhs = tensor(compose(phi1, psi1), compose(phi2, psi2))
        rhs = compose(tensor(phi1, phi2), tensor(psi1, psi2))
        return lhs.fibers == rhs.fibers

    # Exhaustive core at 2-element objects.
    two = [FinSet(f"T{i}", 2) for i in range(3)]
    exhaustive_count = 0
    for phi1 in _all_correspondences(two[0], two[1]):
        for psi1 in _all_correspondences(two[1], two[2]):
            for phi2 in _all_correspondences(two[0], two[1]):
                for psi2 in _all_correspondences(two[1], two[2]):
                    exhaustive_count += 1
                    if not bifunctorial(phi1, psi1, phi2, psi2):
                        counterexamples.append(
                            {
                                "law": "bifunctoriality",
                                "fibers": [
                                    list(phi1.fibers),
                                    list(psi1.fibers),
                                    list(phi2.fibers),
                                    list(psi2.fibers),
                                ],
                            }
                        )

    # Randomized campaign at sizes up to max_size.
    random_count = 0
    unit = unit_object()
    id_unit = identity(unit)
    for _ in range(trials):
        szs = [int(rng.integers(1, max_size + 1)) for _ in range(6)]
        a1, b1, c1 = (FinSet(f"A{i}", szs[i]) for i in range(3))
        a2, b2, c2 = (FinSet(f"B{i}", szs[3 + i]) for i in range(3))
        phi1 = random_correspondence(rng, a1, b1)
        psi1 = random_correspondence(rng, b1, c1)
        phi2 = random_correspondence(rng, a2, b2)
        psi2 = random_correspondence(rng, b2, c2)
        random_count += 1
        if not bifunctorial(phi1, psi1, phi2, psi2):
            counterexamples.append(
                {
                    "law": "bifunctoriality",
                    "fibers": [
                        list(phi1.fibers),
                        list(psi1.fibers),
                        list(phi2.fibers),
                        list(psi2.fibers),
                    ],
                }
            )
        # id (x) id = id on the product.
        prod_id = tensor(identity(a1), identity(a2))
        if prod_id.fibers != identity(
            FinSet(prod_id.source.label, a1.size * a2.size)
        ).fibers:
            counterexamples.append({"law": "tensor_identity", "sizes": [a1.size, a2.size]})
        # Tensoring with the unit is the identity on fiber tables.
        if (
            tensor(phi1, id_unit).fibers != phi1.fibers
            or tensor(id_unit, phi1).fibers != phi1.fibers
        ):
            counterexamples.append({"law": "unitor", "fibers": list(phi1.fibers)})
        # Strict associator: re-bracketing leaves the fiber table unchanged.
        rho = random_correspondence(rng, a2, a2)
        lhs = tensor(tensor(phi1, rho), phi2)
        rhs = tensor(phi1, tensor(rho, phi2))
        if lhs.fibers != rhs.fibers:
            counterexamples.append({"law": "associator", "sizes": szs})

    return {
        "law": "tensor_laws",
        "instance_sizes": {"exhaustive": 2, "randomized_max": max_size},
        "trials": {"exhaustive": exhaustive_count, "randomized": random_count},
        "counterexamples": counterexamples,
    }


def check_functor_laws(max_size: int = 3) -> dict:
    """Hyperspace lift (singleton variant) preserves identities and composition.

    Exhaustive over all nonempty-fiber correspondences between sets of sizes
    up to `max_size`.
    """
    counterexamples: list[dict] = []
    id_checks = 0
    comp_checks = 0
    for n in range(1, max_size + 1):
        x = FinSet(f"X{n}", n)
        id_checks += 1
        if vietoris_map(identity(x)) != identity(VietorisObject(x).as_finset()):
            counterexamples.append({"law": "T(id)=id", "size": n})
    for a in range(1, max_size + 1):
        for b in range(1, max_size + 1):
            for c in range(1, max_size + 1):
                x, y, z = FinSet("X", a), FinSet("Y", b), FinSet("Z", c)
                lifted_psis = [
                    (psi, vietoris_map(psi))
                    for psi in _all_correspondences(y, z, nonempty=True)
                ]
                for phi in _all_correspondences(x, y, nonempty=True):
                    t_phi = vietoris_map(phi)
                    for psi, t_psi in lifted_psis:
                        comp_checks += 1
                        lhs = vietoris_map(compose(phi, psi))
                        rhs = compose(t_phi, t_psi)
                        if lhs.fibers != rhs.fibers:
                            counterexamples.append(
                                {
                                    "law": "T(psi.phi)=T(psi).T(phi)",
                                    "sizes": [a, b, c],
                                    "fibers": [list(phi.fibers), list(psi.fibers)],
                                }
                            )
    return {
        "law": "functor_laws",
        "instance_sizes": list(range(1, max_size + 1)),
        "trials": {"identity": id_checks, "composition": comp_checks},
        "counterexamples": counterexamples,
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
    x = FinSet("X", base_size)
    kx = VietorisObject(x)
    kkx = VietorisObject(kx.as_finset())
    eta = vietoris_unit(x)
    mu = vietoris_multiplication(x)
    id_k = identity(kx.as_finset())
    counterexamples: list[dict] = []

    # Left unit: mu . T(eta) = id on the hyperspace.
    t_eta = vietoris_map(eta)
    if compose(t_eta, mu) != id_k:
        counterexamples.append({"law": "unit_left"})
    # Right unit: mu . eta_{T(X)} = id on the hyperspace.
    eta_t = vietoris_unit(kx.as_finset())
    if compose(eta_t, mu) != id_k:
        counterexamples.append({"law": "unit_right"})

    # Associativity, evaluated lazily on families of double-hyperspace elements.
    def mu_of(kk_index: int) -> int:
        fiber = mu.fibers[kk_index]
        return fiber.bit_length() - 1  # singleton fiber -> its element index

    def lhs_rhs(family: tuple[int, ...]) -> tuple[int, int]:
        # T(mu) sends the family to the singleton {set of per-element unions};
        # mu of that is the union of those unions.
        collapsed = 0
        for kk_index in family:
            collapsed |= 1 << mu_of(kk_index)
        lhs = mu_of(kkx.index_of(collapsed))
        # mu at the hyperspace object merges the family first; mu finishes.
        merged = 0
        for kk_index in family:
            merged |= kkx.mask_of(kk_index)
        rhs = mu_of(kkx.index_of(merged))
        return lhs, rhs

    families: list[tuple[int, ...]] = [(i,) for i in range(kkx.size)]
    if base_size <= 2:
        families = [
            tuple(i for i in range(kkx.size) if (fam >> i) & 1)
            for fam in range(1, (1 << kkx.size))
        ]
    elif base_size == 3:
        families += list(itertools.combinations(range(kkx.size), 2))
        families.append(tuple(range(kkx.size)))
    assoc_checks = 0
    for fam in families:
        assoc_checks += 1
        lhs, rhs = lhs_rhs(fam)
        if lhs != rhs:
            counterexamples.append({"law": "associativity", "family": list(fam)})

    return {
        "law": "monad_laws",
        "variant": "singleton",
        "instance_sizes": [base_size],
        "trials": {
            "unit_left": kx.size,
            "unit_right": kx.size,
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
    x = FinSet("X", base_size)
    kx = VietorisObject(x)
    id_k = identity(kx.as_finset())
    mu = vietoris_multiplication(x)
    eta = vietoris_unit(x)

    # Composition law, exhaustive over nonempty-fiber arrows size<=base_size.
    comp_failures = 0
    comp_checks = 0
    for phi in _all_correspondences(x, x, nonempty=True):
        t_phi = vietoris_map(phi, variant="downset")
        for psi in _all_correspondences(x, x, nonempty=True):
            comp_checks += 1
            lhs = vietoris_map(compose(phi, psi), variant="downset")
            rhs = compose(t_phi, vietoris_map(psi, variant="downset"))
            if lhs.fibers != rhs.fibers:
                comp_failures += 1

    t_id = vietoris_map(identity(x), variant="downset")
    id_divergences = sum(
        1 for i in range(kx.size) if t_id.fibers[i] != id_k.fibers[i]
    )

    left_unit = compose(vietoris_map(eta, variant="downset"), mu)
    left_divergences = sum(
        1 for i in range(kx.size) if left_unit.fibers[i] != id_k.fibers[i]
    )

    right_unit = compose(vietoris_unit(kx.as_finset()), mu)
    right_holds = right_unit == id_k

    return {
        "law": "downset_variant",
        "instance_sizes": [base_size],
        "composition_checks": comp_checks,
        "composition_failures": comp_failures,
        "identity_lift_divergences": id_divergences,
        "left_unit_divergences": left_divergences,
        "right_unit_holds": right_holds,
    }
