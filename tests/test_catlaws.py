"""Correspondence algebra: category axioms, tensor, hyperspace monad."""

import tracemalloc

import numpy as np
import pytest
from test_catlaws_oracle import random_correspondence

from gridcp import catlaws
from gridcp.catlaws import (
    FiniteCorrespondence,
    check_category_axioms,
    check_functor_laws,
    check_monad_laws,
    check_tensor_laws,
    compose,
    downset_divergence_report,
    hyperspace,
    identity,
    tensor,
    vietoris_map,
    vietoris_multiplication,
    vietoris_unit,
)


class TestCompose:
    def test_identity_laws_random(self):
        rng = np.random.default_rng(0)
        x, y = 4, 3
        for _ in range(25):
            phi = random_correspondence(rng, x, y)
            assert compose(identity(x), phi) == phi
            assert compose(phi, identity(y)) == phi

    def test_hand_union(self):
        # phi(0) = {0,1}; psi(0) = {1}, psi(1) = {0}: composite fiber {0,1}.
        phi = FiniteCorrespondence.from_fibers(2, (0b11,))
        psi = FiniteCorrespondence.from_fibers(2, (0b10, 0b01))
        assert compose(phi, psi).fibers == (0b11,)

    def test_endpoint_mismatch(self):
        phi = identity(2)
        psi = identity(3)
        with pytest.raises(ValueError, match="target size 2 vs source size 3"):
            compose(phi, psi)

    def test_empty_fibers_compose(self):
        phi = FiniteCorrespondence.from_fibers(2, (0, 0b11))
        assert compose(phi, phi).fibers == (0, 0b11)


class TestCategoryAxioms:
    def test_singletons_trivially_pass(self):
        rep = check_category_axioms([1, 1, 1, 1], trials=0, seed=0)
        assert rep["exhaustive"]
        assert rep["counterexamples"] == []

    def test_exhaustive_two_element(self):
        rep = check_category_axioms([2, 2, 2, 2], trials=0, seed=0)
        assert rep["exhaustive"]
        assert rep["trials"]["associativity"] == 16**3
        assert rep["counterexamples"] == []

    def test_randomized_four_element(self):
        rep = check_category_axioms([4, 4, 4, 4], trials=500, seed=11)
        assert not rep["exhaustive"]
        assert rep["trials"] == {"unit": 16**4, "associativity": 500}
        assert rep["counterexamples"] == []

    def test_report_shape(self):
        rep = check_category_axioms([2, 2, 2, 2], trials=0, seed=0)
        assert set(rep) >= {"law", "instance_sizes", "trials", "counterexamples"}

    def test_negative_trials_refused(self):
        with pytest.raises(ValueError, match="trials"):
            check_category_axioms([4, 4, 4, 4], trials=-3, seed=0)

    @pytest.mark.parametrize(
        "sizes", [[2, 2, -1, 2], [0, 1, 1, 1], [1, 1, 1, 64], [1, 1, 1, 70]]
    )
    def test_sizes_outside_one_to_63_refused(self, sizes):
        with pytest.raises(ValueError, match="sizes"):
            check_category_axioms(sizes, trials=5, seed=0)

    def test_size_63_is_drawn(self):
        # The largest size whose fiber codes fit an int64.
        rep = check_category_axioms([1, 1, 1, 63], trials=5, seed=0)
        assert rep["trials"] == {"unit": 2, "associativity": 5}
        assert rep["counterexamples"] == []

    def test_too_many_unit_law_arrows_refused(self):
        # 32^5 arrows X0 -> X1: refused before any arrow is built.
        with pytest.raises(ValueError, match="too many"):
            check_category_axioms([5, 5, 2, 2], trials=0, seed=0)


class TestTensor:
    def test_id_tensor_id_is_product_id(self):
        assert tensor(identity(2), identity(3)) == identity(6)

    def test_unit_object_is_strict(self):
        rng = np.random.default_rng(2)
        phi = random_correspondence(rng, 3, 4)
        iu = identity(1)
        assert tensor(phi, iu).fibers == phi.fibers
        assert tensor(iu, phi).fibers == phi.fibers

    def test_bifunctoriality_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sizes = rng.integers(1, 5, 6)
            a1, b1, c1, a2, b2, c2 = sizes.tolist()
            phi1 = random_correspondence(rng, a1, b1)
            psi1 = random_correspondence(rng, b1, c1)
            phi2 = random_correspondence(rng, a2, b2)
            psi2 = random_correspondence(rng, b2, c2)
            lhs = tensor(compose(phi1, psi1), compose(phi2, psi2))
            rhs = compose(tensor(phi1, phi2), tensor(psi1, psi2))
            assert lhs.fibers == rhs.fibers

    @pytest.mark.parametrize(
        "max_size, trials, name",
        [(4, -1, "trials"), (0, 5, "max_size"), (-2, 5, "max_size"), (9, 5, "max_size")],
    )
    def test_bad_arguments_refused(self, max_size, trials, name):
        with pytest.raises(ValueError, match=name):
            check_tensor_laws(max_size, trials=trials, seed=0)

    def test_campaign(self):
        rep = check_tensor_laws(3, trials=60, seed=4)
        assert rep["counterexamples"] == []
        assert rep["trials"]["exhaustive"] == 16**4


class TestVietorisMap:
    def test_identity_lifts_to_identity(self):
        assert vietoris_map(identity(3)) == identity(hyperspace(3))

    def test_hyperspace_of_three_points(self):
        assert hyperspace(3) == 7

    def test_swap_example(self):
        # phi swaps the two base points: the lift swaps the singletons and
        # fixes the doubleton.
        phi = FiniteCorrespondence.from_fibers(2, (0b10, 0b01))
        t = vietoris_map(phi)
        assert t.fibers == (0b010, 0b001, 0b100)

    def test_functoriality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b, c = rng.integers(1, 4, 3).tolist()
            phi = random_correspondence(rng, a, b, nonempty=True)
            psi = random_correspondence(rng, b, c, nonempty=True)
            lhs = vietoris_map(compose(phi, psi))
            rhs = compose(vietoris_map(phi), vietoris_map(psi))
            assert lhs.fibers == rhs.fibers

    def test_empty_fiber_rejected(self):
        phi = FiniteCorrespondence.from_fibers(2, (0, 0b11))
        with pytest.raises(ValueError, match="empty fiber"):
            vietoris_map(phi)

    def test_downset_variant_fiber_is_downset(self):
        t = vietoris_map(identity(2), variant="downset")
        # The doubleton maps to all three nonempty subsets of itself.
        assert t.fibers[2] == 0b111

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            vietoris_map(identity(2), variant="closure")


class TestMonadPieces:
    # Hyperspace element i is the subset with code i + 1.

    def test_unit_fiber_is_singleton_of_singleton(self):
        eta = vietoris_unit(3)
        for i in range(3):
            assert eta.fibers[i] == 1 << ((1 << i) - 1)

    def test_multiplication_unions_the_family(self):
        # nu({{0},{0,1}}) = {0,1}
        mu = vietoris_multiplication(2)
        fam = (1 << (0b01 - 1)) | (1 << (0b11 - 1))
        assert mu.fibers[fam - 1] == 1 << (0b11 - 1)


class TestMonadLaws:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_laws_pass(self, n):
        rep = check_monad_laws(n)
        assert rep["counterexamples"] == []

    def test_size_one_trivial(self):
        rep = check_monad_laws(1)
        assert rep["trials"]["associativity"] == 1

    @pytest.mark.parametrize("n, families", [(2, 127), (3, 8129), (4, 32767)])
    def test_associativity_family_counts(self, n, families):
        # Every family at size 2; singletons, pairs and the whole double
        # hyperspace at size 3; singletons at size 4.
        assert check_monad_laws(n)["trials"]["associativity"] == families

    def test_wrong_multiplication_is_caught(self, monkeypatch):
        """Swapping some rows of mu breaks associativity; the counts are those
        the bitmask implementation reported under the same fault."""
        correct = catlaws.vietoris_multiplication

        def wrong(n):
            m = correct(n).matrix.copy()
            for k in range(0, len(m) - 1, 7):
                m[[k, k + 1]] = m[[k + 1, k]]
            return FiniteCorrespondence(m)

        monkeypatch.setattr(catlaws, "vietoris_multiplication", wrong)
        found = [check_monad_laws(n)["counterexamples"] for n in (2, 3, 4)]
        assert [len(c) for c in found] == [4, 90, 234]
        # The last witnesses sit in later chunks of the family loop.
        assert [c[-1].get("family") for c in found] == [[1], [23, 24], [10920]]

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            check_monad_laws(5)
        with pytest.raises(ValueError):
            check_monad_laws(0)

    def test_report_shape(self):
        rep = check_monad_laws(2)
        assert set(rep) >= {"law", "instance_sizes", "trials", "counterexamples"}


class TestFunctorLaws:
    def test_exhaustive_small(self):
        rep = check_functor_laws(2)
        assert rep["counterexamples"] == []
        # (a,b,c) in {1,2}^3 with nonempty fibers: sum of (2^b-1)^a (2^c-1)^b
        assert rep["trials"]["composition"] == sum(
            ((2**b - 1) ** a) * ((2**c - 1) ** b)
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
        )

    @pytest.mark.parametrize("max_size", [0, -1, 4])
    def test_max_size_outside_one_to_three_refused(self, max_size, monkeypatch):
        def no_arrows(*args, **kwargs):
            raise AssertionError("an arrow was built before the refusal")

        monkeypatch.setattr(catlaws, "_all_correspondences", no_arrows)
        with pytest.raises(ValueError, match="max_size"):
            check_functor_laws(max_size)


class TestDownsetDivergence:
    def test_composition_holds_but_units_diverge(self):
        rep = downset_divergence_report(2)
        assert rep["composition_failures"] == 0
        assert rep["right_unit_holds"]
        # Exactly the non-singleton subset {0,1} witnesses the divergence.
        assert rep["identity_lift_divergences"] == 1
        assert rep["left_unit_divergences"] == 1

    def test_size_one_degenerate_agreement(self):
        rep = downset_divergence_report(1)
        assert rep["identity_lift_divergences"] == 0
        assert rep["left_unit_divergences"] == 0

    def test_size_three_divergence_count(self):
        # Every subset with at least two elements has a proper down-set:
        # 2^3 - 1 - 3 = 4 witnesses.
        rep = downset_divergence_report(3)
        assert rep["composition_failures"] == 0
        assert rep["identity_lift_divergences"] == 4


class TestRepresentation:
    def test_matrix_is_read_only(self):
        phi = identity(3)
        with pytest.raises(ValueError):
            phi.matrix[0, 1] = True

    def test_caller_array_is_frozen(self):
        m = np.eye(2, dtype=bool)
        FiniteCorrespondence(m)
        with pytest.raises(ValueError):
            m[0, 1] = True

    def test_fiber_outside_target_rejected(self):
        with pytest.raises(ValueError, match="outside the target"):
            FiniteCorrespondence.from_fibers(2, (0b100,))

    def test_wrong_shape_rejected(self):
        # Fewer than two axes, or an empty endpoint (no fibers, or a target
        # of size 0): objects have at least one element.
        for shape in [(3,), (0, 2), (2, 0), (4, 0, 2)]:
            with pytest.raises(ValueError, match="shape"):
                FiniteCorrespondence(np.zeros(shape, bool))
        with pytest.raises(ValueError, match="shape"):
            FiniteCorrespondence.from_fibers(2, ())

    def test_endpoints_are_the_last_two_axes(self):
        stack = FiniteCorrespondence(np.zeros((5, 2, 3), bool))
        assert (stack.source, stack.target) == (2, 3)
        assert stack[0] == FiniteCorrespondence(np.zeros((2, 3), bool))
        assert stack[0] != FiniteCorrespondence(np.zeros((3, 2), bool))


class TestMemory:
    """Campaigns hold one chunk at a time, so their traced peaks stay small
    whatever the number of pairs or trials."""

    @pytest.mark.parametrize(
        "campaign, args",
        [
            (check_monad_laws, (4,)),
            (check_functor_laws, (3,)),
            (downset_divergence_report, (3,)),
            (check_category_axioms, ([4, 4, 4, 4], 20_000, 0)),
        ],
        ids=["monad_laws", "functor_laws", "downset", "category_axioms"],
    )
    def test_traced_peak_under_2_mib(self, campaign, args):
        campaign(*args)  # warm-up: cached subset tables and numpy's lazy set-up
        tracemalloc.start()
        try:
            campaign(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak / 2**20


def _drop_last_target(correct):
    """compose, then drop the last target element from every fiber holding another."""

    def wrong(phi, psi):
        out = correct(phi, psi)
        m = out.matrix.copy()
        m[..., -1] &= ~m[..., :-1].any(axis=-1)
        return FiniteCorrespondence(m)

    return wrong


class TestCampaignsHaveForce:
    """A wrong composition must show up in every batched campaign.

    The counts are those the bitmask implementation reported under the same
    fault, so they also pin that the batches enumerate every case once.
    """

    @pytest.fixture(autouse=True)
    def wrong_compose(self, monkeypatch):
        monkeypatch.setattr(catlaws, "compose", _drop_last_target(catlaws.compose))

    def test_category_axioms(self):
        rep = check_category_axioms([2, 2, 2, 2], trials=0, seed=0)
        assert len(rep["counterexamples"]) == 512
        assert rep["counterexamples"][0] == {"law": "unit", "fibers": [0, 3]}

    def test_functor_laws(self):
        rep = check_functor_laws(2)
        assert len(rep["counterexamples"]) == 66
        assert rep["counterexamples"][0]["fibers"] == [[1], [3]]

    def test_tensor_laws(self):
        rep = check_tensor_laws(2, trials=10, seed=0)
        assert len(rep["counterexamples"]) == 21312

    def test_downset_composition(self):
        assert downset_divergence_report(2)["composition_failures"] == 55

    # At the sizes below the batches split into several chunks, so these pin
    # that the chunking neither skips nor reorders a case.

    def test_functor_laws_across_chunks(self):
        rep = check_functor_laws(3)
        assert len(rep["counterexamples"]) == 128_816
        first, last = rep["counterexamples"][0], rep["counterexamples"][-1]
        assert (first["fibers"], first["sizes"]) == ([[1], [3]], [1, 1, 2])
        assert (last["fibers"], last["sizes"]) == ([[7, 7, 7], [7, 7, 7]], [3, 3, 3])

    def test_downset_composition_across_chunks(self):
        assert downset_divergence_report(3)["composition_failures"] == 103_599

    def test_randomized_category_axioms(self):
        rep = check_category_axioms([4, 4, 4, 4], trials=500, seed=1)
        assert len(rep["counterexamples"]) == 59_147
        assert rep["counterexamples"][0] == {"law": "unit", "fibers": [0, 0, 0, 9]}

    def test_randomized_associativity_across_chunks(self):
        rep = check_category_axioms([4, 4, 4, 4], trials=5000, seed=2)
        assoc = [
            c["fibers"] for c in rep["counterexamples"] if c["law"] == "associativity"
        ]
        assert len(assoc) == 1711
        assert assoc[0] == [[15, 3, 14, 0], [8, 4, 3, 10], [4, 8, 4, 2]]
        assert assoc[-1] == [[7, 10, 10, 4], [7, 13, 10, 9], [14, 9, 4, 15]]
