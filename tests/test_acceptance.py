"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance and trial count is pinned here, not calibrated
elsewhere.
"""

import itertools
import time

import numpy as np

from gridcp.catlaws import (
    check_category_axioms,
    check_functor_laws,
    check_monad_laws,
    check_tensor_laws,
)
from gridcp.fullcp import kappa, levels, transducer
from gridcp.grid import Region, Sample, make_uniform_grid
from gridcp.harness import ExperimentConfig, emit, run_coverage, run_diagram
from gridcp.harness import run_bayes_triangle, run_eposterior, run_ihdr_oracle
from gridcp.imprecise import ihdr_contour, lower_prob, upper_prob
from gridcp.imprecise import PossibilityContour, cred
from gridcp.scores import EmbeddingNet, MeanAbsDistance, PrototypeEmbedding


def announce(num: int, passed: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def test_criterion_1_coverage():
    cfg = ExperimentConfig(
        experiment="coverage",
        seed=20260801,
        trials=2000,
        alpha=0.13,
        n=20,
        grid_bounds=((-6.0, 6.0),),
        grid_counts=(201,),
        scenario="iid_gaussian",
    )
    t0 = time.monotonic()
    rep = run_coverage(cfg)
    elapsed = time.monotonic() - t0
    ok = rep["wilson_lower_bound"] >= 0.87 - 0.02 and elapsed <= 60.0
    announce(
        1,
        ok,
        f"coverage: empirical={rep['empirical_coverage']:.4f}, "
        f"wilson99={rep['wilson_lower_bound']:.4f} >= 0.85, {elapsed:.1f}s <= 60s",
    )


def test_criterion_2_region_route_equality():
    cfg = ExperimentConfig(
        experiment="diagram",
        seed=20260802,
        trials=200,
        extras={"brute_trials": 100, "brute_grid_limit": 12},
    )
    t0 = time.monotonic()
    rep = run_diagram(cfg)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 120.0
    parts = []
    for fam in rep["families"]:
        ok = ok and fam["equal"] == 200 and fam["brute_equal"] == fam["brute_checked"] == 100
        parts.append(
            f"{fam['score_family']}: {fam['equal']}/200 exact, "
            f"brute {fam['brute_equal']}/{fam['brute_checked']}"
        )
    announce(2, ok, f"region routes agree ({'; '.join(parts)}, {elapsed:.1f}s <= 120s)")


def test_criterion_3_bayes_triangle():
    cfg = ExperimentConfig(experiment="bayes_triangle", seed=20260803, trials=100)
    rep = run_bayes_triangle(cfg)
    ok = rep["equal"] == 100 and not rep["counterexamples"]
    announce(
        3,
        ok,
        f"triangle identity: {rep['equal']}/100 exact "
        f"(tie rejections {rep['tie_rejections']}, "
        f"consonance rejections {rep['consonance_rejections']})",
    )


def test_criterion_4_functoriality():
    nest_cfg = ExperimentConfig(experiment="ihdr_oracle", seed=20260804, trials=500)
    rep = run_ihdr_oracle(nest_cfg)
    # The 3-chain composition at its own stated trial count.
    chain_cfg = ExperimentConfig(experiment="ihdr_oracle", seed=20260805, trials=200)
    chain_rep = run_ihdr_oracle(chain_cfg)
    ok = (
        rep["nesting_holds"] == 500
        and rep["oracle_equal"] == 500
        and chain_rep["chain_holds"] == 200
    )
    announce(
        4,
        ok,
        f"nesting {rep['nesting_holds']}/500, oracle {rep['oracle_equal']}/500, "
        f"3-chain {chain_rep['chain_holds']}/200",
    )


def test_criterion_5_monad_laws():
    reports = [check_monad_laws(n) for n in (1, 2, 3, 4)]
    functor = check_functor_laws(3)
    ok = all(not r["counterexamples"] for r in reports) and not functor["counterexamples"]
    checked = sum(r["trials"]["associativity"] for r in reports)
    announce(
        5,
        ok,
        f"monad laws sizes 1-4 zero counterexamples ({checked} associativity "
        f"families), functor laws exhaustive<=3 "
        f"({functor['trials']['composition']} pairs)",
    )


def test_criterion_6_category_axioms_and_tensor():
    exhaustive = check_category_axioms([2, 2, 2, 2], trials=0, seed=20260806)
    randomized = check_category_axioms([4, 4, 4, 4], trials=500, seed=20260807)
    tensorrep = check_tensor_laws(4, trials=500, seed=20260808)
    ok = (
        exhaustive["exhaustive"]
        and not exhaustive["counterexamples"]
        and not randomized["counterexamples"]
        and not tensorrep["counterexamples"]
    )
    announce(
        6,
        ok,
        f"category axioms exhaustive@2 ({exhaustive['trials']['associativity']} "
        f"triples) + 500 randomized@4, tensor bifunctoriality "
        f"{tensorrep['trials']['exhaustive']} exhaustive + 500 randomized: "
        f"zero counterexamples",
    )


def test_criterion_7_eposterior():
    cfg = ExperimentConfig(
        experiment="eposterior",
        seed=20260809,
        trials=1,
        extras={"theta_count": 101, "y_count": 101},
    )
    rep = run_eposterior(cfg)
    fam = {r["family"]: r for r in rep["records"]}
    conforming_ok = (
        fam["conforming"]["condition_holds"]
        and fam["conforming"]["max_evalue_expectation"] <= 1.0 + 1e-9
    )
    violating_ok = (
        not fam["violating"]["condition_holds"]
        and fam["violating"]["max_evalue_expectation"] > 1.0
    )
    witnesses_ok = all(r["witnesses"] for r in rep["records"])
    ok = conforming_ok and violating_ok and witnesses_ok
    announce(
        7,
        ok,
        f"e-condition: conforming max={fam['conforming']['max_evalue_expectation']:.6f}"
        f" <= 1+1e-9, violating max={fam['violating']['max_evalue_expectation']:.6f} > 1, "
        f"witnesses emitted",
    )


def test_criterion_8_structural_invariants(tmp_path):
    rng = np.random.default_rng(20260810)
    ok = True

    # (a) plausibility values live in the attainable set, never zero.
    for _ in range(25):
        n = int(rng.integers(1, 8))
        s = Sample.of(rng.uniform(-3, 3, n).tolist())
        grid = make_uniform_grid([(-3, 3)], [int(rng.integers(2, 14))])
        t = transducer(s, MeanAbsDistance(), grid)
        ok = ok and all(any(v == lv for lv in levels(n)[1:]) for v in t.values.tolist())

    # (b) permutation equivariance of the leave-one-out table, exhaustive for
    # n <= 6: permuting the sample permutes columns 0..n-1 the same way and
    # leaves the candidate's column n bit-identical.
    net = EmbeddingNet.from_weights(
        [rng.standard_normal((3, 1)), rng.standard_normal((2, 3))],
        [rng.standard_normal(3), rng.standard_normal(2)],
    )
    for n in range(2, 7):
        points = rng.uniform(-2, 2, (n, 1))
        candidates = [[float(rng.uniform(-2, 2))]]
        for psi in (MeanAbsDistance(), PrototypeEmbedding(net)):
            table = psi.loo_matrix(Sample(points), candidates)
            for p in itertools.permutations(range(n)):
                permuted = psi.loo_matrix(Sample(points[list(p)]), candidates)
                ok = ok and permuted[:, :n].tobytes() == table[:, list(p)].tobytes()
                ok = ok and permuted[:, n].tobytes() == table[:, n].tobytes()

    # (c) conjugacy and maxitivity, exact.
    for _ in range(40):
        size = int(rng.integers(2, 10))
        vals = rng.uniform(0, 1, size)
        vals[int(rng.integers(0, size))] = 1.0
        grid = make_uniform_grid([(0, 1)], [size])
        contour = PossibilityContour(grid, tuple(float(v) for v in vals))
        mask = (1 << size) - 1
        a = Region(grid, int(rng.integers(0, mask + 1)))
        b = Region(grid, int(rng.integers(0, mask + 1)))
        ok = ok and lower_prob(contour, a) + upper_prob(contour, a.complement()) == 1.0
        ok = ok and upper_prob(contour, Region(grid, a.bits | b.bits)) == max(
            upper_prob(contour, a), upper_prob(contour, b)
        )

    # (d) antitone nesting in the level, for both routes.
    grid = make_uniform_grid([(-2, 2)], [11])
    for _ in range(25):
        n = int(rng.integers(2, 8))
        s = Sample.of(rng.uniform(-2, 2, n).tolist())
        a1, a2 = sorted(rng.uniform(0.02, 0.98, 2).tolist())
        if a1 == a2 or any(a1 == lv or a2 == lv for lv in levels(n)):
            continue
        ok = ok and kappa(a2, s, MeanAbsDistance(), grid).is_subset(
            kappa(a1, s, MeanAbsDistance(), grid)
        )
        cs = cred(s, MeanAbsDistance(), grid)
        ok = ok and ihdr_contour(a2, cs).is_subset(ihdr_contour(a1, cs))

    # (e) determinism: same seed, byte-identical reports.
    cfg = ExperimentConfig(
        experiment="coverage", seed=99, trials=60, alpha=0.13, n=10, grid_counts=(51,)
    )
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit(run_coverage(cfg), str(p1))
    emit(run_coverage(cfg), str(p2))
    ok = ok and p1.read_bytes() == p2.read_bytes()

    announce(
        8,
        ok,
        "invariants: attainable-set values, exhaustive permutation equivariance "
        "(n<=6), exact conjugacy/maxitivity, antitone nesting, byte-identical "
        "reruns",
    )
