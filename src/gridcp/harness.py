"""Experiment orchestration: coverage, diagram, triangle, and law campaigns.

Every experiment is driven by an `ExperimentConfig` and produces a plain dict
report that `emit` writes deterministically: the same seed yields
byte-identical files. Trial stream i of a run is philox4x64 with counter 0
and key SeedSequence((seed, i)).generate_state(2, uint64). The keys are
derived in bulk and one generator is reset to each in turn, which gives the
streams of a fresh Generator(Philox(SeedSequence((seed, i)))), bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bayes, catlaws
from .config import EXPERIMENTS, ExperimentConfig, _FAMILY_STREAMS, _SCENARIOS
from .fullcp import kappa, levels, numerators_at, transducer
from .grid import Grid, Sample, make_uniform_grid
from .imprecise import (
    PossibilityContour,
    check_functor_monotone,
    cred,
    ihdr_bruteforce,
    ihdr_contour,
)
from .scores import EmbeddingNet, MeanAbsDistance, PrototypeEmbedding, ScoreFn, _per_block

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "run_coverage",
    "run_diagram",
    "run_bayes_triangle",
    "run_monad_laws",
    "run_category_axioms",
    "run_eposterior",
    "run_ihdr_oracle",
    "run_experiment",
    "emit",
    "wilson_lower_bound",
]

RNG_ALGORITHM = "philox4x64 keyed by SeedSequence(seed, trial_index)"

# One-sided 99% normal quantile, used for the Wilson lower confidence bound.
Z_99 = 2.3263478740408408


def _sample_alpha(rng: np.random.Generator, avoid: Sequence[float]) -> float:
    """Uniform level in (0.02, 0.98), redrawn while it equals an avoided value.

    Levels are compared exactly downstream (`check_level`, `ihdr_contour`),
    so only equality needs a redraw.
    """
    for _ in range(10_000):
        alpha = float(rng.uniform(0.02, 0.98))
        if alpha not in avoid:
            return alpha
    raise RuntimeError("could not sample a level away from the avoided set")


def wilson_lower_bound(hits: int, trials: int) -> float:
    """Wilson score interval at z = Z_99, lower endpoint."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = hits / trials
    denom = 1.0 + Z_99 * Z_99 / trials
    center = phat + Z_99 * Z_99 / (2 * trials)
    half = Z_99 * math.sqrt(phat * (1 - phat) / trials + Z_99 * Z_99 / (4 * trials * trials))
    return (center - half) / denom


def _header(cfg: ExperimentConfig) -> dict:
    return {"experiment": cfg.experiment, "seed": cfg.seed, "rng": RNG_ALGORITHM}


_MASK32 = 0xFFFFFFFF
# Trials keyed at once: bounds the keys' memory, whatever cfg.trials is.
_STREAM_CHUNK = 256


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative int, low first."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(v: np.ndarray, k: int, init: int = 0x43B0D7E5, mult: int = 0x931E8875):
    """Row j of v through numpy's SeedSequence hashmix, as its call k + j."""
    c = [init * pow(mult, j, 1 << 32) & _MASK32 for j in range(k, k + len(v) + 1)]
    c = np.array(c, np.uint32)[:, None]
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> 16)


def _philox_keys(seed: int, lo: int, count: int) -> np.ndarray:
    """Row i - lo is SeedSequence((seed, i)).generate_state(2, np.uint64),
    for i in lo..lo + count - 1, which lie in one block of 2**32 and so
    differ only in their lowest word. numpy's hash constants do not depend
    on the data, so each step on its 4-word pool runs on the whole chunk at
    once."""
    words = _words(seed) + _words(lo)
    entropy = np.array(words + [0] * (4 - len(words)), np.uint32)[:, None].repeat(count, 1)
    entropy[len(_words(seed))] += np.arange(count, dtype=np.uint32)
    entropy[:4] = _hashmix(entropy[:4], 0)  # the pool; then each word mixes into it
    k = 4
    for src in range(len(entropy)):
        dst = [d for d in range(4) if d != src]
        mixed = entropy[dst] * 0xCA01F9DD
        mixed -= _hashmix(entropy[[src] * len(dst)], k) * 0x4973F715
        entropy[dst] = mixed ^ (mixed >> 16)
        k += len(dst)
    state = _hashmix(entropy[:4], 0, 0x8B51F9DD, 0x58F38DED).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _trial_streams(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """One Generator, reset for each trial start..start+count-1 to a fresh
    Philox's state (counter 0, empty buffers) keyed by `_philox_keys`."""
    rng = np.random.Generator(bitgen := np.random.Philox(0))
    state = bitgen.state
    lo, end = start, start + count
    while lo < end:
        hi = min(lo + _STREAM_CHUNK, end, (lo | _MASK32) + 1)
        for state["state"]["key"] in _philox_keys(seed, lo, hi - lo):
            bitgen.state = state
            yield rng
        lo = hi


def _map_trials(
    one_trial: Callable[[np.random.Generator, int], dict], cfg: ExperimentConfig, stream: int = 0
) -> dict:
    """The one trial loop: run cfg.trials trials and total what they return.

    Trial t calls one_trial(rng, t), with rng the stream of (cfg.seed,
    stream + t): one Generator reset for every trial, so a trial must use rng
    within the call and not keep it. A trial returns counts (a bool counts 0
    or 1) and optionally the "witness" of a failed check. The result sums
    each count under its key and gathers the witnesses as "counterexamples".
    """
    totals: dict = {}
    counterexamples = []
    for t, rng in enumerate(_trial_streams(cfg.seed, stream, cfg.trials)):
        outcome = one_trial(rng, t)
        witness = outcome.pop("witness", None)
        if witness:
            counterexamples.append(witness)
        for key, count in outcome.items():
            totals[key] = totals.get(key, 0) + count
    return {**totals, "counterexamples": counterexamples}


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def run_coverage(cfg: ExperimentConfig) -> dict:
    """Monte-Carlo check of the marginal coverage guarantee.

    Draws are snapped to the grid before use so that membership of the
    held-out point in the region is exact set membership; snapping is a
    fixed componentwise map, so exchangeability survives.
    """
    universe, psi, draw, n = cfg.universe, cfg.psi, _SCENARIOS[cfg.scenario], cfg.n
    # Trials are drawn into a chunk of one kernel block's worth of partial-sum
    # terms, n x (n + 1) per sample; the chunk's last trial snaps them and
    # scores each sample at its test point only, with one kernel call.
    chunk = _per_block(n * (n + 1))
    draws = np.empty((chunk, n + 1))

    def one_trial(rng: np.random.Generator, t: int) -> dict:
        k = t % chunk
        draws[k] = draw(rng, n + 1)
        if k < chunk - 1 and t < cfg.trials - 1:
            return {}
        idxs = universe.nearest_indices(draws[: k + 1].reshape(-1, 1)).reshape(k + 1, n + 1)
        nums = numerators_at(universe.points[idxs[:, :n]], idxs[:, n], psi, universe)
        # a hit is membership in superlevel_region: pi > alpha on stored doubles
        return {"hits": int(np.count_nonzero(nums / (n + 1) > cfg.alpha))}

    hits = _map_trials(one_trial, cfg)["hits"]
    coverage, target = hits / cfg.trials, 1.0 - cfg.alpha
    slack = 3.0 * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.trials)
    return {
        **_header(cfg),
        "scenario": cfg.scenario,
        "score": cfg.score,
        "n": cfg.n,
        "alpha": cfg.alpha,
        "grid": {"bounds": [list(b) for b in cfg.grid_bounds], "counts": list(cfg.grid_counts)},
        "trials": cfg.trials,
        "hits": hits,
        "empirical_coverage": coverage,
        "target": target,
        "wilson_lower_bound": wilson_lower_bound(hits, cfg.trials),
        "slack_threshold": target - slack,
        "pass": coverage >= target - slack,
    }


# ---------------------------------------------------------------------------
# Region-equality campaigns
# ---------------------------------------------------------------------------


def _random_prototype_score(rng: np.random.Generator, d: int) -> PrototypeEmbedding:
    h, m = 3, 2
    w1 = rng.standard_normal((h, d))
    b1 = rng.standard_normal(h) * 0.5
    w2 = rng.standard_normal((m, h))
    b2 = rng.standard_normal(m) * 0.5
    return PrototypeEmbedding(EmbeddingNet.from_weights([w1, w2], [b1, b2]))


def _consonant_instance(
    rng: np.random.Generator, score_kind: str, size_hi: int
) -> tuple[Sample, ScoreFn, Grid, int]:
    """Random (sample, score, grid) whose transducer is consonant.

    The structural identities assume a consonant transducer; grids too
    coarse to contain a fully conforming candidate are resampled, and the
    rejection count is surfaced in the reports.
    """
    rejections = 0
    for _ in range(500):
        size = int(rng.integers(6, size_hi + 1))
        half_width = float(rng.uniform(1.0, 4.0))
        universe = make_uniform_grid([(-half_width, half_width)], [size])
        n = int(rng.integers(3, 9))
        y_n = Sample(universe.points[rng.integers(0, size, n)])
        psi: ScoreFn = (
            MeanAbsDistance()
            if score_kind == "mean_abs_distance"
            else _random_prototype_score(rng, 1)
        )
        if transducer(y_n, psi, universe).is_consonant():
            return y_n, psi, universe, rejections
        rejections += 1
    raise RuntimeError("could not draw a consonant instance")


def run_diagram(cfg: ExperimentConfig) -> dict:
    """Randomized exact equality of the two region routes.

    Per trial: the ranking route (kappa) against the contour route
    (ihdr_contour after cred), as exact bitsets; on grids small enough to
    enumerate, the brute-force intersection route is compared as well.
    """
    families = cfg.extras["score_families"]
    brute_trials = cfg.extras["brute_trials"]
    brute_limit = cfg.extras["brute_grid_limit"]
    results = []
    for fam_idx, family in enumerate(families):

        def one_trial(rng: np.random.Generator, t: int) -> dict:
            # The first brute_trials trials stay on grids small enough for the
            # subset-enumeration oracle, so exactly that many get both checks.
            size_hi = brute_limit if t < brute_trials else 16
            y_n, psi, universe, rejections = _consonant_instance(rng, family, size_hi)
            alpha = _sample_alpha(rng, levels(y_n.n))
            r_kappa = kappa(alpha, y_n, psi, universe)
            contour = cred(y_n, psi, universe)
            r_contour = ihdr_contour(alpha, contour)
            ok = r_kappa == r_contour
            brute = t < brute_trials and universe.size <= brute_limit
            return {
                "equal": ok,
                "brute_checked": brute,
                "brute_equal": brute and ihdr_bruteforce(alpha, contour) == r_contour,
                "consonance_rejections": rejections,
                "witness": None
                if ok
                else {
                    "alpha": alpha,
                    "kappa": list(r_kappa.indices),
                    "contour": list(r_contour.indices),
                },
            }

        counts = _map_trials(one_trial, cfg, stream=fam_idx * _FAMILY_STREAMS)
        results.append({"score_family": family, "trials": cfg.trials, **counts})
    all_pass = all(
        r["equal"] == r["trials"] and r["brute_equal"] == r["brute_checked"]
        for r in results
    )
    return {**_header(cfg), "families": results, "pass": all_pass}


def run_bayes_triangle(cfg: ExperimentConfig) -> dict:
    """Randomized exact three-way identity for the conjugate Gaussian leg.

    Instances are resampled until the training densities are tie-free and
    the induced transducer is consonant (a discretization prerequisite of
    the identity); both rejection counts are reported.
    """

    def one_trial(rng: np.random.Generator, t: int) -> dict:
        tie_rejections = 0
        consonance_rejections = 0
        for _attempt in range(500):
            n = int(rng.integers(5, 31))
            model = bayes.ConjugateModel(
                likelihood_sd=float(np.exp(rng.uniform(-0.5, 0.5))),
                prior_mean=float(rng.uniform(-2.0, 2.0)),
                prior_sd=float(np.exp(rng.uniform(-0.5, 1.0))),
            )
            data = model.prior_mean + rng.standard_normal(n) * 1.5
            y_n = Sample.of(data)
            count = int(rng.integers(101, 202))
            mean, sd = bayes.posterior_params(model, y_n)
            universe = make_uniform_grid([(mean - 6.0 * sd, mean + 6.0 * sd)], [count])
            pd = bayes.posterior_predictive(model, y_n, universe)
            dens = pd.density(np.asarray(data))
            if len(set(dens.tolist())) != n:
                tie_rejections += 1
                continue
            if pd.evaluated.max() < dens.max():
                consonance_rejections += 1
                continue
            alpha = _sample_alpha(rng, levels(n))
            ok, detail = bayes.bayes_triangle_detail(alpha, model, y_n, universe)
            return {
                "equal": ok,
                "tie_rejections": tie_rejections,
                "consonance_rejections": consonance_rejections,
                "witness": None
                if ok
                else {"alpha": alpha, "n": n, "detail": detail},
            }
        raise RuntimeError("could not draw a tie-free consonant instance")

    counts = _map_trials(one_trial, cfg)
    return {**_header(cfg), "trials": cfg.trials, **counts, "pass": counts["equal"] == cfg.trials}


# ---------------------------------------------------------------------------
# Law campaigns
# ---------------------------------------------------------------------------


def run_monad_laws(cfg: ExperimentConfig) -> dict:
    """Hyperspace monad and functor laws, plus the down-set variant's ledger."""
    singleton = [catlaws.check_monad_laws(s) for s in (1, 2, 3, 4)]
    functor = catlaws.check_functor_laws(3)
    downset = [catlaws.downset_divergence_report(s) for s in (1, 2, 3)]
    ok = (
        all(not r["counterexamples"] for r in singleton)
        and not functor["counterexamples"]
        and all(r["composition_failures"] == 0 for r in downset)
    )
    return {
        **_header(cfg),
        "singleton_variant": singleton,
        "functor_laws": functor,
        "downset_variant": downset,
        "pass": ok,
    }


def run_category_axioms(cfg: ExperimentConfig) -> dict:
    """Category axioms (exhaustive at size 2, randomized beyond) and tensor laws."""
    exhaustive = catlaws.check_category_axioms([2, 2, 2, 2], trials=0, seed=cfg.seed)
    randomized = catlaws.check_category_axioms(
        [4, 4, 4, 4], trials=cfg.trials, seed=cfg.seed + 1
    )
    tensorrep = catlaws.check_tensor_laws(4, trials=cfg.trials, seed=cfg.seed + 2)
    ok = not (
        exhaustive["counterexamples"]
        or randomized["counterexamples"]
        or tensorrep["counterexamples"]
    )
    return {
        **_header(cfg),
        "exhaustive": exhaustive,
        "randomized": randomized,
        "tensor": tensorrep,
        "pass": ok,
    }


def _eposterior_families(theta_count: int, y_count: int):
    """Two constructed prior families: one satisfying the betting-score
    condition with slack, one violating it at a single parameter value."""
    theta_grid = bayes.midpoint_grid(0.0, 1.0, theta_count)
    y_grid = bayes.midpoint_grid(0.0, 1.0, y_count)
    thetas = theta_grid.points[:, :1]
    ys = y_grid.points[:, 0]
    # exp(-0.5 * ((ys - thetas) / 0.15)^2), each row exactly proper under the
    # grid quadrature, computed in one table.
    lik = np.subtract(ys, thetas)
    lik /= 0.15
    np.multiply(lik, lik, out=lik)
    lik *= -0.5
    np.exp(lik, out=lik)
    lik /= lik.sum(axis=1, keepdims=True) * y_grid.spacing[0]

    conforming = bayes.CredalPrior(
        theta_grid=theta_grid,
        y_grid=y_grid,
        lower_density=np.full(theta_count, 0.8),
        upper_density=np.full(theta_count, 1.2),
        likelihood_table=lik,
    )
    dip = theta_count // 2
    low = np.full(theta_count, 0.8)
    up = np.full(theta_count, 1.2)
    low[dip] = 0.3
    up[dip] = 0.5
    violating = dataclasses.replace(conforming, lower_density=low, upper_density=up)
    return conforming, violating, dip


def run_eposterior(cfg: ExperimentConfig) -> dict:
    """Both directions of the betting-score equivalence, with witnesses."""
    conforming, violating, dip = _eposterior_families(
        cfg.extras["theta_count"], cfg.extras["y_count"]
    )
    records = []
    for name, cp in (("conforming", conforming), ("violating", violating)):
        condition, max_exp = bayes.check_eposterior(cp)
        e_ok = max_exp <= 1.0 + 1e-9
        records.append(
            {
                "check": "eposterior",
                "params": {
                    "family": name,
                    "theta_count": cp.theta_grid.size,
                    "y_count": cp.y_grid.size,
                },
                "family": name,
                "condition_holds": condition,
                "max_evalue_expectation": max_exp,
                "agree": condition == e_ok,
                "pass": condition == e_ok,
                "witnesses": {
                    "lower_envelope_integral": cp.lower_integral,
                    "min_upper_density": float(cp.upper_density.min()),
                    "dip_index": dip if name == "violating" else None,
                },
            }
        )
    ok = (
        all(r["agree"] for r in records)
        and records[0]["condition_holds"]
        and not records[1]["condition_holds"]
        and records[1]["max_evalue_expectation"] > 1.0
    )
    return {**_header(cfg), "records": records, "pass": ok}


def _random_consonant_values(rng: np.random.Generator, size: int) -> list[float]:
    vals = rng.uniform(0.0, 1.0, size).tolist()
    vals[int(rng.integers(0, size))] = 1.0
    return [float(v) for v in vals]


def run_ihdr_oracle(cfg: ExperimentConfig) -> dict:
    """IHDR campaigns on synthetic contours.

    Per trial: brute-force vs closed-form equality; nesting of a dominated
    contour pair; the 3-chain composition of nestings; antitone nesting in
    the level.
    """

    def one_trial(rng: np.random.Generator, t: int) -> dict:
        size = int(rng.integers(3, 13))
        universe = make_uniform_grid([(0.0, 1.0)], [size])
        v_big = _random_consonant_values(rng, size)
        peak = v_big.index(1.0)
        shrink1 = rng.uniform(0.0, 1.0, size)
        v_mid = [float(b * s) for b, s in zip(v_big, shrink1)]
        v_mid[peak] = 1.0
        shrink2 = rng.uniform(0.0, 1.0, size)
        v_small = [float(m * s) for m, s in zip(v_mid, shrink2)]
        v_small[peak] = 1.0
        big = PossibilityContour(universe, v_big)
        mid = PossibilityContour(universe, v_mid)
        small = PossibilityContour(universe, v_small)
        avoid = v_big + v_mid + v_small
        alpha = _sample_alpha(rng, avoid)
        oracle_ok = ihdr_bruteforce(alpha, big) == ihdr_contour(alpha, big)
        nest_ok = check_functor_monotone(small, big, alpha)
        r1 = ihdr_contour(alpha, small)
        r2 = ihdr_contour(alpha, mid)
        r3 = ihdr_contour(alpha, big)
        chain_ok = r1.is_subset(r2) and r2.is_subset(r3) and r1.is_subset(r3)
        a_lo, a_hi = sorted((alpha, _sample_alpha(rng, avoid)))
        antitone_ok = ihdr_contour(a_hi, big).is_subset(ihdr_contour(a_lo, big))
        return {
            "oracle_equal": oracle_ok,
            "nesting_holds": nest_ok,
            "chain_holds": chain_ok,
            "antitone_holds": antitone_ok,
        }

    counts = _map_trials(one_trial, cfg)
    del counts["counterexamples"]
    ok = all(c == cfg.trials for c in counts.values())
    return {**_header(cfg), "trials": cfg.trials, **counts, "pass": ok}


EXPERIMENTS.update(
    coverage=run_coverage,
    diagram=run_diagram,
    bayes_triangle=run_bayes_triangle,
    monad_laws=run_monad_laws,
    category_axioms=run_category_axioms,
    eposterior=run_eposterior,
    ihdr_oracle=run_ihdr_oracle,
)


def run_experiment(cfg: ExperimentConfig) -> dict:
    return EXPERIMENTS[cfg.experiment](cfg)


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(obj, dict):
        out = []
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}."))
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}{i}."))
        return out
    return [(prefix[:-1], obj)]


def emit(report: dict, path: str, format: str = "json") -> None:
    """Write a report deterministically: sorted keys, fixed float repr.

    Identical seeds yield byte-identical files.
    """
    if format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        for k, v in _flatten(report):
            w.writerow([k, json.dumps(v, sort_keys=True)])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
