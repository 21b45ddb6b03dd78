"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Every workload is a closed loop with one caller: a pass runs each operation
once, in order, and the next call starts only when the previous returned.
Operations reach gridcp only through attribute lookups on its modules at
call time (`gridcp.cli.main`, `gridcp.kappa`, ...), so the traced run sees
every call.

* trial_campaigns -- five `ck` experiments through `gridcp.cli.main` at the
  shapes of the acceptance suite: thousands of tiny instances, so per-call
  Python overhead dominates.
* large_grids -- library calls on one 201x201 grid per 2-D instance and a
  20,001-point grid per 1-D instance (n=30): per-point work dominates. This goes
  through the library because `ck coverage` on a 2-D grid raises IndexError
  at the time of writing; `known_defects` reports that on every run.
* law_campaigns -- the two catlaws experiments through `gridcp.cli.main`:
  pure-Python enumeration that touches no grid-side module.

An operation's `run` is the timed call. Its `check` runs afterwards, untimed,
and returns a `Verdict`: the problems found (a raise, a non-zero exit, a
report with `pass: false`, or counts other than those configured), the
verdict-bearing fields that the golden digests cover, and how many instances
it checked and rejected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("trial_campaigns", "large_grids", "law_campaigns")

# How often the short operations run per pass. One eposterior call takes
# ~0.03 s and one 1-D large instance ~0.15 s, too short to time steadily from
# one sample per pass, so they are repeated rather than scaled.
EPOSTERIOR_REPEATS = 5
BAYES_1D_REPEATS = 4

LARGE_COUNTS_2D = (201, 201)
LARGE_BOUNDS_2D = ((-4.0, 4.0), (-4.0, 4.0))
LARGE_COUNT_1D = 20001
LARGE_N_1D = 30
# Levels for the large instances. The bit loops that pack regions cost more
# the more points a region holds, so levels come from a narrow band of
# high-confidence regions: the seed changes the instance, not the amount of
# work.
LARGE_ALPHA = (0.05, 0.25)
# Candidate draws prepared per large instance; an operation walks them until
# one passes the screens the harness applies.
CANDIDATES = 8


@dataclass
class Verdict:
    problems: list[str]
    fields: object = None  # verdict-bearing fields, digested for goldens
    instances: int = 0  # instances accepted and checked
    rejections: int | None = None  # draws rejected; None without rejection sampling

    @property
    def digest(self) -> str:
        text = json.dumps(self.fields, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    repeats: int = 1


def build(name: str, seed: int, outdir: Path) -> list[Op]:
    """The workload's operations, with inputs generated from `seed`; the same
    seed gives the same inputs."""
    if name == "trial_campaigns":
        return _trial_ops(seed, outdir)
    if name == "large_grids":
        return _large_ops(seed)
    if name == "law_campaigns":
        return _law_ops(seed, outdir)
    raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# ck experiments through gridcp.cli.main
# ---------------------------------------------------------------------------


def _cli_op(experiment: str, config: dict, outdir: Path, checker, repeats=1) -> Op:
    import gridcp.cli

    cfg_path = outdir / f"{experiment}.config.json"
    out_path = outdir / f"{experiment}.report.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True))
    argv = [experiment, "--config", str(cfg_path), "--out", str(out_path)]

    def run():
        out_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return gridcp.cli.main(argv)

    def check(rc) -> Verdict:
        problems = [] if rc == 0 else [f"{experiment}: exit code {rc}"]
        try:
            report = json.loads(out_path.read_text())
        except (OSError, ValueError) as exc:
            return Verdict(problems + [f"{experiment}: no report ({exc})"])
        if report.get("pass") is not True:
            problems.append(f"{experiment}: report says pass={report.get('pass')}")
        verdict = checker(report, config)
        verdict.problems[:0] = problems
        return verdict

    return Op(experiment, run, check, repeats)


def _expect(problems: list[str], what: str, observed, expected) -> None:
    if observed != expected:
        problems.append(f"{what}: expected {expected!r}, observed {observed!r}")


def _check_coverage(rep, cfg) -> Verdict:
    p: list[str] = []
    _expect(p, "coverage trials", rep.get("trials"), cfg["trials"])
    hits = rep.get("hits")
    if not isinstance(hits, int) or not 0 <= hits <= cfg["trials"]:
        p.append(f"coverage hits out of range: {hits!r}")
    fields = {k: rep.get(k) for k in ("trials", "hits", "pass")}
    return Verdict(p, fields, instances=cfg["trials"])


def _check_diagram(rep, cfg) -> Verdict:
    p: list[str] = []
    trials = cfg["trials"]
    brute = cfg["extras"]["brute_trials"]
    fams = rep.get("families", [])
    _expect(p, "diagram families", len(fams), 2)
    fields, rejections = [], 0
    for fam in fams:
        name = fam.get("score_family")
        _expect(p, f"diagram {name} trials", fam.get("trials"), trials)
        _expect(p, f"diagram {name} equal", fam.get("equal"), trials)
        _expect(p, f"diagram {name} brute_checked", fam.get("brute_checked"), brute)
        _expect(p, f"diagram {name} brute_equal", fam.get("brute_equal"), brute)
        _expect(p, f"diagram {name} counterexamples", len(fam.get("counterexamples", [])), 0)
        rejections += fam.get("consonance_rejections", 0)
        fields.append(
            {
                "score_family": name,
                "counterexamples": len(fam.get("counterexamples", [])),
                **{
                    k: fam.get(k)
                    for k in ("trials", "equal", "brute_checked", "brute_equal",
                              "consonance_rejections")
                },
            }
        )
    return Verdict(p, {"families": fields, "pass": rep.get("pass")},
                   instances=trials * len(fams), rejections=rejections)


def _check_bayes_triangle(rep, cfg) -> Verdict:
    p: list[str] = []
    trials = cfg["trials"]
    _expect(p, "bayes_triangle trials", rep.get("trials"), trials)
    _expect(p, "bayes_triangle equal", rep.get("equal"), trials)
    _expect(p, "bayes_triangle counterexamples", len(rep.get("counterexamples", [])), 0)
    fields = {
        "counterexamples": len(rep.get("counterexamples", [])),
        **{k: rep.get(k) for k in ("trials", "equal", "tie_rejections",
                                   "consonance_rejections", "pass")},
    }
    rejections = rep.get("tie_rejections", 0) + rep.get("consonance_rejections", 0)
    return Verdict(p, fields, instances=trials, rejections=rejections)


def _check_ihdr_oracle(rep, cfg) -> Verdict:
    p: list[str] = []
    keys = ("trials", "oracle_equal", "nesting_holds", "chain_holds", "antitone_holds")
    for k in keys:
        _expect(p, f"ihdr_oracle {k}", rep.get(k), cfg["trials"])
    fields = {k: rep.get(k) for k in keys + ("pass",)}
    return Verdict(p, fields, instances=cfg["trials"])


def _check_eposterior(rep, cfg) -> Verdict:
    p: list[str] = []
    fam = {r.get("family"): r for r in rep.get("records", [])}
    _expect(p, "eposterior families", sorted(fam), ["conforming", "violating"])
    conf, viol = fam.get("conforming", {}), fam.get("violating", {})
    _expect(p, "eposterior conforming condition", conf.get("condition_holds"), True)
    _expect(p, "eposterior violating condition", viol.get("condition_holds"), False)
    for name, r in fam.items():
        _expect(p, f"eposterior {name} agree", r.get("agree"), True)
        _expect(p, f"eposterior {name} theta_count",
                r.get("params", {}).get("theta_count"), cfg["extras"]["theta_count"])
        _expect(p, f"eposterior {name} y_count",
                r.get("params", {}).get("y_count"), cfg["extras"]["y_count"])
    if not viol.get("max_evalue_expectation", 0.0) > 1.0:
        p.append("eposterior violating family: max e-value expectation not above 1")
    fields = {
        name: {k: r.get(k) for k in ("condition_holds", "agree", "pass")}
        for name, r in sorted(fam.items())
    }
    fields["pass"] = rep.get("pass")
    return Verdict(p, fields)


def _law_fields(rep: dict):
    """Trial and counterexample counts of a catlaws sub-report."""
    return {
        "trials": rep.get("trials"),
        "counterexamples": len(rep.get("counterexamples", [])),
    }


def _check_monad_laws(rep, cfg) -> Verdict:
    p: list[str] = []
    singleton = rep.get("singleton_variant", [])
    _expect(p, "monad_laws singleton sizes", len(singleton), 4)
    for r in singleton + [rep.get("functor_laws", {})]:
        _expect(p, f"monad_laws {r.get('law')} counterexamples",
                len(r.get("counterexamples", [])), 0)
    downset = rep.get("downset_variant", [])
    _expect(p, "monad_laws downset sizes", len(downset), 3)
    for r in downset:
        _expect(p, "monad_laws downset composition_failures",
                r.get("composition_failures"), 0)
    fields = {
        "singleton": [_law_fields(r) for r in singleton],
        "functor": _law_fields(rep.get("functor_laws", {})),
        "downset": [
            {k: r.get(k) for k in ("composition_checks", "composition_failures",
                                   "identity_lift_divergences",
                                   "left_unit_divergences", "right_unit_holds")}
            for r in downset
        ],
        "pass": rep.get("pass"),
    }
    return Verdict(p, fields)


def _check_category_axioms(rep, cfg) -> Verdict:
    p: list[str] = []
    parts = {k: rep.get(k, {}) for k in ("exhaustive", "randomized", "tensor")}
    for name, r in parts.items():
        _expect(p, f"category_axioms {name} counterexamples",
                len(r.get("counterexamples", [])), 0)
    _expect(p, "category_axioms exhaustive flag", parts["exhaustive"].get("exhaustive"), True)
    _expect(p, "category_axioms randomized trials",
            parts["randomized"].get("trials", {}).get("associativity"), cfg["trials"])
    _expect(p, "category_axioms tensor randomized trials",
            parts["tensor"].get("trials", {}).get("randomized"), cfg["trials"])
    fields = {name: _law_fields(r) for name, r in parts.items()}
    fields["pass"] = rep.get("pass")
    return Verdict(p, fields)


def _trial_ops(seed: int, outdir: Path) -> list[Op]:
    # Shapes of tests/test_acceptance.py, criteria 1-4 and 7.
    return [
        _cli_op("coverage", {
            "seed": seed, "trials": 2000, "alpha": 0.13, "n": 20,
            "grid": {"bounds": [[-6.0, 6.0]], "counts": [201]},
            "scenario": "iid_gaussian", "score": {"kind": "mean_abs_distance"},
        }, outdir, _check_coverage),
        _cli_op("diagram", {
            "seed": seed, "trials": 200,
            "extras": {"brute_trials": 100, "brute_grid_limit": 12},
        }, outdir, _check_diagram),
        _cli_op("bayes_triangle", {"seed": seed, "trials": 100}, outdir,
                _check_bayes_triangle),
        _cli_op("ihdr_oracle", {"seed": seed, "trials": 500}, outdir, _check_ihdr_oracle),
        _cli_op("eposterior", {
            "seed": seed, "trials": 1, "extras": {"theta_count": 101, "y_count": 101},
        }, outdir, _check_eposterior, repeats=EPOSTERIOR_REPEATS),
    ]


def _law_ops(seed: int, outdir: Path) -> list[Op]:
    return [
        _cli_op("monad_laws", {"seed": seed}, outdir, _check_monad_laws),
        # Criterion 6's randomized trial count.
        _cli_op("category_axioms", {"seed": seed, "trials": 500}, outdir,
                _check_category_axioms),
    ]


# ---------------------------------------------------------------------------
# Large grids through the library
# ---------------------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def _levels(n: int) -> list[float]:
    return [k / (n + 1) for k in range(n + 2)]


def _alpha_off(rng: np.random.Generator, avoid) -> float:
    """Uniform level in LARGE_ALPHA off every value of `avoid`."""
    while True:
        alpha = float(rng.uniform(*LARGE_ALPHA))
        if all(abs(alpha - v) > 1e-9 for v in avoid):
            return alpha


def _bits_digest(region) -> str:
    size = region.universe.size
    raw = region.bits.to_bytes((size + 7) // 8, "little")
    return hashlib.sha256(raw).hexdigest()[:16]


def _region_2d_op(kind: str, n: int, rng: np.random.Generator) -> Op:
    import gridcp

    # Candidate (sample, network, alpha) draws; points are snapped to the grid
    # as in the harness, so some samples repeat points.
    spacing = [(hi - lo) / (m - 1) for (lo, hi), m in zip(LARGE_BOUNDS_2D, LARGE_COUNTS_2D)]
    cands = []
    for _ in range(CANDIDATES):
        raw = np.clip(rng.standard_normal((n, 2)) * 1.5, -4.0, 4.0)
        pts = [
            tuple(lo + round((c - lo) / h) * h for c, (lo, _), h in zip(p, LARGE_BOUNDS_2D, spacing))
            for p in raw.tolist()
        ]
        weights = [rng.standard_normal((3, 2)), rng.standard_normal((2, 3))]
        biases = [rng.standard_normal(3) * 0.5, rng.standard_normal(2) * 0.5]
        alpha = _alpha_off(rng, _levels(n))
        cands.append((pts, weights, biases, alpha))

    def run():
        grid = gridcp.make_uniform_grid(LARGE_BOUNDS_2D, LARGE_COUNTS_2D)
        results = []
        rejections = 0  # non-consonant transducers; alpha is drawn off every level
        todo = list(range(2))  # 0: mean distance, 1: prototype embedding
        for pts, weights, biases, alpha in cands:
            if not todo:
                break
            sample = gridcp.Sample.of(pts)
            scores = [
                gridcp.MeanAbsDistance(),
                gridcp.PrototypeEmbedding(gridcp.EmbeddingNet.from_weights(weights, biases)),
            ]
            for which in list(todo):
                psi = scores[which]
                t = gridcp.transducer(sample, psi, grid)
                if not t.is_consonant():
                    rejections += 1
                    continue
                r_kappa = gridcp.kappa(alpha, sample, psi, grid)
                r_contour = gridcp.ihdr_contour(alpha, gridcp.cred(sample, psi, grid))
                results.append((psi.kind, r_kappa == r_contour, r_kappa))
                todo.remove(which)
        return results, rejections

    def check(outcome) -> Verdict:
        results, rejections = outcome
        p: list[str] = []
        _expect(p, f"{kind} instances", len(results), 2)
        for score, equal, _r in results:
            if not equal:
                p.append(f"{kind} {score}: kappa and ihdr_contour regions differ")
        fields = {
            "regions": [[score, equal, len(r), _bits_digest(r)] for score, equal, r in results],
            "consonance_rejections": rejections,
        }
        return Verdict(p, fields, instances=len(results), rejections=rejections)

    return Op(kind, run, check)


def _bayes_1d_op(rng: np.random.Generator) -> Op:
    import gridcp
    import gridcp.bayes

    # Draws as in the harness's Bayes triangle, at its largest n and on a
    # much finer grid.
    cands = []
    n = LARGE_N_1D
    for _ in range(CANDIDATES):
        model = (
            float(np.exp(rng.uniform(-0.5, 0.5))),
            float(rng.uniform(-2.0, 2.0)),
            float(np.exp(rng.uniform(-0.5, 1.0))),
        )
        data = (model[1] + rng.standard_normal(n) * 1.5).tolist()
        cands.append((model, data, _alpha_off(rng, _levels(n))))

    def run():
        bayes = gridcp.bayes
        rejections = {"consonance": 0, "tie": 0}
        for (sd, mean, prior_sd), data, alpha in cands:
            model = bayes.ConjugateModel(likelihood_sd=sd, prior_mean=mean, prior_sd=prior_sd)
            sample = gridcp.Sample.of(data)
            probe = bayes.posterior_predictive(
                model, sample, gridcp.make_uniform_grid([(-1.0, 1.0)], [3])
            )
            universe = gridcp.make_uniform_grid(
                [(probe.mean - 6.0 * probe.sd, probe.mean + 6.0 * probe.sd)], [LARGE_COUNT_1D]
            )
            pd = bayes.posterior_predictive(model, sample, universe)
            dens = pd.density(np.asarray(data))
            if len(set(dens.tolist())) != len(data):
                rejections["tie"] += 1
                continue
            if max(pd.evaluated) < float(np.max(dens)):
                rejections["consonance"] += 1
                continue
            ok, detail = bayes.bayes_triangle_detail(alpha, model, sample, universe)
            return ok, detail, rejections
        return None, None, rejections

    def check(outcome) -> Verdict:
        ok, detail, rejections = outcome
        if ok is None:
            return Verdict(["bayes_1d: no tie-free consonant instance"],
                           rejections=sum(rejections.values()))
        p = [] if ok else ["bayes_1d: quant, kappa and ihdr regions differ"]
        fields = {
            "ok": ok,
            "consonant": detail["consonant"],
            "regions": [
                hashlib.sha256(json.dumps(detail[k]).encode()).hexdigest()[:16]
                for k in ("quant", "kappa", "ihdr")
            ],
            "rejections": rejections,
        }
        return Verdict(p, fields, instances=1, rejections=sum(rejections.values()))

    return Op("bayes_1d", run, check, BAYES_1D_REPEATS)


def _large_ops(seed: int) -> list[Op]:
    return [
        _region_2d_op("region_2d_n20", 20, _rng(seed, 20)),
        _region_2d_op("region_2d_n100", 100, _rng(seed, 100)),
        _bayes_1d_op(_rng(seed, 1)),
    ]


def known_defects(outdir: Path) -> dict:
    """Probe defects the workloads route around, so they stay on record.

    `ck coverage` with a 2-D grid raised IndexError when this benchmark was
    written; the probe reports what it does now.
    """
    import gridcp.cli

    cfg = outdir / "coverage_2d.config.json"
    cfg.write_text(json.dumps({
        "seed": 0, "trials": 1, "n": 5,
        "grid": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [5, 5]},
    }))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gridcp.cli.main(["coverage", "--config", str(cfg)])
    except Exception as exc:  # the defect under record; any type is reported
        return {"coverage_2d_grid": f"{type(exc).__name__}: {exc}"}
    return {"coverage_2d_grid": f"exit code {rc}"}
