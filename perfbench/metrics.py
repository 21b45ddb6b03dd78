"""Metric names, units and how each is computed from one run's records.

BENCHMARK.json lists the same metrics; a test keeps the two in step.

End-to-end metrics exist on every workload, so they are per workload, not
per experiment: set-up time, the time of one closed-loop pass over the
workload's operations, and peak resident memory. Times are adjusted for the
host's speed (see calibrate.py).

Per-layer metrics come from a traced run. Each is the median over the traced
passes of a per-pass total; counts repeat exactly from pass to pass. The
per-operation times (`coverage_s`, ...) are medians over the untraced
passes of that run, and read zero on workloads without the operation, as do
the layer metrics of modules a workload never calls.
"""

from __future__ import annotations

from perfbench.stats import median

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

KINDS = {
    "trial_campaigns": ("coverage", "diagram", "bayes_triangle", "ihdr_oracle", "eposterior"),
    "large_grids": ("region_2d_n20", "region_2d_n100", "bayes_1d"),
    "law_campaigns": ("monad_laws", "category_axioms"),
}
EXPERIMENTS = KINDS["trial_campaigns"] + KINDS["law_campaigns"]
# Operations whose instances each compute more than one transducer (route
# comparisons); `fullcp.transducers_per_instance` is taken over these only,
# so that coverage's one transducer per trial does not dilute it.
TRANSDUCER_WASTE_OPS = ("diagram", "bayes_triangle", "region_2d_n20", "region_2d_n100", "bayes_1d")

# Function metrics: traced function, column ("calls", "s" or "self_s").
_FUNCTION_METRICS = (
    ("grid.make_uniform_grid", "calls"),
    ("grid.make_uniform_grid", "s"),
    ("grid.nearest_index", "calls"),
    ("grid.nearest_index", "s"),
    ("scores.loo_matrix", "calls"),
    ("scores.loo_matrix", "s"),
    ("fullcp.transducer", "calls"),
    ("fullcp.transducer", "self_s"),
    ("fullcp.superlevel_region", "s"),
    ("fullcp.kappa", "calls"),
    ("imprecise.ihdr_bruteforce", "calls"),
    ("imprecise.ihdr_bruteforce", "s"),
    ("imprecise.cred", "s"),
    ("imprecise.ihdr_contour", "s"),
    ("bayes.quant", "s"),
    ("bayes.posterior_predictive", "calls"),
    ("bayes.bayes_triangle_detail", "s"),
    ("bayes.check_eposterior", "s"),
    ("catlaws.compose", "calls"),
    ("catlaws.compose", "s"),
    ("catlaws.vietoris_map", "calls"),
    ("catlaws.vietoris_map", "s"),
    ("catlaws.tensor", "calls"),
    ("catlaws.tensor", "s"),
    ("catlaws.check_monad_laws", "s"),
    ("catlaws.check_functor_laws", "s"),
    ("catlaws.downset_divergence_report", "s"),
    ("catlaws.check_category_axioms", "s"),
    ("catlaws.check_tensor_laws", "s"),
    ("harness.emit", "s"),
    ("cli.main", "self_s"),
)
_COLUMN = {"calls": 0, "s": 1, "self_s": 2}


_COUNTS = (
    ("grid.points_built", "count"),
    ("scores.loo_cells", "count"),
    ("scores.loo_bytes_computed", "B"),
    ("imprecise.subsets_enumerated", "count"),
)

# name, unit, better
PER_LAYER = (
    *((f"{kind}_s", "s", "lower") for kinds in KINDS.values() for kind in kinds),
    ("failed_ratio", "ratio", "lower"),
    *(
        (f"{fn}.{col}", "count" if col == "calls" else "s", "lower")
        for fn, col in _FUNCTION_METRICS
    ),
    # The experiment's own harness code: run_<experiment> and its trials.
    *((f"harness.{e}.self_s", "s", "lower") for e in EXPERIMENTS),
    *((name, unit, "lower") for name, unit in _COUNTS),
    ("fullcp.transducers_per_instance", "ratio", "lower"),
    ("harness.accept_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)
_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": v, "unit": _UNITS[name]} for name, v in values.items()}


def per_layer(run) -> dict[str, float]:
    """Every PER_LAYER value of a traced run (see run.Run)."""
    passes = run.summaries
    out: dict[str, float] = {}
    for kinds in KINDS.values():
        for kind in kinds:
            samples = run.op_times(traced=False).get(kind)
            out[f"{kind}_s"] = median(samples) if samples else 0.0
    out["failed_ratio"] = run.tally.failed_ratio
    for fn, col in _FUNCTION_METRICS:
        out[f"{fn}.{col}"] = median(p.total(fn, _COLUMN[col]) for p in passes)
    for e in EXPERIMENTS:
        out[f"harness.{e}.self_s"] = median(
            p.total(f"harness.run_{e}", 2, op=e) + p.total("harness.trial", 2, op=e)
            for p in passes
        )
    for name, _unit in _COUNTS:
        out[name] = median(p.counts[name] for p in passes)

    # Transducers per instance over the operations that compute several per
    # instance, and accepted over drawn instances; both repeat exactly from
    # pass to pass.
    last = passes[-1]
    wasteful = [(kind, v) for kind, v in run.last_pass if kind in TRANSDUCER_WASTE_OPS]
    instances = sum(v.instances for _kind, v in wasteful)
    transducers = sum(last.total("fullcp.transducer", 0, op=kind)
                      for kind in {kind for kind, _v in wasteful})
    out["fullcp.transducers_per_instance"] = transducers / instances if instances else 0.0
    sampled = [v for _kind, v in run.last_pass if v.rejections is not None]
    drawn = sum(v.instances + v.rejections for v in sampled)
    out["harness.accept_ratio"] = sum(v.instances for v in sampled) / drawn if drawn else 0.0

    out["trace.overhead_ratio"] = median(run.pass_times(traced=True)) / median(
        run.pass_times(traced=False)
    )
    out["trace.uncovered_s"] = median(
        sum(rows.get("uncovered", 0.0) for rows in p.breakdown.values()) for p in passes
    )
    return out
