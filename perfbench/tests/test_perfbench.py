"""Tests of the benchmark's own code: span arithmetic, statistics, failure
counting, golden digests, wrapper round trips and the output contract.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridcp
import gridcp.cli
from perfbench import calibrate, metrics, stats, tracing, workloads
from perfbench.run import (
    Run, _gridcp_module_names as _module_names, end_to_end, measure, run_pass, set_up,
)
from perfbench.tracing import Span, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]


# -- spans -------------------------------------------------------------------


def nested_spans():
    # op [0, 10] > a [1, 7] (0.5 s of hot calls) > b [2, 4], c [5, 6]
    return [
        Span(0, None, "op", 0.0, 10.0),
        Span(1, 0, "m.a", 1.0, 7.0, hot_s=0.5),
        Span(2, 1, "m.b", 2.0, 4.0),
        Span(3, 1, "n.c", 5.0, 6.0),
    ]


def test_self_time_subtracts_children_and_hot_time():
    assert self_times(nested_spans()) == [4.0, 2.5, 2.0, 1.0]


def test_breakdown_accounts_for_the_whole_operation():
    tracer = Tracer()
    tracer.reset()
    tracer.spans = nested_spans()
    tracer.hot = {("op", "m.h"): [3, 0.5]}
    summary = summarize(tracer)
    assert summary.breakdown == {"op": {"uncovered": 4.0, "m": 5.0, "n": 1.0}}
    assert sum(summary.breakdown["op"].values()) == 10.0
    assert summary.functions[("op", "m.a")] == [1, 6.0, 2.5]
    assert summary.total("m.h", 0) == 3
    assert summary.total("m.a", 1, op="other") == 0


def test_summary_times_scale_and_counts_do_not():
    tracer = Tracer()
    tracer.reset()
    tracer.spans = nested_spans()
    tracer.hot = {("op", "m.h"): [3, 0.5]}
    summary = summarize(tracer, time_scale=0.5)
    assert summary.breakdown == {"op": {"uncovered": 2.0, "m": 2.5, "n": 0.5}}
    assert summary.functions[("op", "m.a")] == [1, 3.0, 1.25]
    assert summary.total("m.h", 0) == 3


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("op")
    tracer.open("m.a")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- statistics ----------------------------------------------------------------


def test_median_and_percentile_selection():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    values = list(range(1, 21))
    assert stats.percentile(values, 50) == 10
    assert stats.percentile(values, 90) == 18
    assert stats.percentile(values, 100) == 20
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)


def test_failed_ratio_counts_operations_not_problems():
    tally = stats.Tally()
    for problems in ([], [], ["a", "b"], []):
        tally.record(problems)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_ratio == 0.25
    assert tally.reasons == ["a", "b"]


def ok_op(kind, value=1):
    return workloads.Op(kind, lambda: value, lambda v: workloads.Verdict([], {"v": v}))


def test_raising_and_wrong_operations_count_as_failed():
    def boom():
        raise IndexError("tuple index out of range")

    wrong = workloads.Op("wrong", lambda: 0, lambda v: workloads.Verdict(["equal != trials"], {}))
    run = Run("fake", 0, {})
    measure(run, [ok_op("fine"), workloads.Op("boom", boom, None), wrong],
            seconds=1e-9, trace=False)
    assert (run.tally.attempted, run.tally.failed) == (3, 2)
    assert any("IndexError" in r for r in run.tally.reasons)


def test_timings_are_divided_by_the_host_slowness(monkeypatch):
    # The rounds that interrupted the pass read REF_S to three times it: a
    # host running at half speed by their median.
    run = Run("fake", 0, {})
    monkeypatch.setattr(run.sampler, "ticks_since", lambda t: [
        calibrate.REF_S, 3 * calibrate.REF_S, 2 * calibrate.REF_S])
    measure(run, [ok_op("a"), ok_op("b")], seconds=1e-9, trace=False)
    (wall, slowness), = run.pass_walls
    assert slowness == 2.0
    assert run.passes == [(False, wall / 2)]
    assert [kind for _t, kind, _s in run.samples] == ["a", "b"]
    assert sum(secs for _t, _k, secs in run.samples) == pytest.approx(wall / 2)


def test_last_pass_runs_only_what_fits_and_pass_s_sums_medians():
    run = Run("fake", 0, {})
    ops = [ok_op("a"), workloads.Op("b", lambda: 2, lambda v: workloads.Verdict([]), repeats=2)]
    measure(run, ops, seconds=1e-9, trace=False)
    run_pass(run, ops, None, fits=lambda kind: kind == "b")
    assert [kind for _t, kind, _s in run.samples] == ["a", "b", "b", "b", "b"]
    assert len(run.passes) == 1 and run.tally.attempted == 5
    assert [kind for kind, _v in run.last_pass] == ["a", "b", "b"]
    run.samples = [(False, "a", 1.0), (False, "b", 0.5), (False, "b", 0.75), (False, "a", 3.0),
                   (True, "a", 9.0)]
    assert end_to_end(run, ops, [0.1])["pass_s"] == 2.0 + 2 * 0.625


def test_clock_leaves_out_interrupting_rounds():
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        t0, w0 = sampler.clock(), time.perf_counter()
        while len(sampler.ticks) < 2:
            pass
        clock_s, wall_s = sampler.clock() - t0, time.perf_counter() - w0
    finally:
        sampler.stop()
    assert len(sampler.ticks_since(t0)) == 2
    assert wall_s - clock_s == pytest.approx(sampler.paused, rel=1e-3)
    assert sampler.paused >= sum(sampler.ticks_since(t0))


def test_ratios_count_every_repeat_of_an_operation():
    run = Run("w", 0, {})
    run.passes = [(False, 2.0), (True, 2.5)]
    run.samples = [(False, "diagram", 1.0), (False, "bayes_1d", 0.5), (False, "bayes_1d", 0.5)]
    summary = tracing.PassSummary(
        functions={("diagram", "fullcp.transducer"): [6, 1.0, 1.0],
                   ("bayes_1d", "fullcp.transducer"): [6, 1.0, 1.0],
                   ("coverage", "fullcp.transducer"): [500, 1.0, 1.0]},
        breakdown={"diagram": {"uncovered": 0.25}, "bayes_1d": {"uncovered": 0.5}},
        counts=dict.fromkeys(tracing.COUNTER_NAMES, 0),
    )
    run.summaries = [summary]
    # "bayes_1d" ran twice in the pass; coverage computes one transducer per
    # instance and is left out of the waste ratio.
    run.last_pass = [("diagram", workloads.Verdict([], instances=2, rejections=0)),
                     ("bayes_1d", workloads.Verdict([], instances=1, rejections=1)),
                     ("bayes_1d", workloads.Verdict([], instances=1, rejections=1)),
                     ("coverage", workloads.Verdict([], instances=500))]
    values = metrics.per_layer(run)
    assert values["fullcp.transducers_per_instance"] == 12 / 4
    assert values["harness.accept_ratio"] == 4 / 6
    assert values["trace.overhead_ratio"] == 1.25
    assert values["trace.uncovered_s"] == 0.75
    assert values["fullcp.transducer.calls"] == 512
    assert set(values) == {m[0] for m in metrics.PER_LAYER}


# -- goldens -----------------------------------------------------------------


def test_flipped_golden_bit_is_detected():
    grid = gridcp.make_uniform_grid([(0.0, 1.0)], [40])
    region = grid.region([1, 5, 33])
    flipped = gridcp.Region(grid, region.bits ^ (1 << 17))
    golden = workloads.Verdict([], {"regions": [workloads._bits_digest(region)]})
    goldens = {"w": {"3": {"k": golden.digest}}}

    same = Run("w", 3, goldens)
    same.judge("k", workloads.Verdict([], {"regions": [workloads._bits_digest(region)]}))
    assert same.tally.failed == 0

    run = Run("w", 3, goldens)
    run.judge("k", workloads.Verdict([], {"regions": [workloads._bits_digest(flipped)]}))
    assert run.tally.failed == 1
    assert "golden" in run.tally.reasons[0]


def test_verdict_that_changes_between_passes_fails():
    run = Run("w", 3, {})
    run.judge("k", workloads.Verdict([], {"equal": 200}))
    run.judge("k", workloads.Verdict([], {"equal": 199}))
    assert (run.tally.attempted, run.tally.failed) == (2, 1)


def test_pinned_counts_are_checked():
    cfg = {"trials": 200, "extras": {"brute_trials": 100}}
    fam = {"score_family": "f", "trials": 200, "equal": 200, "brute_checked": 100,
           "brute_equal": 100, "consonance_rejections": 7, "counterexamples": []}
    good = workloads._check_diagram({"families": [fam, dict(fam, score_family="g")]}, cfg)
    assert good.problems == []
    assert (good.instances, good.rejections) == (400, 14)
    off = workloads._check_diagram({"families": [fam, dict(fam, brute_checked=99)]}, cfg)
    assert any("brute_checked" in p for p in off.problems)


# -- wrappers ----------------------------------------------------------------


def bindings():
    """Every name under gridcp that tracing may patch, with its object."""
    out = {}
    for mod in tracing._gridcp_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    out[(mod.__name__, key, dkey)] = dvalue
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for ckey, cvalue in vars(value).items():
                    out[(mod.__name__, key, "class", ckey)] = cvalue
    return out


def test_install_and_uninstall_round_trip():
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert gridcp.kappa is not before[("gridcp", "kappa")]
        assert gridcp.harness.kappa is gridcp.fullcp.kappa is gridcp.kappa
        assert gridcp.imprecise.transducer is gridcp.fullcp.transducer
        assert gridcp.harness.EXPERIMENTS["coverage"] is gridcp.harness.run_coverage
        assert gridcp.harness.EXPERIMENTS["coverage"] is not before[
            ("gridcp.harness", "run_coverage")]
        assert "nearest_index" in gridcp.Grid.__dict__
        with pytest.raises(RuntimeError):
            tracer.install()

        op = tracer.open("op")
        grid = gridcp.make_uniform_grid([(-1.0, 1.0)], [9])
        gridcp.kappa(0.13, gridcp.Sample.of([0.1, 0.5, -0.3]), gridcp.MeanAbsDistance(), grid)
        grid.nearest_index(0.2)
        tracer.close(op)
        trials = tracer.open("ihdr_oracle")
        gridcp.harness.run_experiment(
            gridcp.ExperimentConfig(experiment="ihdr_oracle", seed=1, trials=3))
        tracer.close(trials)
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = summarize(tracer)
    assert summary.total("fullcp.kappa", 0, op="op") == 1
    assert summary.total("fullcp.transducer", 0, op="op") == 1
    assert summary.total("scores.loo_matrix", 0, op="op") == 1
    assert summary.total("grid.nearest_index", 0, op="op") == 1
    assert summary.total("grid.make_uniform_grid", 0, op="op") == 1
    assert summary.counts["scores.loo_cells"] == 9 * 4
    assert summary.total("harness.trial", 0, op="ihdr_oracle") == 3
    assert summary.total("harness.run_ihdr_oracle", 0) == 1


def test_untraced_run_installs_nothing():
    before = bindings()
    seen = []

    def probe():
        seen.append(gridcp.kappa is before[("gridcp", "kappa")])
        return 1

    run = Run("fake", 0, {})
    measure(run, [workloads.Op("p", probe, lambda v: workloads.Verdict([]))],
            seconds=1e-9, trace=False)
    assert seen == [True]
    assert all(bindings()[k] is v for k, v in before.items())


def test_timing_a_set_up_keeps_the_live_modules(tmp_path):
    live = {name: sys.modules[name] for name in _module_names()}
    ops, secs = set_up("law_campaigns", 1, tmp_path)
    assert secs > 0 and [op.kind for op in ops] == ["monad_laws", "category_axioms"]
    assert {name: sys.modules[name] for name in _module_names()} == live
    assert all(sys.modules[name] is mod for name, mod in live.items())


# -- contract ----------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(trace):
    proc = run_benchmark(ROOT, "--workload", "trial_campaigns", "--seed", "0",
                         "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in names}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_gridcp_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "large_grids", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
