"""Experiment orchestration: determinism, coverage behavior, CLI contract."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp import bayes, catlaws, cli, config, harness
from gridcp import scores as scores_module
from gridcp.fullcp import TieLevelError, check_level, kappa, transducer
from gridcp.grid import Region, Sample, make_uniform_grid
from gridcp.harness import (
    ExperimentConfig,
    emit,
    run_bayes_triangle,
    run_coverage,
    run_diagram,
    run_eposterior,
    run_ihdr_oracle,
    wilson_lower_bound,
)
from gridcp.imprecise import cred
from gridcp.scores import MeanAbsDistance, PrototypeEmbedding
from test_fullcp import Malformed, Unranked


class TestWilson:
    def test_full_hits(self):
        assert 0.94 < wilson_lower_bound(100, 100) < 1.0

    def test_monotone_in_hits(self):
        assert wilson_lower_bound(90, 100) > wilson_lower_bound(80, 100)

    def test_below_point_estimate(self):
        assert wilson_lower_bound(90, 100) < 0.9

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_lower_bound(0, 0)


class TestConfig:
    def test_tie_alpha_rejected_for_coverage(self):
        with pytest.raises(ValueError, match="attainable"):
            ExperimentConfig(experiment="coverage", alpha=0.5, n=19)
        with pytest.raises(ValueError, match="attainable"):
            ExperimentConfig(experiment="coverage", alpha=1e308, n=19)

    def test_off_tie_alpha_accepted(self):
        cfg = ExperimentConfig(experiment="coverage", alpha=0.5, n=20)
        assert cfg.alpha == 0.5  # 0.5 is not of the form k/21

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(experiment="nope")

    def test_huge_n_is_checked_without_building_levels(self):
        # The tie check tests a few levels next to alpha*(n+1); building all
        # n+2 of them would take gigabytes here.
        tracemalloc.start()
        try:
            check_level(0.13, 10**9)
            with pytest.raises(TieLevelError, match="attainable"):
                check_level(0.5 + 0.5 / (10**9 + 1), 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_grid_is_refused_without_building_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit"):
                ExperimentConfig(experiment="coverage", grid_counts=(10**9,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_from_json_obj(self):
        cfg = ExperimentConfig.from_json_obj(
            {
                "experiment": "coverage",
                "seed": 7,
                "trials": 50,
                "alpha": 0.13,
                "n": 10,
                "grid": {"bounds": [[-4, 4]], "counts": [51]},
                "scenario": "iid_uniform",
            }
        )
        assert cfg.seed == 7
        assert cfg.grid_counts == (51,)
        assert cfg.scenario == "iid_uniform"

    @pytest.mark.parametrize(
        "experiment, field, value",
        [
            ("ihdr_oracle", "trials", 2.5),
            ("ihdr_oracle", "seed", 1.5),
            ("ihdr_oracle", "trials", True),
            ("coverage", "n", 20.0),
            ("ihdr_oracle", "seed", True),
        ],
    )
    def test_python_built_field_of_the_wrong_type_is_refused(self, experiment, field, value):
        # Unrefused, trials=2.5 dies mid-run in numpy, seed=1.5 in the stream
        # keys, and trials=True writes "trials": true into a passing report.
        with pytest.raises(ValueError, match=f"^config field {field}: "):
            ExperimentConfig(experiment=experiment, **{field: value})

    def test_fields_hold_their_converted_values(self):
        # Every field is converted, also those the experiment does not read.
        cfg = ExperimentConfig(
            experiment="diagram",
            alpha=1,
            grid_bounds=[[-4, 4]],
            grid_counts=[51],
            score={"kind": "prototype_embedding"},
        )
        assert type(cfg.alpha) is float and cfg.alpha == 1.0
        assert cfg.grid_bounds == ((-4.0, 4.0),) and cfg.grid_counts == (51,)
        assert cfg.score == "prototype_embedding"

    @pytest.mark.parametrize("experiment", list(harness.EXPERIMENTS))
    def test_extras_hold_every_default(self, experiment):
        defaults = {
            "coverage": {"score_params": None},
            "diagram": {
                "score_families": ["mean_abs_distance", "prototype_embedding"],
                "brute_trials": 100,
                "brute_grid_limit": 12,
            },
            "eposterior": {"theta_count": 101, "y_count": 101},
        }.get(experiment, {})
        assert ExperimentConfig(experiment=experiment).extras == defaults
        if defaults:
            key = next(iter(defaults))
            given = {key: defaults[key]}
            assert ExperimentConfig(experiment=experiment, extras=given).extras == defaults
            assert given == {key: defaults[key]}  # the caller's dict is not completed

    @pytest.mark.parametrize("experiment", list(harness.EXPERIMENTS))
    def test_json_defaults_are_the_field_defaults(self, experiment):
        parsed = ExperimentConfig.from_json_obj({"experiment": experiment})
        built = ExperimentConfig(experiment=experiment)
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(parsed, f.name) == getattr(built, f.name), f.name


class TestScoreConfig:
    """The score a coverage config names, parsed once, by the harness."""

    @staticmethod
    def config(score, extras=None) -> dict:
        return {"experiment": "coverage", "score": score, "extras": extras or {}}

    def test_unknown_kind(self):
        for kind in ("nope", "neg_predictive_density"):
            with pytest.raises(ValueError, match=f"unknown score kind '{kind}'"):
                ExperimentConfig.from_json_obj(self.config(kind))

    def test_prototype_without_params_is_the_identity_embedding(self):
        psi = ExperimentConfig.from_json_obj(self.config({"kind": "prototype_embedding"})).psi
        assert isinstance(psi, PrototypeEmbedding)
        ((W, b),) = psi.net.layers
        assert W.tolist() == [[1.0]] and b.tolist() == [0.0]

    @pytest.mark.parametrize(
        "score, params, named",
        [
            ({"kind": "mean_abs_distance", "parms": {}}, None, "'parms'"),
            ({"kind": ["mean_abs_distance"]}, None, "unknown score kind"),
            ("prototype_embedding", {"weights": 5, "biases": [1]}, "extras.score_params"),
            ("prototype_embedding", {"weights": [[[1.0]]]}, "extras.score_params"),
            ("prototype_embedding", {"weights": [[[math.nan]]], "biases": [[0]]},
             "extras.score_params"),
            ([1, 2], None, "unknown score kind"),
        ],
        ids=["unknown_key", "list_kind", "weights_not_a_list", "no_biases", "nan_weight",
             "list_score"],
    )
    def test_malformed_score_is_a_value_error(self, score, params, named):
        extras = {} if params is None else {"score_params": params}
        with pytest.raises(ValueError, match=named):
            ExperimentConfig.from_json_obj(self.config(score, extras))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The oracle for a trial's stream: a fresh generator keyed by
    SeedSequence((seed, trial))."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial))))


def _draws(rng: np.random.Generator) -> list:
    return [
        rng.integers(0, 10, 3, dtype=np.uint32).tolist(),
        rng.uniform(-1.0, 1.0, 2).tolist(),
        rng.standard_normal(3).tolist(),
    ]


# Indices and seeds next to where an int's uint32 words change in number.
_WORD_EDGES = [0, 2**32, 2**64]


class TestMapTrials:
    def test_streams_sums_and_witnesses(self):
        cfg = ExperimentConfig(experiment="ihdr_oracle", seed=3, trials=4)

        def one_trial(rng, t):
            return {
                "odd": t % 2 == 1,
                "t": t,
                "draw": int(rng.integers(1 << 62)),
                "witness": {"t": t} if t > 1 else None,
            }

        out = harness._map_trials(one_trial, cfg, stream=10)
        draws = [int(_trial_rng(3, 10 + t).integers(1 << 62)) for t in range(4)]
        assert out == {
            "odd": 2,
            "t": 6,
            "draw": sum(draws),
            "counterexamples": [{"t": 2}, {"t": 3}],
        }
        assert type(out["odd"]) is int

    @pytest.mark.parametrize("stream", [7, 2**32 - 3])
    def test_no_state_leaks_between_trials(self, monkeypatch, stream):
        # Each trial leaves a half-used uint32 word and a partly read Philox
        # buffer behind; the next trial's draws are still a fresh stream's.
        # Chunks of 2 and the 2**32 block edge make keys come from several calls.
        monkeypatch.setattr(harness, "_STREAM_CHUNK", 2)
        cfg = ExperimentConfig(experiment="ihdr_oracle", seed=11, trials=7)

        def one_trial(rng, t):
            assert _draws(rng) == _draws(_trial_rng(11, stream + t))
            while not (state := rng.bit_generator.state)["has_uint32"] or state["buffer_pos"] == 4:
                rng.integers(2**32, dtype=np.uint32)
            return {"checked": 1}

        assert harness._map_trials(one_trial, cfg, stream=stream)["checked"] == 7

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**130 - 1) | st.sampled_from(_WORD_EDGES).map(lambda e: max(e - 1, 0)),
        edge=st.sampled_from(_WORD_EDGES),
        offset=st.integers(-40, 40),
        count=st.integers(1, 80),
    )
    def test_keys_are_seed_sequence_keys(self, seed, edge, offset, count):
        start = max(edge + offset, 0)
        for i, rng in enumerate(harness._trial_streams(seed, start, count), start):
            key = np.random.SeedSequence((seed, i)).generate_state(2, np.uint64)
            assert rng.bit_generator.state["state"]["key"].tolist() == key.tolist()

    def test_memory_does_not_grow_with_trials(self):
        start = 2**32 - 5
        tracemalloc.start()
        try:
            streams = harness._trial_streams(5, start, 2**40)
            for i, rng in enumerate(itertools.islice(streams, 10_000), start):
                assert rng.integers(1 << 62) == _trial_rng(5, i).integers(1 << 62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19


class TestSampleAlpha:
    def test_redraws_only_an_avoided_value(self):
        """Levels are compared exactly, so a draw 1e-12 off an avoided level
        is kept."""
        level = 3 / 7
        draws = iter([level, level + 1e-12])

        class StubRng:
            def uniform(self, lo, hi):
                return next(draws)

        assert harness._sample_alpha(StubRng(), (1 / 7, level)) == level + 1e-12


class TestCoverage:
    def test_small_gaussian_run(self):
        cfg = ExperimentConfig(
            experiment="coverage",
            seed=1,
            trials=200,
            alpha=0.13,
            n=20,
            grid_bounds=((-6.0, 6.0),),
            grid_counts=(201,),
        )
        rep = run_coverage(cfg)
        assert rep["hits"] <= rep["trials"]
        assert rep["empirical_coverage"] == rep["hits"] / rep["trials"]
        assert rep["pass"]

    def test_alpha_below_plausibility_floor_covers_everything(self):
        # pi >= 1/(n+1) = 1/21 > 0.009, so the region is the full grid and
        # every trial hits.
        cfg = ExperimentConfig(
            experiment="coverage",
            seed=2,
            trials=60,
            alpha=0.009,
            n=20,
            grid_counts=(101,),
        )
        rep = run_coverage(cfg)
        assert rep["hits"] == rep["trials"]

    def test_exchangeable_mixture_respects_bound(self):
        cfg = ExperimentConfig(
            experiment="coverage",
            seed=3,
            trials=400,
            alpha=0.13,
            n=15,
            grid_bounds=((-9.0, 9.0),),
            grid_counts=(201,),
            scenario="exchangeable_mixture",
        )
        rep = run_coverage(cfg)
        slack = 3.0 * math.sqrt(0.13 * 0.87 / 400)
        assert rep["empirical_coverage"] >= 0.87 - slack

    def test_uniform_scenario_runs(self):
        cfg = ExperimentConfig(
            experiment="coverage",
            seed=4,
            trials=100,
            alpha=0.23,
            n=10,
            grid_bounds=((-4.0, 4.0),),
            grid_counts=(101,),
            scenario="iid_uniform",
        )
        assert run_coverage(cfg)["pass"]

    def test_grid_and_score_are_built_once(self, monkeypatch):
        built = []
        build = config.make_uniform_grid

        def counting(bounds, counts):
            built.append(counts)
            return build(bounds, counts)

        monkeypatch.setattr(config, "make_uniform_grid", counting)
        cfg = ExperimentConfig(experiment="coverage", trials=5, n=4, grid_counts=(41,))
        assert run_coverage(cfg)["trials"] == 5
        assert built == [(41,)]
        # Flags override the config's fields before the one config is built.
        assert cli.main(["coverage", "--seed", "1", "--trials", "2"]) in (0, 1)
        assert built == [(41,), (201,)]

    def test_prototype_score_respects_bound(self):
        # The guarantee is score-free; the embedding score must satisfy it too.
        cfg = ExperimentConfig(
            experiment="coverage",
            seed=12,
            trials=300,
            alpha=0.23,
            n=10,
            grid_bounds=((-4.0, 4.0),),
            grid_counts=(101,),
            score="prototype_embedding",
        )
        rep = run_coverage(cfg)
        assert rep["score"] == "prototype_embedding"
        assert rep["pass"]


def _coverage_hits_by_trial(cfg: ExperimentConfig) -> int:
    """The coverage loop one trial at a time: snap the trial's draws, build
    its region with `kappa`, count a hit when the test point is in it."""
    universe, psi, draw = cfg.universe, cfg.psi, harness._SCENARIOS[cfg.scenario]
    hits = 0
    for t in range(cfg.trials):
        raw = draw(_trial_rng(cfg.seed, t), cfg.n + 1)
        idxs = [universe.nearest_index(v) for v in raw]
        y_n = Sample(universe.points[idxs[: cfg.n]])
        hits += idxs[cfg.n] in kappa(cfg.alpha, y_n, psi, universe)
    return hits


_TWO_LAYER_PARAMS = {
    "weights": [[[1.5], [-0.7], [0.3]], [[0.4, -1.1, 0.9], [0.2, 0.5, -0.8]]],
    "biases": [[0.1, -0.2, 0.05], [0.3, -0.1]],
}


class TestCoverageChunks:
    """Trials scored a chunk at a time give the per-trial loop's hits."""

    @pytest.mark.parametrize("n, count, trials", [(1, 11, 9), (5, 51, 70), (20, 201, 10)])
    @pytest.mark.parametrize(
        "score, params",
        [
            ("mean_abs_distance", None),
            ("prototype_embedding", None),
            ("prototype_embedding", _TWO_LAYER_PARAMS),
        ],
        ids=["mean_abs", "prototype_identity", "prototype_two_layer"],
    )
    @pytest.mark.parametrize("scenario", ["iid_gaussian", "iid_uniform", "exchangeable_mixture"])
    def test_hits_equal_the_per_trial_oracle(self, scenario, score, params, n, count, trials):
        cfg = ExperimentConfig(
            experiment="coverage",
            seed=n + count,
            trials=trials,
            alpha=0.23,
            n=n,
            grid_bounds=((-3.0, 3.0),),
            grid_counts=(count,),
            score=score,
            scenario=scenario,
            extras={} if params is None else {"score_params": params},
        )
        assert run_coverage(cfg)["hits"] == _coverage_hits_by_trial(cfg)

    @pytest.mark.parametrize("chunk", [1, 3, 4])
    def test_partial_last_chunk(self, monkeypatch, kernel_calls, chunk):
        # 10 trials in chunks of 3 or 4 leave a short last chunk.
        cfg = ExperimentConfig(experiment="coverage", seed=8, trials=10, n=6, grid_counts=(31,))
        monkeypatch.setattr(scores_module, "_BLOCK_CELLS", chunk * 5 * 6)
        assert scores_module._per_block(5 * 6) == chunk
        hits = run_coverage(cfg)["hits"]
        assert kernel_calls.shapes == [(min(chunk, 10 - lo), 1, 7) for lo in range(0, 10, chunk)]
        assert hits == _coverage_hits_by_trial(cfg)

    def test_acceptance_shape_scores_one_row_per_trial(self, kernel_calls):
        # One kernel call per chunk, the last one short, each scoring its
        # samples at their test points only: no (T, G, n+1) table of a chunk
        # is built.
        cfg = ExperimentConfig(experiment="coverage", seed=0, trials=2000, n=20, grid_counts=(201,))
        run_coverage(cfg)
        chunk = scores_module._per_block(5 * 20)
        assert 1 < chunk < 2000 and 2000 % chunk
        assert len(kernel_calls) == math.ceil(2000 / chunk)
        assert kernel_calls.shapes == [(min(chunk, 2000 - lo), 1, 21) for lo in range(0, 2000, chunk)]

    @pytest.mark.parametrize(
        "psi, match", [(Malformed(), "malformed"), (Unranked(), "must lie in 1..n")]
    )
    def test_refuses_what_transducer_refuses(self, monkeypatch, psi, match):
        monkeypatch.setattr(config, "_score_for", lambda cfg: psi)
        cfg = ExperimentConfig(experiment="coverage", trials=5, n=4, grid_counts=(41,))
        with pytest.raises(ValueError, match=match):
            run_coverage(cfg)

    def test_acceptance_shape_sums_in_fixed_point(self, monkeypatch):
        # Every chunk's partial sums take the fixed-point path, the short
        # last chunk included: none falls back to the fsum loop unseen.
        taken, fixed_sums = [], scores_module._fixed_sums

        def spy(flat):
            out = fixed_sums(flat)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(scores_module, "_fixed_sums", spy)
        for score in ("mean_abs_distance", "prototype_embedding"):
            taken.clear()
            cfg = ExperimentConfig(experiment="coverage", seed=0, trials=2000, n=20, grid_counts=(201,),
                                   score=score)
            run_coverage(cfg)
            assert taken == [True] * math.ceil(2000 / scores_module._per_block(5 * 20)), score

    def test_acceptance_shape_stays_in_small_chunks(self):
        # All 2,000 trials of the acceptance shape stacked at once would take
        # 2000 x 201 x 21 doubles, 64 MiB, for the tables alone.
        cfg = ExperimentConfig(experiment="coverage", seed=0, trials=2000, n=20, grid_counts=(201,))
        run_coverage(dataclasses.replace(cfg, trials=1))  # first-use imports
        tracemalloc.start()
        try:
            run_coverage(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCampaignsSmall:
    def test_diagram_small(self):
        cfg = ExperimentConfig(
            experiment="diagram",
            seed=5,
            trials=25,
            extras={"brute_trials": 10},
        )
        rep = run_diagram(cfg)
        assert rep["pass"]
        for fam in rep["families"]:
            assert fam["equal"] == 25
            assert fam["brute_checked"] == 10
            assert fam["brute_equal"] == 10

    def test_each_family_has_its_own_stream(self):
        # One family listed twice draws other instances the second time.
        cfg = ExperimentConfig(
            experiment="diagram",
            seed=7,
            trials=50,
            extras={"score_families": ["mean_abs_distance"] * 2},
        )
        first, second = run_diagram(cfg)["families"]
        assert first["consonance_rejections"] != second["consonance_rejections"]

    def test_bayes_triangle_small(self):
        rep = run_bayes_triangle(
            ExperimentConfig(experiment="bayes_triangle", seed=6, trials=20)
        )
        assert rep["equal"] == 20
        assert rep["counterexamples"] == []

    def test_ihdr_oracle_small(self):
        rep = run_ihdr_oracle(ExperimentConfig(experiment="ihdr_oracle", seed=7, trials=40))
        assert rep["pass"]

    def test_eposterior_small_grids(self):
        rep = run_eposterior(
            ExperimentConfig(
                experiment="eposterior",
                seed=8,
                trials=1,
                extras={"theta_count": 31, "y_count": 31},
            )
        )
        assert rep["pass"]
        families = {r["family"]: r for r in rep["records"]}
        assert families["conforming"]["condition_holds"]
        assert not families["violating"]["condition_holds"]
        assert families["violating"]["max_evalue_expectation"] > 1.0


class TestKernelBudget:
    """The leave-one-out kernel runs once per (sample, score, grid): the
    ranking and contour routes share one transducer."""

    def test_transducer_kappa_and_cred_share_one_table(self, kernel_calls):
        grid = make_uniform_grid([(-2.0, 2.0)], [9])
        y_n, psi = Sample.of([0.3, -1.1, 0.25, 1.9]), MeanAbsDistance()
        t = transducer(y_n, psi, grid)
        kappa(0.33, y_n, psi, grid)
        cred(y_n, psi, grid)
        assert kernel_calls == ["mean_abs_distance"] and transducer(y_n, psi, grid) is t

    def test_bayes_triangle_detail_runs_the_kernel_once(self, kernel_calls):
        model = bayes.ConjugateModel(likelihood_sd=1.0, prior_mean=0.0, prior_sd=2.0)
        y_n = Sample.of([0.4, -0.7, 1.3, 0.1, -1.6])
        grid = make_uniform_grid([(-4.0, 4.0)], [41])
        bayes.bayes_triangle_detail(0.3, model, y_n, grid)
        assert kernel_calls == ["neg_predictive_density"]

    def test_diagram_runs_the_kernel_once_per_drawn_instance(self, kernel_calls):
        rep = run_diagram(
            ExperimentConfig(experiment="diagram", seed=5, trials=25, extras={"brute_trials": 10})
        )
        drawn = sum(f["trials"] + f["consonance_rejections"] for f in rep["families"])
        assert sum(f["consonance_rejections"] for f in rep["families"]) > 0
        assert len(kernel_calls) == drawn

    def test_bayes_triangle_runs_the_kernel_once_per_trial(self, kernel_calls):
        # Tie and consonance rejections are decided on the predictive alone.
        rep = run_bayes_triangle(ExperimentConfig(experiment="bayes_triangle", seed=2, trials=20))
        assert rep["consonance_rejections"] > 0
        assert kernel_calls == ["neg_predictive_density"] * 20


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="coverage", seed=9, trials=50, alpha=0.13, n=8, grid_counts=(51,)
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit(run_coverage(cfg), str(p1))
        emit(run_coverage(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_emission(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="coverage", seed=10, trials=20, alpha=0.13, n=5, grid_counts=(31,)
        )
        path = tmp_path / "rep.csv"
        emit(run_coverage(cfg), str(path), format="csv")
        text = path.read_text()
        assert text.startswith("key,value\n")
        assert "empirical_coverage" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit({"a": 1}, str(tmp_path / "x"), format="yaml")


class TestCli:
    def test_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(
            ["coverage", "--seed", "11", "--trials", "30", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True
        assert "PASS" in capsys.readouterr().out

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": "coverage",
                    "seed": 1,
                    "trials": 500,
                    "alpha": 0.23,
                    "n": 10,
                    "grid": {"bounds": [[-5, 5]], "counts": [51]},
                }
            )
        )
        out = tmp_path / "r.json"
        code = cli.main(
            [
                "coverage",
                "--config",
                str(cfg_path),
                "--trials",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["trials"] == 40  # CLI override wins
        assert rep["alpha"] == 0.23

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 0.5, "n": 19}))
        code = cli.main(["coverage", "--config", str(cfg_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"grid": {"bounds": [[-3, 3], [-3, 3]], "counts": [11, 11]}},
            {"scenario": "nope"},
            {"score": {"kind": "neg_predictive_density"}},
            {"grid": {"bounds": [["nan", 1]], "counts": [11]}},
            {"grid": {"counts": [0]}},
            {"n": 10**400},
        ],
        ids=["2d_grid", "unknown_scenario", "unsupported_score", "nan_bound", "zero_count", "huge_n"],
    )
    def test_bad_coverage_config_exit_two(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        code = cli.main(["coverage", "--config", str(cfg_path), "--trials", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "experiment, bad, named",
        [
            (
                "coverage",
                {
                    "score": {"kind": "prototype_embedding"},
                    "extras": {"score_params": {"weights": 5, "biases": [1]}},
                },
                "score_params",
            ),
            (
                "coverage",
                {
                    "score": {"kind": "prototype_embedding"},
                    "extras": {"score_params": {"weights": [[[1, 2]]], "biases": [[0]]}},
                },
                "2-D points",
            ),
            ("coverage", {"grid": 5}, "grid"),
            ("coverage", {"trails": 5}, "'trails'"),
            ("coverage", {"grid": {"count": [11]}}, "'count'"),
            ("coverage", {"score": {"kind": "mean_abs_distance", "params": {}}}, "'params'"),
            ("diagram", {"extras": {"brute_trials": "x"}}, "brute_trials"),
            ("diagram", {"extras": {"brute_trials": 1.5}}, "brute_trials"),
            ("diagram", {"extras": {"brute_grid_limit": -1}}, "brute_grid_limit"),
            ("diagram", {"extras": {"brute_grid_limit": 5}}, "brute_grid_limit"),
            ("diagram", {"extras": {"brute_grid_limit": 20}}, "brute_grid_limit"),
            ("diagram", {"extras": {"score_families": ["nope"]}}, "score_families"),
            ("diagram", {"extras": {"score_families": "mean_abs_distance"}}, "score_families"),
            ("diagram", {"extras": {"score_families": []}}, "score_families"),
            ("eposterior", {"extras": {"theta_count": 0}}, "theta_count"),
            ("eposterior", {"extras": {"y_count": "101"}}, "y_count"),
            ("eposterior", {"extras": {"y_count": True}}, "y_count"),
            ("diagram", {"extras": {"brute_trial": 5}}, "'brute_trial'"),
            ("bayes_triangle", {"extras": {"score_params": {}}}, "'score_params'"),
            ("coverage", {"model": {}}, "'model'"),
            ("coverage", {"grid": {"counts": [10**9]}}, "limit"),
            ("coverage", {"n": 10**9}, "limit"),
            ("eposterior", {"extras": {"theta_count": 10**5, "y_count": 10**5}}, "limit"),
            ("coverage", {"score": "neg_predictive_density"}, "'neg_predictive_density'"),
            ("coverage", {"trials": 2.9}, "field trials"),
            ("coverage", {"n": 20.5}, "field n"),
            ("coverage", {"grid": {"counts": [11.7]}}, "field grid.counts"),
            ("coverage", {"grid": {"counts": [201, 5]}}, "field grid: bounds and counts"),
            ("coverage", {"trials": "3"}, "field trials"),
            ("coverage", {"seed": True}, "field seed"),
            ("coverage", {"alpha": "0.2"}, "field alpha"),
            ("coverage", {"grid": {"bounds": [[-1, True]]}}, "field grid.bounds"),
            (
                "ihdr_oracle",
                {"alpha": 0.5, "n": 50, "scenario": "nope", "grid": {"counts": [3]},
                 "score": "bogus"},
                "coverage only",
            ),
            ("diagram", {"score": "mean_abs_distance"}, "'score'"),
            (
                "coverage",
                {
                    "score": "prototype_embedding",
                    "extras": {"score_params": {"weights": [[[1.0]]], "biases": [[math.nan]]}},
                },
                "extras.score_params",
            ),
            (
                "coverage",
                {
                    "score": "prototype_embedding",
                    "extras": {"score_params": {"weights": [[[10**400]]], "biases": [[0]]}},
                },
                "extras.score_params",
            ),
            (
                "coverage",
                {
                    "score": "prototype_embedding",
                    "extras": {"score_params": {"weights": [[[1.0]], [[1.0]]], "biases": [[0]]}},
                },
                "extras.score_params",
            ),
            (
                "coverage",
                {"extras": {"score_params": {"weights": [[[1.0]]], "biases": [[0]]}}},
                "extras.score_params",
            ),
            (
                "coverage",
                {
                    "score": "prototype_embedding",
                    "extras": {
                        "score_params": {"weights": [[[1.0]]], "biases": [[0]], "bias": [[0]]}
                    },
                },
                "extras.score_params",
            ),
            (
                "coverage",
                {"score": "prototype_embedding", "extras": {"score_params": []}},
                "extras.score_params",
            ),
            (
                "coverage",
                {"score": "prototype_embedding", "extras": {"score_params": 0}},
                "extras.score_params",
            ),
            (
                "coverage",
                {
                    "score": "prototype_embedding",
                    "extras": {"score_params": {"weights": [[[True]]], "biases": [[False]]}},
                },
                "extras.score_params",
            ),
            (
                "coverage",
                {
                    "score": "prototype_embedding",
                    "extras": {
                        "score_params": {
                            "weights": [[[1.0]], [[True]]],
                            "biases": [[0.0], [0.0]],
                        }
                    },
                },
                "extras.score_params",
            ),
        ],
        ids=[
            "malformed_score_params",
            "score_params_dimension",
            "non_object_grid",
            "unknown_key",
            "unknown_grid_key",
            "unknown_score_key",
            "string_brute_trials",
            "float_brute_trials",
            "negative_brute_grid_limit",
            "brute_grid_limit_below_the_least_grid",
            "brute_grid_limit_above_the_enumeration_limit",
            "unknown_score_family",
            "score_families_not_a_list",
            "no_score_families",
            "zero_theta_count",
            "string_y_count",
            "bool_y_count",
            "unknown_extras_key",
            "extras_key_of_another_experiment",
            "removed_model_key",
            "oversized_grid",
            "oversized_coverage_table",
            "oversized_eposterior_table",
            "unsupported_score_kind",
            "float_trials",
            "float_n",
            "float_grid_count",
            "more_counts_than_bounds",
            "string_trials",
            "bool_seed",
            "string_alpha",
            "bool_grid_bound",
            "coverage_keys_elsewhere",
            "score_for_diagram",
            "nan_bias",
            "overflowing_weight",
            "two_weights_one_bias",
            "score_params_for_mean_abs_distance",
            "unknown_score_params_key",
            "list_score_params",
            "zero_score_params",
            "bool_score_params",
            "bool_among_number_score_params",
        ],
    )
    def test_malformed_config_exit_two(self, tmp_path, capsys, experiment, bad, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        # A --trials flag would override the config's own trials field.
        trials = [] if "trials" in bad else ["--trials", "3"]
        code = cli.main([experiment, "--config", str(cfg_path), *trials])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert named in err

    @pytest.mark.parametrize(
        "cfg, named",
        [
            (
                {"trials": 5, "score": "prototype_embedding",
                 "extras": {"score_params": {"weights": [[[1e308]]], "biases": [[0.0]]}}},
                "extras.score_params",
            ),
            ({"trials": 50, "grid": {"bounds": [[-1e200, 1e200]], "counts": [201]}}, "grid"),
            (
                {"trials": 50, "grid": {"bounds": [[-1e200, 1e200]], "counts": [201]},
                 "score": "prototype_embedding",
                 "extras": {"score_params": {"weights": [[[1e200]]], "biases": [[0.0]]}}},
                "extras.score_params",
            ),
        ],
        ids=["embedding_overflows", "squares_overflow", "embedded_squares_overflow"],
    )
    def test_overflowing_scores_exit_two(self, tmp_path, capsys, cfg, named):
        # Unrefused, the first dies in fsum with a traceback, and the others
        # score every point inf, so every trial hits and the run passes.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["coverage", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid") and named in err

    def test_grid_wider_than_a_double_exit_two(self, tmp_path, capsys):
        # Unrefused, linspace overflows with two RuntimeWarnings and the grid
        # dies on an axis that is not strictly increasing.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"bounds": [[-1e308, 1e308]], "counts": [5]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["coverage", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config field grid: interval (-1e+308, 1e+308) has a non-finite width\n"

    def test_scores_just_inside_the_bound_run(self, tmp_path):
        # m * (4 * 1e150)^2 = 1.6e301 is finite; every score is too.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"bounds": [[-1e150, 1e150]], "counts": [201]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["coverage", "--config", str(cfg_path), "--trials", "20"]) == 0

    @pytest.mark.parametrize("theta_count", [1, 2, 3, 4])
    def test_eposterior_needs_four_parameter_values(self, tmp_path, capsys, theta_count):
        # Below 4 values the violating family's upper envelope integrates
        # below 1: that is a config error, not a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"extras": {"theta_count": theta_count, "y_count": 11}}))
        code = cli.main(["eposterior", "--config", str(cfg_path)])
        if theta_count < 4:
            assert code == 2
            assert "extras.theta_count" in capsys.readouterr().err
        else:
            assert code == 0

    @pytest.mark.parametrize("limit", [6, 16])
    def test_brute_grid_limit_in_range_runs(self, tmp_path, limit):
        # Both ends of the range: every brute-checked grid has 6 to `limit`
        # points, all within reach of the subset-enumeration oracle.
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg_path.write_text(json.dumps({"extras": {"brute_grid_limit": limit}}))
        code = cli.main(["diagram", "--config", str(cfg_path), "--trials", "8", "--out", str(out)])
        assert code == 0
        assert [f["brute_checked"] for f in json.loads(out.read_text())["families"]] == [8, 8]

    def test_non_object_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert cli.main(["coverage", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_diagram_trials_past_the_family_streams_exit_two(self, capsys):
        # Family f draws trial t from stream f * 1_000_003 + t: one trial more
        # and family 0 would check family 1's first instance again.
        assert ExperimentConfig(experiment="diagram", trials=1_000_003).trials == 1_000_003
        assert cli.main(["diagram", "--trials", "1000004"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: trials") and "1000003" in err

    def test_missing_config_file_exit_two(self):
        assert cli.main(["coverage", "--config", "/nonexistent.json"]) == 2

    def test_counterexample_exit_one(self, monkeypatch):
        monkeypatch.setitem(
            cli.EXPERIMENTS, "coverage", lambda cfg: {"pass": False, "seed": cfg.seed}
        )
        assert cli.main(["coverage", "--trials", "5"]) == 1

    def test_entry_point_installed(self):
        # The subprocess imports the gridcp this test imported.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gridcp.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "experiment" in proc.stdout


_FORCED = {"counterexamples": [{"law": "forced"}]}


class TestLawVerdicts:
    """A law report passes when none of its parts, and no element of a list
    part, holds a counterexample or a composition failure. Each case plants
    one such fault in the catlaws report of one call, the call whose first
    argument is `first`; the run must fail, and `ck` exit 1."""

    @pytest.mark.parametrize(
        "experiment, campaign, first, fault, where",
        [
            ("monad_laws", "check_functor_laws", 3, _FORCED, ["functor_laws"]),
            ("monad_laws", "check_monad_laws", 3, _FORCED, ["singleton_variant", 2]),
            (
                "monad_laws",
                "downset_divergence_report",
                2,
                {"composition_failures": 1},
                ["downset_variant", 1],
            ),
            ("category_axioms", "check_category_axioms", [2, 2, 2, 2], _FORCED, ["exhaustive"]),
            ("category_axioms", "check_category_axioms", [4, 4, 4, 4], _FORCED, ["randomized"]),
            ("category_axioms", "check_tensor_laws", 4, _FORCED, ["tensor"]),
        ],
        ids=["functor", "singleton_element", "downset_element", "exhaustive", "randomized", "tensor"],
    )
    def test_one_planted_fault_fails_the_run(
        self, monkeypatch, tmp_path, experiment, campaign, first, fault, where
    ):
        real = getattr(catlaws, campaign)

        def planted(arg, *args, **kwargs):
            report = real(arg, *args, **kwargs)
            return {**report, **fault} if arg == first else report

        monkeypatch.setattr(catlaws, campaign, planted)
        out = tmp_path / "r.json"
        assert cli.main([experiment, "--trials", "5", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        part = report
        for key in where:
            part = part[key]
        assert {key: part[key] for key in fault} == fault


_IHDR_COUNTS = ("oracle_equal", "nesting_holds", "chain_holds", "antitone_holds")


class TestIhdrOracleVerdicts:
    """Each of the four ihdr_oracle checks fails on one planted fault in one
    trial: that count, and no other, drops by one, and `ck` exits 1. An
    `ihdr_oracle` trial calls `ihdr_contour` five times: small, mid and big
    at alpha, then big at the higher and at the lower of its two levels. Every
    region at alpha holds the shared peak, so an empty one is a fault."""

    @pytest.mark.parametrize(
        "name, call, fault, count",
        [
            # One point fewer in the brute-force region of trial 3.
            ("ihdr_bruteforce", 3, lambda r: Region(r.universe, r.bits & (r.bits - 1)), 0),
            ("check_functor_monotone", 3, lambda ok: False, 1),
            # The mid region of trial 3 emptied: small no longer nests in it.
            ("ihdr_contour", 5 * 3 + 1, lambda r: Region(r.universe, 0), 2),
            # The lower level's region of trial 3 emptied: the higher one's peak is outside.
            ("ihdr_contour", 5 * 3 + 4, lambda r: Region(r.universe, 0), 3),
        ],
        ids=_IHDR_COUNTS,
    )
    def test_one_planted_fault_fails_the_run(self, monkeypatch, tmp_path, name, call, fault, count):
        real, calls = getattr(harness, name), itertools.count()

        def planted(*args):
            result = real(*args)
            return fault(result) if next(calls) == call else result

        monkeypatch.setattr(harness, name, planted)
        out = tmp_path / "r.json"
        assert cli.main(["ihdr_oracle", "--trials", "5", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert [report[key] for key in _IHDR_COUNTS] == [5 - (k == count) for k in range(4)]


_JSON = st.recursive(
    st.none()
    | st.booleans()
    # Up to 2 * 10**6, so that grid counts whose (n+1) x grid points table is
    # above _MAX_TABLE_CELLS are drawn: those must be refused without building
    # the grid.
    | st.integers(-2 * 10**6, 2 * 10**6)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_GRID_OBJECTS = st.fixed_dictionaries(
    {}, optional={"bounds": _JSON | st.just([[-2, 2]]), "counts": _JSON | st.just([9])}
)
_CONFIG_VALUES = {
    "experiment": st.sampled_from(sorted(cli.EXPERIMENTS)) | _JSON,
    "grid": _GRID_OBJECTS | _JSON,
    "score": st.sampled_from(["mean_abs_distance", "prototype_embedding"]).map(
        lambda kind: {"kind": kind}
    )
    | _JSON,
    "extras": st.fixed_dictionaries(
        {"score_params": st.fixed_dictionaries({"weights": _JSON, "biases": _JSON}) | _JSON}
    )
    | _JSON,
}


@st.composite
def _config_objects(draw):
    keys = draw(
        st.sets(
            st.sampled_from(
                ["experiment", "seed", "trials", "alpha", "n", "grid", "score"]
                + ["scenario", "model", "extras", "trails"]
            )
        )
    )
    return {k: draw(_CONFIG_VALUES.get(k, _JSON)) for k in keys}


@settings(max_examples=300, deadline=None)
@given(_config_objects())
def test_any_json_object_parses_or_is_a_config_error(obj):
    """Whatever the object, `ck` either gets a config or exits 2."""
    try:
        cfg = ExperimentConfig.from_json_obj(obj)
    except cli.CONFIG_ERRORS:
        return
    assert isinstance(cfg, ExperimentConfig)


# Values in range, or of a near-miss type (a whole float or a bool for an
# integer), so that many drawn configs build and many are refused by type.
_NEAR_INTEGERS = st.integers(0, 30) | st.integers(0, 30).map(float) | st.booleans()
_PLAUSIBLE_VALUES = {
    "seed": _NEAR_INTEGERS,
    "trials": _NEAR_INTEGERS,
    "alpha": st.floats(0.01, 0.99) | st.booleans(),
    "n": _NEAR_INTEGERS,
    "scenario": st.sampled_from(["iid_gaussian", "iid_uniform", "exchangeable_mixture"]),
    "extras": st.dictionaries(
        st.sampled_from(["brute_trials", "brute_grid_limit", "theta_count", "y_count"]),
        st.integers(0, 20),
        max_size=2,
    ),
}


@st.composite
def _well_spelled_config_objects(draw):
    """Config objects that pass from_json_obj's checks of the JSON spelling:
    known keys, coverage-only keys for coverage only, and a `grid` object."""
    experiment = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    keys = ["seed", "trials", "extras"]
    if experiment == "coverage":
        keys += ["alpha", "n", "score", "scenario"]
    obj = {
        k: draw(_PLAUSIBLE_VALUES.get(k, st.nothing()) | _CONFIG_VALUES.get(k, _JSON))
        for k in draw(st.sets(st.sampled_from(keys)))
    }
    if experiment == "coverage" and draw(st.booleans()):
        obj["grid"] = draw(_GRID_OBJECTS)
    return {"experiment": experiment, **obj}


@settings(max_examples=300, deadline=None)
@given(_well_spelled_config_objects())
def test_a_config_built_in_python_is_checked_as_its_json_object(obj):
    """The same values as keyword arguments build an equal config, or are
    refused as a config error too: a config is checked however it is built."""
    kwargs = {k: v for k, v in obj.items() if k != "grid"}
    kwargs.update((f"grid_{k}", v) for k, v in obj.get("grid", {}).items())
    try:
        parsed = ExperimentConfig.from_json_obj(obj)
    except cli.CONFIG_ERRORS:
        with pytest.raises(cli.CONFIG_ERRORS):
            ExperimentConfig(**kwargs)
        return
    assert ExperimentConfig(**kwargs) == parsed
