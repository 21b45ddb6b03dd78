"""Experiment orchestration: determinism, coverage behavior, CLI contract."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcp import cli, harness
from gridcp.harness import (
    ExperimentConfig,
    emit,
    run_bayes_triangle,
    run_coverage,
    run_diagram,
    run_eposterior,
    run_experiment,
    run_ihdr_oracle,
    wilson_lower_bound,
)


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
            ExperimentConfig(experiment="coverage", n=10**9)
            with pytest.raises(ValueError, match="attainable"):
                ExperimentConfig(experiment="coverage", n=10**9, alpha=0.5 + 0.5 / (10**9 + 1))
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

    @pytest.mark.parametrize("experiment", list(harness.EXPERIMENTS))
    def test_json_defaults_are_the_field_defaults(self, experiment):
        parsed = ExperimentConfig.from_json_obj({"experiment": experiment})
        built = ExperimentConfig(experiment=experiment)
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(parsed, f.name) == getattr(built, f.name), f.name


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
        draws = [int(harness._trial_rng(3, 10 + t).integers(1 << 62)) for t in range(4)]
        assert out == {
            "odd": 2,
            "t": 6,
            "draw": sum(draws),
            "counterexamples": [{"t": 2}, {"t": 3}],
        }
        assert type(out["odd"]) is int


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
        build = harness.make_uniform_grid

        def counting(bounds, counts):
            built.append(counts)
            return build(bounds, counts)

        monkeypatch.setattr(harness, "make_uniform_grid", counting)
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
        ],
        ids=["2d_grid", "unknown_scenario", "unsupported_score", "nan_bound", "zero_count"],
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
            ("coverage", {"score": "neg_predictive_density"}, "'neg_predictive_density'"),
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
            "unsupported_score_kind",
        ],
    )
    def test_malformed_config_exit_two(self, tmp_path, capsys, experiment, bad, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        code = cli.main([experiment, "--config", str(cfg_path), "--trials", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert named in err

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

    def test_non_object_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert cli.main(["coverage", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_config_file_exit_two(self):
        assert cli.main(["coverage", "--config", "/nonexistent.json"]) == 2

    def test_counterexample_exit_one(self, monkeypatch):
        monkeypatch.setitem(
            cli.EXPERIMENTS, "coverage", lambda cfg: {"pass": False, "seed": cfg.seed}
        )
        assert cli.main(["coverage", "--trials", "5"]) == 1

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gridcp.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "experiment" in proc.stdout


_JSON = st.recursive(
    st.none()
    | st.booleans()
    # Up to twice _MAX_GRID_POINTS, so that grid counts at and above the
    # limit are drawn: those must be refused without building the grid.
    | st.integers(-2 * 10**6, 2 * 10**6)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_CONFIG_VALUES = {
    "experiment": st.sampled_from(sorted(cli.EXPERIMENTS)) | _JSON,
    "grid": st.fixed_dictionaries(
        {}, optional={"bounds": _JSON | st.just([[-2, 2]]), "counts": _JSON | st.just([9])}
    )
    | _JSON,
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
