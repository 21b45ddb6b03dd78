"""Experiment configs: where a config is parsed and every bad one refused.

`ExperimentConfig` holds the fields and `extras` an experiment reads.
Building one checks them all, and for `coverage` also builds the grid and the
score and refuses scores that could overflow, so a bad config raises
ValueError before any trial runs; the CLI exits 2 on it. `EXPERIMENTS` maps
each experiment's name to its runner, which `gridcp.harness` registers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fullcp import check_level
from .grid import Grid, make_uniform_grid
from .imprecise import _BRUTE_LIMIT
from .scores import EmbeddingNet, MeanAbsDistance, PrototypeEmbedding, ScoreFn, _score_bound

__all__ = ["ExperimentConfig", "EXPERIMENTS"]

# Each experiment's runner by name, filled in by gridcp.harness.
EXPERIMENTS: dict[str, Callable[[ExperimentConfig], dict]] = {}

# How each coverage scenario draws `count` scalar observations.
_SCENARIOS: dict[str, Callable[[np.random.Generator, int], np.ndarray]] = {
    "iid_gaussian": lambda rng, count: rng.standard_normal(count),
    "iid_uniform": lambda rng, count: rng.uniform(-3.0, 3.0, count),
    # A latent center, drawn first, then iid around it: exchangeable, not iid.
    "exchangeable_mixture": lambda rng, count: (
        rng.standard_normal() * 2.0 + rng.standard_normal(count)
    ),
}
# The score kinds a config may name: the scores that need no fitted model.
_SCORE_KINDS = ("mean_abs_distance", "prototype_embedding")
# The extras keys each experiment reads, with their defaults; no other key is
# accepted. Without score_params, prototype_embedding embeds by the identity.
_EXTRAS = {
    "coverage": {"score_params": None},
    "diagram": {"score_families": _SCORE_KINDS, "brute_trials": 100, "brute_grid_limit": 12},
    "eposterior": {"theta_count": 101, "y_count": 101},
}
# The config keys that only coverage reads; another experiment refuses them.
_COVERAGE_KEYS = ("alpha", "n", "grid", "score", "scenario")

# The range of each integer extra. Below 4 parameter values the violating
# eposterior family's upper envelope integrates below 1. The brute-checked
# diagram grids have 6 to brute_grid_limit points, and above _BRUTE_LIMIT
# points the subset-enumeration oracle refuses a grid.
_COUNT_RANGES = {
    "brute_trials": (0, math.inf),
    "brute_grid_limit": (6, _BRUTE_LIMIT),
    "theta_count": (4, math.inf),
    "y_count": (1, math.inf),
}
# Streams of each diagram score family: family f draws trial t from stream
# f * _FAMILY_STREAMS + t, so more trials would reuse the next family's.
_FAMILY_STREAMS = 1_000_003
# Size limit on configs, in cells: (n+1) x grid points for coverage, and
# theta_count x y_count for eposterior, whose likelihood table of that many
# floats is 80 MB.
_MAX_TABLE_CELLS = 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    trials: int = 100
    alpha: float = 0.13
    n: int = 20
    grid_bounds: tuple[tuple[float, float], ...] = ((-6.0, 6.0),)
    grid_counts: tuple[int, ...] = (201,)
    score: str = "mean_abs_distance"
    scenario: str = "iid_gaussian"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # A tuple, not the dict: an unhashable name is unknown, not a TypeError.
        names = tuple(EXPERIMENTS)
        if self.experiment not in names:
            raise ValueError(f"unknown experiment {self.experiment!r}; pick one of {names}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.experiment == "diagram" and self.trials > _FAMILY_STREAMS:
            raise ValueError(
                f"trials must be at most {_FAMILY_STREAMS} for diagram, whose score "
                f"families draw from disjoint streams; got {self.trials}"
            )
        # An extras key is read by one experiment only, so no check needs to
        # know which experiment it is.
        for key, value in _json_object(self.extras, _EXTRAS.get(self.experiment, {})).items():
            least, most = _COUNT_RANGES.get(key, (None, None))
            if least is not None and (type(value) is not int or not least <= value <= most):
                raise ValueError(
                    f"extras.{key} must be an integer in [{least}, {most}], got {value!r}"
                )
        families = self.extras.get("score_families", _SCORE_KINDS)
        if not (
            isinstance(families, (list, tuple))
            and families
            and all(f in _SCORE_KINDS for f in families)
        ):
            raise ValueError(
                f"extras.score_families must be a nonempty list of {_SCORE_KINDS}, "
                f"got {families!r}"
            )
        if self.experiment == "coverage":
            check_level(self.alpha, self.n)
            scenarios = tuple(_SCENARIOS)  # a tuple, as for names above
            if self.scenario not in scenarios:
                raise ValueError(
                    f"unknown scenario {self.scenario!r}; pick one of {scenarios}"
                )
            if len(self.grid_bounds) != 1:
                raise ValueError(
                    f"{self.experiment} draws scalar observations; the grid must "
                    f"be 1-D, got {len(self.grid_bounds)} bounds"
                )
            _check_cells((self.n + 1) * math.prod(self.grid_counts), "(n + 1) x grid points")
            # Build the grid and score here, so that a bad one, or one whose
            # scores could overflow, is a config error; run_coverage reuses both.
            if not math.isfinite(_score_bound(self.psi, self.universe.points)):
                under = " under extras.score_params" if _extra(self, "score_params") else ""
                raise ValueError(f"grid: scores of these points{under} could overflow")
        if self.experiment == "eposterior":
            cells = _extra(self, "theta_count") * _extra(self, "y_count")
            _check_cells(cells, "extras.theta_count x extras.y_count")

    @cached_property
    def universe(self) -> Grid:
        """The grid a coverage run scores, built once per config."""
        return make_uniform_grid(self.grid_bounds, self.grid_counts)

    @cached_property
    def psi(self) -> ScoreFn:
        """The score a coverage run ranks by, built once per config."""
        return _score_for(self)

    @staticmethod
    def from_json_obj(obj: dict) -> ExperimentConfig:
        """Parse a JSON config object; a malformed one raises ValueError.

        Only the keys present are converted: every default is the field's own.
        """
        _json_object(obj, ("experiment", *_CONVERT))
        misplaced = [key for key in _COVERAGE_KEYS if key in obj]
        if misplaced and obj.get("experiment") != "coverage":
            raise ValueError(f"config key {misplaced[0]!r} is read by coverage only")
        fields = _convert(obj, _CONVERT)
        grid = _convert(fields.pop("grid", {}), _GRID_CONVERT, "grid.")
        fields.update((f"grid_{key}", value) for key, value in grid.items())
        return ExperimentConfig(experiment=obj["experiment"], **fields)


def _check_cells(cells: int, what: str) -> None:
    """Refuse a table of more than _MAX_TABLE_CELLS cells, before it is built."""
    if cells > _MAX_TABLE_CELLS:
        raise ValueError(f"{what} = {cells} cells exceeds the limit of {_MAX_TABLE_CELLS}")


def _convert(obj: dict, converters: dict, prefix: str = "") -> dict:
    """Each key of `obj` that has a converter, converted.

    Any failure to convert is a ValueError that names the field.
    """
    out = {}
    for key, convert in converters.items():
        if key in obj:
            try:
                out[key] = convert(obj[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"config field {prefix}{key}: {exc}") from None
    return out


def _json_object(value, keys: Sequence[str] | None = None) -> dict:
    """`value` if it is a JSON object with no key outside `keys` (when given)."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {json.dumps(value)}")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; allowed keys: {tuple(keys)}")
    return value


def _extra(cfg: ExperimentConfig, key: str):
    """cfg.extras[key], or its default from _EXTRAS."""
    return cfg.extras.get(key, _EXTRAS[cfg.experiment][key])


def _score_kind(value) -> str:
    """A score is given as its kind, or as an object {"kind": ...}."""
    if isinstance(value, dict):
        value = _json_object(value, ("kind",)).get("kind", "mean_abs_distance")
    return value


def _integer(value) -> int:
    """A JSON integer; a bool is not one."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def _number(value) -> float:
    """A JSON number (integer or float), as a float; a bool is not one."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


# How each config key converts to the field of the same name. The grid object
# holds "bounds" and "counts", which set grid_bounds and grid_counts.
_GRID_CONVERT = {
    "bounds": lambda bs: tuple(tuple(_number(v) for v in b) for b in bs),
    "counts": lambda cs: tuple(_integer(c) for c in cs),
}
_CONVERT = {
    "seed": _integer,
    "trials": _integer,
    "alpha": _number,
    "n": _integer,
    "grid": lambda g: _json_object(g, tuple(_GRID_CONVERT)),
    "score": _score_kind,
    "scenario": lambda s: s,
    "extras": _json_object,
}


def _score_for(cfg: ExperimentConfig) -> ScoreFn:
    """The score cfg names, with extras.score_params {"weights", "biases"}
    as the embedding layers of a prototype_embedding."""
    if cfg.score not in _SCORE_KINDS:
        raise ValueError(f"unknown score kind {cfg.score!r}; pick one of {_SCORE_KINDS}")
    params = _extra(cfg, "score_params")
    dim = len(cfg.grid_bounds)
    if cfg.score == "mean_abs_distance":
        if params is not None:
            raise ValueError("extras.score_params: mean_abs_distance takes no parameters")
        return MeanAbsDistance()
    if params is None:
        return PrototypeEmbedding(EmbeddingNet.identity(dim))
    try:
        params = _json_object(params, ("weights", "biases"))
        nested = [params["weights"], params["biases"]]
        while nested:  # numpy would read a JSON bool as 0.0 or 1.0
            value = nested.pop()
            if isinstance(value, bool):
                raise TypeError("weights and biases must be JSON numbers, not booleans")
            if isinstance(value, list):
                nested.extend(value)
        net = EmbeddingNet.from_weights(params["weights"], params["biases"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"extras.score_params: {exc!r}") from None
    if net.in_dim != dim:
        raise ValueError(f"extras.score_params takes {net.in_dim}-D points; the grid is {dim}-D")
    return PrototypeEmbedding(net)
