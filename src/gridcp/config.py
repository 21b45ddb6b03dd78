"""Experiment configs: where a config is parsed and every bad one refused.

`ExperimentConfig` holds the fields and `extras` an experiment reads.
Building one, from JSON or in Python, converts and checks them all by one
table per kind, and for `coverage` also builds the grid and the score and
refuses scores that could overflow, so a bad config raises ValueError before
any trial runs; the CLI exits 2 on it. `EXPERIMENTS` maps each experiment's
name to its runner, which `gridcp.harness` registers.
"""

from __future__ import annotations

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
# The config keys that only coverage reads; another experiment refuses them.
_COVERAGE_KEYS = ("alpha", "n", "grid", "score", "scenario")
# The keys a JSON config may hold; "grid" holds "bounds" and "counts", which
# set grid_bounds and grid_counts.
_JSON_KEYS = ("experiment", "seed", "trials", "alpha", "n", "grid", "score", "scenario", "extras")
# The fields whose JSON spelling differs from their name, for error messages.
_JSON_NAMES = {"grid_bounds": "grid.bounds", "grid_counts": "grid.counts"}

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
        _pick(self.experiment, tuple(EXPERIMENTS), "experiment")
        for name, convert in _CONVERT.items():
            what = f"config field {_JSON_NAMES.get(name, name)}"
            object.__setattr__(self, name, _checked(what, convert, getattr(self, name)))
        # An extras key is read by one experiment only, so no check needs to
        # know which experiment it is.
        table = _EXTRAS.get(self.experiment, {})
        given = _checked("config field extras", lambda e: _json_object(e, table), self.extras)
        extras = {
            key: _checked(f"extras.{key}", check, given.get(key, default))
            for key, (default, check) in table.items()
        }
        object.__setattr__(self, "extras", extras)
        if self.experiment == "diagram" and self.trials > _FAMILY_STREAMS:
            raise ValueError(
                f"trials must be at most {_FAMILY_STREAMS} for diagram, whose score "
                f"families draw from disjoint streams; got {self.trials}"
            )
        if self.experiment == "coverage":
            check_level(self.alpha, self.n)
            if len(self.grid_bounds) != 1:
                raise ValueError(
                    f"{self.experiment} draws scalar observations; the grid must "
                    f"be 1-D, got {len(self.grid_bounds)} bounds"
                )
            _check_cells((self.n + 1) * math.prod(self.grid_counts), "(n + 1) x grid points")
            # Build the grid and score here, so that a bad one, or one whose
            # scores could overflow, is a config error; run_coverage reuses both.
            if not math.isfinite(_score_bound(self.psi, self.universe.points)):
                under = " under extras.score_params" if extras["score_params"] else ""
                raise ValueError(f"grid: scores of these points{under} could overflow")
        if self.experiment == "eposterior":
            cells = extras["theta_count"] * extras["y_count"]
            _check_cells(cells, "extras.theta_count x extras.y_count")

    @cached_property
    def universe(self) -> Grid:
        """The grid a coverage run scores, built once per config."""
        return _checked("config field grid", make_uniform_grid, self.grid_bounds, self.grid_counts)

    @cached_property
    def psi(self) -> ScoreFn:
        """The score a coverage run ranks by, built once per config."""
        return _score_for(self)

    @staticmethod
    def from_json_obj(obj: dict) -> ExperimentConfig:
        """Parse a JSON config object; a malformed one raises ValueError.

        Only the JSON spelling is checked here: the keys, and the `grid`
        object. The values go on as they are, to be checked when the config
        is built, and every default is the field's own.
        """
        fields = dict(_json_object(obj, _JSON_KEYS))
        misplaced = [key for key in _COVERAGE_KEYS if key in obj]
        if misplaced and obj.get("experiment") != "coverage":
            raise ValueError(f"config key {misplaced[0]!r} is read by coverage only")
        grid = fields.pop("grid", {})
        grid = _checked("config field grid", lambda g: _json_object(g, ("bounds", "counts")), grid)
        fields.update((f"grid_{key}", value) for key, value in grid.items())
        return ExperimentConfig(experiment=fields.pop("experiment"), **fields)


def _check_cells(cells: int, what: str) -> None:
    """Refuse a table of more than _MAX_TABLE_CELLS cells, before it is built."""
    if cells > _MAX_TABLE_CELLS:
        raise ValueError(f"{what} = {cells} cells exceeds the limit of {_MAX_TABLE_CELLS}")


def _checked(what: str, convert: Callable, *values):
    """convert(*values); any failure to convert is a ValueError that names `what`."""
    try:
        return convert(*values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _json_object(value, keys: Sequence[str] | None = None) -> dict:
    """`value` if it is a JSON object with no key outside `keys` (when given)."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; allowed keys: {tuple(keys)}")
    return value


def _pick(value, choices: tuple, what: str):
    """`value` if it is one of `choices`: a tuple, not a dict, so that an
    unhashable value is unknown, not a TypeError."""
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; pick one of {choices}")
    return value


def _score_kind(value) -> str:
    """A score is given as its kind, or as an object {"kind": ...}."""
    if isinstance(value, dict):
        value = _json_object(value, ("kind",)).get("kind", "mean_abs_distance")
    return _pick(value, _SCORE_KINDS, "score kind")


def _integer(value, least: int = 0, most: float = math.inf) -> int:
    """A JSON integer in [least, most]; a bool is not one."""
    if type(value) is not int or not least <= value <= most:
        raise ValueError(f"expected an integer in [{least}, {most}], got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number (integer or float), as a float; a bool is not one."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _score_families(families) -> list[str]:
    """A nonempty list of score kinds."""
    if isinstance(families, (list, tuple)) and families:
        return [_pick(f, _SCORE_KINDS, "score kind") for f in families]
    raise ValueError(f"must be a nonempty list of {_SCORE_KINDS}, got {families!r}")


def _score_params(params):
    """None, or an object of "weights" and "biases" that holds no JSON bool,
    which numpy would read as 0.0 or 1.0; `_score_for` builds the layers."""
    nested = [] if params is None else list(_json_object(params, ("weights", "biases")).values())
    while nested:
        value = nested.pop()
        if isinstance(value, bool):
            raise TypeError("weights and biases must be JSON numbers, not booleans")
        if isinstance(value, (list, tuple)):
            nested.extend(value)
    return params


# How each field converts what it was given; the JSON spelling of a field is
# its name, except for the two in _JSON_NAMES.
_CONVERT = {
    "seed": _integer,
    "trials": lambda v: _integer(v, 1),
    "alpha": _number,
    "n": _integer,
    "grid_bounds": lambda bs: tuple(tuple(_number(v) for v in b) for b in bs),
    "grid_counts": lambda cs: tuple(_integer(c, 1) for c in cs),
    "score": _score_kind,
    "scenario": lambda s: _pick(s, tuple(_SCENARIOS), "scenario"),
}
# The extras keys each experiment reads, as (default, check) pairs; no other
# key is accepted. Without score_params, prototype_embedding embeds by the
# identity. The brute-checked diagram grids have 6 to brute_grid_limit points,
# and above _BRUTE_LIMIT points the subset-enumeration oracle refuses a grid.
# Below 4 parameter values the violating eposterior family's upper envelope
# integrates below 1.
_EXTRAS = {
    "coverage": {"score_params": (None, _score_params)},
    "diagram": {
        "score_families": (_SCORE_KINDS, _score_families),
        "brute_trials": (100, _integer),
        "brute_grid_limit": (12, lambda v: _integer(v, 6, _BRUTE_LIMIT)),
    },
    "eposterior": {
        "theta_count": (101, lambda v: _integer(v, 4)),
        "y_count": (101, lambda v: _integer(v, 1)),
    },
}


def _score_for(cfg: ExperimentConfig) -> ScoreFn:
    """The score cfg names, with extras.score_params {"weights", "biases"}
    as the embedding layers of a prototype_embedding."""
    params = cfg.extras["score_params"]
    dim = len(cfg.grid_bounds)
    if cfg.score == "mean_abs_distance":
        if params is not None:
            raise ValueError("extras.score_params: mean_abs_distance takes no parameters")
        return MeanAbsDistance()
    if params is None:
        return PrototypeEmbedding(EmbeddingNet.identity(dim))
    try:
        net = EmbeddingNet.from_weights(params["weights"], params["biases"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"extras.score_params: {exc!r}") from None
    if net.in_dim != dim:
        raise ValueError(f"extras.score_params takes {net.in_dim}-D points; the grid is {dim}-D")
    return PrototypeEmbedding(net)
