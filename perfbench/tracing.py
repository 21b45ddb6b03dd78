"""Opt-in tracing of gridcp's public functions, installed from outside.

`Tracer.install` wraps every public function of the traced modules, plus a
few methods, at every place the function object is bound: module globals
(so `from ... import` copies are covered), dict values such as the
harness's experiment table, and class attributes for methods. `uninstall`
puts each original object back, so after it every patched name is the very
object it was before. An untraced run never calls `install`.

Ordinary functions record one span per call: name, parent, start, end.
When the harness maps its trials through `_map_trials`, each trial also
gets a span, `harness.trial`, so that instances show between experiments
and module calls; without that helper the trial level is simply absent.
Functions called hundreds of thousands of times per pass (`HOT`) record a
call count and summed time instead, charged to the enclosing span so that
self times stay right. Some wrappers also add work counters derived from
arguments and results (grid points built, leave-one-out cells, subsets
enumerated).

A span's self time is its duration minus its children's durations and the
hot time spent directly inside it. Top-level spans are the benchmark's own
per-operation spans, so an operation's self time is the part of it that no
gridcp function covers.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

MODULES = ("grid", "scores", "fullcp", "imprecise", "bayes", "catlaws", "harness", "cli")

# Methods traced besides module functions: (module, class, method). Every
# class in the module that defines the method itself is wrapped, under one
# name.
METHODS = (("grid", "Grid", "nearest_index"), ("scores", "ScoreFn", "loo_matrix"))

# Traced by counters rather than spans: each is called 10^4..10^6 times per
# pass, and none calls another traced function.
HOT = frozenset(
    {
        "catlaws.compose",
        "catlaws.vietoris_map",
        "catlaws.tensor",
        "catlaws.identity",
        "catlaws.random_correspondence",
        "grid.nearest_index",
    }
)


def _count_loo(counts, args, result):
    y_n, candidates = args[1], args[2]
    g, cols = result.shape
    d = candidates.shape[1] if candidates.ndim == 2 else 1
    counts["scores.loo_cells"] += g * cols
    counts["scores.loo_bytes_computed"] += 8 * g * y_n.n * d


def _count_grid(counts, args, result):
    counts["grid.points_built"] += result.size


def _count_subsets(counts, args, result):
    counts["imprecise.subsets_enumerated"] += 1 << args[1].universe.size


# Work counters updated after a traced call returns, from its arguments and
# result.
COUNTERS = {
    "scores.loo_matrix": _count_loo,
    "grid.make_uniform_grid": _count_grid,
    "imprecise.ihdr_bruteforce": _count_subsets,
}
COUNTER_NAMES = (
    "scores.loo_cells",
    "scores.loo_bytes_computed",
    "grid.points_built",
    "imprecise.subsets_enumerated",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    hot_s: float = 0.0  # hot-function time spent directly inside this span


@dataclass
class Patch:
    owner: object  # a module, a class or a dict
    key: str
    original: object

    def put(self, value) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    # (operation, function) -> [calls, seconds] for HOT functions
    hot: dict[tuple[str, str], list] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    patches: list[Patch] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _op: str = ""
    _hot_depth: int = 0

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop what was recorded; open spans are not allowed."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.hot = {}
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        if parent is None:
            self._op = name
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _span_wrapper(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _hot_wrapper(self, name, fn):
        clock = self.clock

        def traced(*args, **kwargs):
            if self._hot_depth:
                return fn(*args, **kwargs)
            self._hot_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._hot_depth = 0
                rec = self.hot.setdefault((self._op, name), [0, 0.0])
                rec[0] += 1
                rec[1] += dt
                if self._stack:
                    self._stack[-1].hot_s += dt

        return traced

    def _trials_wrapper(self, fn):
        def traced(trial_fn, *args, **kwargs):
            return fn(self._span_wrapper("harness.trial", trial_fn), *args, **kwargs)

        return traced

    def wrap(self, name: str, fn):
        """The traced stand-in for `fn`, recorded under `name`."""
        if name == "harness._map_trials":
            return self._trials_wrapper(fn)
        if name in HOT:
            return self._hot_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function where it is bound; see the module doc."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        targets = list(_targets())
        mods = _gridcp_modules()
        harness = sys.modules["gridcp.harness"]
        if callable(getattr(harness, "_map_trials", None)):
            targets.append(("harness._map_trials", harness, "_map_trials", harness._map_trials))
        for name, owner, key, fn in targets:
            wrapped = self.wrap(name, fn)
            sites = [(owner, key)] if owner is not None else _binding_sites(mods, fn)
            for site, site_key in sites:
                patch = Patch(site, site_key, fn)
                self.patches.append(patch)
                patch.put(wrapped)

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        while self.patches:
            patch = self.patches.pop()
            patch.put(patch.original)


def _gridcp_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "gridcp" or name.startswith("gridcp."))
    ]


def _targets():
    """(name, owner, key, function) for every traced callable. `owner` is the
    class for methods and None for module functions, which are patched at
    every binding site."""
    for short in MODULES:
        mod = importlib.import_module(f"gridcp.{short}")
        for key, obj in sorted(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not key.startswith("_")
            ):
                yield f"{short}.{key}", None, key, obj
    for short, base_name, method in METHODS:
        mod = sys.modules[f"gridcp.{short}"]
        base = getattr(mod, base_name, None)
        for cls in vars(mod).values() if base is not None else ():
            if (
                inspect.isclass(cls)
                and issubclass(cls, base)
                and cls.__module__ == mod.__name__
                and method in vars(cls)
            ):
                yield f"{short}.{method}", cls, method, vars(cls)[method]


def _binding_sites(mods, fn):
    """Every (module, name) and (dict, key) under gridcp bound to `fn`."""
    for mod in mods:
        for key, value in list(vars(mod).items()):
            if value is fn:
                yield mod, key
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is fn:
                        yield value, dkey


# -- arithmetic on recorded spans -----------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus children's durations minus direct hot time.
    Spans are indexed by id, and children close before their parents."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[s.id] - s.hot_s for s in spans]


def operation_of(spans: list[Span]) -> list[str]:
    """Per span: the name of its top-level ancestor (its operation)."""
    ops: list[str] = []
    for s in spans:
        ops.append(s.name if s.parent is None else ops[s.parent])
    return ops


@dataclass
class PassSummary:
    """What one traced pass recorded, aggregated."""

    # (operation, function) -> [calls, inclusive seconds, self seconds]
    functions: dict[tuple[str, str], list]
    # operation -> {module or "uncovered": self seconds}; sums to the
    # operation's span
    breakdown: dict[str, dict[str, float]]
    counts: dict[str, int]

    def total(self, name: str, column: int, op: str | None = None) -> float:
        """Column 0 (calls), 1 (seconds) or 2 (self seconds) of `name`,
        summed over operations, or for one operation."""
        return sum(
            rec[column]
            for (rec_op, rec_name), rec in self.functions.items()
            if rec_name == name and op in (None, rec_op)
        )


def summarize(tracer: Tracer, time_scale: float = 1.0) -> PassSummary:
    """Aggregate the tracer's records; every time is multiplied by `time_scale`."""
    spans = tracer.spans
    functions: dict[tuple[str, str], list] = {}
    breakdown: dict[str, dict[str, float]] = {}

    def add(op, name, calls, secs, self_s):
        secs *= time_scale
        self_s *= time_scale
        rec = functions.setdefault((op, name), [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += secs
        rec[2] += self_s
        rows = breakdown.setdefault(op, {})
        module = name.split(".", 1)[0]
        rows[module] = rows.get(module, 0.0) + self_s

    for s, self_s, op in zip(spans, self_times(spans), operation_of(spans)):
        if s.parent is None:
            rows = breakdown.setdefault(op, {})
            rows["uncovered"] = rows.get("uncovered", 0.0) + self_s * time_scale
        else:
            add(op, s.name, 1, s.end - s.start, self_s)
    for (op, name), (calls, secs) in tracer.hot.items():
        add(op, name, calls, secs, secs)
    return PassSummary(functions, breakdown, dict(tracer.counts))
