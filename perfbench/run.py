"""Benchmark for gridcp: pass time, memory and set-up time per workload.

    python3 perfbench/run.py --workload trial_campaigns --seed 1 --seconds 42 --trace 0

Run it from the repository root; it imports gridcp from `src/`. It runs
closed-loop passes over the workload's operations until the next pass would
overrun `--seconds`, then the operations of one more pass that still fit.
Set-up (importing gridcp afresh and generating the inputs from the seed) is
timed several times before the first pass and once after every pass, so
that its median spans the run like the passes do. Every timing is divided by
the host's slowness, measured with a reference computation that a timer
runs every 0.25 s, also inside operations, and that no timing includes (see
calibrate.py); the wall times are kept in the record. Every operation's
outputs are checked (see workloads.py) and compared with the golden digests
recorded for the seed, if any.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones and no wrapper is installed. With `--trace 1` untraced and
traced passes alternate, and the metrics are the per-layer ones (see
metrics.py). Earlier lines report the environment, per-operation samples,
failures and, when traced, each operation's self time per module. A fuller
record, with the spans of the last traced pass, goes to
`.perfbench_out/<workload>-seed<seed>-trace<t>/result.json`.

Exit code 0 when a result was printed, 2 when gridcp's source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
SETUP_REPEATS_FIRST = 4
SETUP_REFERENCE_ROUNDS = 2  # before and after each timed set-up

sys.path.insert(0, str(ROOT))
from perfbench import calibrate, metrics, stats, tracing, workloads  # noqa: E402


class Run:
    """Everything one benchmark run records."""

    def __init__(self, workload: str, seed: int, goldens: dict):
        self.workload, self.seed = workload, seed
        self.goldens = goldens.get(workload, {}).get(str(seed), {})
        self.tally = stats.Tally()
        self.sampler = calibrate.Sampler()
        # Timings are adjusted for the host's slowness (see calibrate.py).
        self.samples: list[tuple[bool, str, float]] = []  # traced, kind, seconds
        self.passes: list[tuple[bool, float]] = []  # traced, timed seconds
        self.pass_walls: list[tuple[float, float]] = []  # wall seconds, slowness
        self.slowest: dict[str, float] = {}  # kind -> longest sample, unadjusted
        self.summaries: list[tracing.PassSummary] = []
        self.first_verdicts: dict[str, workloads.Verdict] = {}
        self.last_pass: list[tuple[str, workloads.Verdict]] = []  # kind, verdict
        self.last_spans: list[tracing.Span] = []

    def op_times(self, traced: bool) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for was_traced, kind, secs in self.samples:
            if was_traced == traced:
                out.setdefault(kind, []).append(secs)
        return out

    def pass_times(self, traced: bool) -> list[float]:
        return [secs for was_traced, secs in self.passes if was_traced == traced]

    def judge(self, kind: str, verdict: workloads.Verdict) -> None:
        """Count one operation, adding golden and determinism problems."""
        problems = list(verdict.problems)
        if verdict.fields is not None:
            first = self.first_verdicts.setdefault(kind, verdict)
            if verdict.digest != first.digest:
                problems.append(f"{kind}: verdict differs from the first pass's")
            golden = self.goldens.get(kind)
            if golden is not None and verdict.digest != golden:
                problems.append(f"{kind}: verdict digest {verdict.digest} != golden {golden}")
        self.tally.record(problems)


def run_pass(run: Run, ops: list[workloads.Op], tracer: tracing.Tracer | None,
             fits: Callable[[str], bool] | None = None) -> None:
    """One closed-loop pass over the workload; traced when `tracer` is given.
    Its timings leave out the reference rounds that interrupt it and are
    divided by the host's slowness over those rounds. With `fits` the pass
    is a run's last, untraced one: it skips every operation whose kind `fits`
    rejects, and adds only operation samples."""
    clock = run.sampler.clock
    begin = clock()
    timed = 0.0
    samples: list[tuple[str, float]] = []
    verdicts: list[tuple[str, workloads.Verdict]] = []
    try:
        if tracer is not None:
            tracer.install()
        for op in [op for op in ops for _ in range(op.repeats)]:
            if fits is not None and not fits(op.kind):
                continue
            span = tracer.open(op.kind) if tracer else None
            error = None
            t0 = clock()
            try:
                outcome = op.run()
            except Exception as exc:  # a raising operation is a failed one
                error = f"{op.kind}: raised {type(exc).__name__}: {exc}"
            secs = clock() - t0
            if span is not None:
                tracer.close(span)
            timed += secs
            samples.append((op.kind, secs))
            run.slowest[op.kind] = max(run.slowest.get(op.kind, 0.0), secs)
            if error is None:
                try:
                    verdict = op.check(outcome)
                except Exception as exc:  # a malformed report fails the check
                    verdict = workloads.Verdict([f"{op.kind}: check raised {exc!r}"])
            else:
                verdict = workloads.Verdict([error])
            run.judge(op.kind, verdict)
            verdicts.append((op.kind, verdict))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not samples:
        return
    # A pass too short to be interrupted (only in tests) is followed by rounds.
    slowness = calibrate.slowness(run.sampler.ticks_since(begin) or calibrate.rounds(2))
    run.samples += [(tracer is not None, kind, secs / slowness) for kind, secs in samples]
    if fits is not None:
        return
    run.last_pass = verdicts
    run.passes.append((tracer is not None, timed / slowness))
    run.pass_walls.append((timed, slowness))
    if tracer is not None:
        run.summaries.append(tracing.summarize(tracer, time_scale=1.0 / slowness))
        run.last_spans = tracer.spans


def measure(run: Run, ops: list[workloads.Op], seconds: float, trace: bool,
            after_pass=lambda: None) -> None:
    """Passes until the next one, if as slow as the slowest so far, would end
    after `seconds`; traced runs alternate untraced and traced passes and
    make at least one of each. `after_pass` runs untimed after every pass.
    An untraced run then fills its remaining time with the operations of one
    more pass that still fit, each taken to be as slow as its slowest sample:
    a workload of few long operations (law_campaigns) gets more samples."""
    tracer = tracing.Tracer(run.sampler.clock) if trace else None
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        run_pass(run, ops, tracer if trace and len(walls) % 2 else None)
        walls.append(time.perf_counter() - t0)
        after_pass()
        enough = len(walls) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + max(walls) > seconds:
            break
    if not trace:
        run_pass(run, ops, None,
                 fits=lambda kind: time.perf_counter() - start + run.slowest[kind] <= seconds)


def _gridcp_module_names() -> list[str]:
    return [m for m in sys.modules if m == "gridcp" or m.startswith("gridcp.")]


def timed_set_up(run: Run, outdir: Path) -> tuple[list[workloads.Op], float, float]:
    """`set_up` between reference rounds; return the operations and the
    set-up's seconds adjusted for the host's slowness and as wall time."""
    before = calibrate.rounds(SETUP_REFERENCE_ROUNDS)
    ops, secs = set_up(run.workload, run.seed, outdir, run.sampler.clock)
    after = calibrate.rounds(SETUP_REFERENCE_ROUNDS)
    return ops, secs / calibrate.slowness(before + after), secs


def set_up(workload: str, seed: int, outdir: Path,
           clock=time.perf_counter) -> tuple[list[workloads.Op], float]:
    """Import gridcp afresh and build the workload; return the operations and
    the seconds taken. Modules already imported are put back afterwards, so
    operations built earlier keep running against the modules a tracer
    patches; only the first call's operations are live."""
    live = {name: sys.modules.pop(name) for name in _gridcp_module_names()}
    gc.collect()  # start with the previous set-up's garbage gone
    t0 = clock()
    importlib.import_module("gridcp")
    importlib.import_module("gridcp.cli")
    ops = workloads.build(workload, seed, outdir)
    secs = clock() - t0
    if live:
        for name in _gridcp_module_names():
            del sys.modules[name]
        sys.modules.update(live)
    return ops, secs


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ck_threads: str | None) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "gridcp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "ck_threads_set": ck_threads is not None,
        "ck_threads_value": ck_threads,
    }


def end_to_end(run: Run, ops: list[workloads.Op], setup_times: list[float]) -> dict[str, float]:
    """`pass_s` is the time of a typical pass: each operation's median time
    times its repeats, summed, so that samples of a run's last, partial
    pass count too."""
    times = run.op_times(traced=False)
    return {
        "setup_s": stats.median(setup_times),
        "pass_s": sum(op.repeats * stats.median(times[op.kind]) for op in ops),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def breakdown(run: Run) -> dict[str, dict[str, float]]:
    """Per operation: median self seconds per module, and uncovered."""
    out: dict[str, dict[str, float]] = {}
    for op in run.summaries[-1].breakdown:
        rows = [s.breakdown.get(op, {}) for s in run.summaries]
        names = sorted({k for r in rows for k in r})
        out[op] = {k: stats.median(r.get(k, 0.0) for r in rows) for k in names}
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "gridcp" / "__init__.py").is_file():
        print(f"gridcp source not found under {SRC}", file=sys.stderr)
        return 2
    # The benchmark runs single-threaded; whether CK_THREADS was set is recorded.
    ck_threads = os.environ.pop("CK_THREADS", None)
    sys.path.insert(0, str(SRC))

    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    run = Run(args.workload, args.seed, goldens)
    env = environment(ck_threads)
    run.sampler.start()
    try:
        # Only the first set-up's operations are live; the others are only timed.
        ops, *first = timed_set_up(run, outdir)
        setups = [tuple(first)] + [
            timed_set_up(run, outdir)[1:] for _ in range(SETUP_REPEATS_FIRST - 1)
        ]
        import gridcp

        if not Path(gridcp.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"gridcp imported from {gridcp.__file__}, not {SRC}", file=sys.stderr)
            return 2
        measure(run, ops, args.seconds, bool(args.trace),
                after_pass=lambda: setups.append(timed_set_up(run, outdir)[1:]))
    finally:
        run.sampler.stop()
    setup_times = [adjusted for adjusted, _wall in setups]
    defects = workloads.known_defects(outdir)

    if args.trace:
        values = metrics.per_layer(run)
    else:
        values = end_to_end(run, ops, setup_times)
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics.with_units(values),
    }
    op_rows = {}
    for kind, samples in run.op_times(traced=False).items():
        tail = stats.tail_percentile(len(samples))
        op_rows[kind] = {
            "median_s": stats.median(samples),
            "samples": len(samples),
            **({f"p{tail:g}_s": stats.percentile(samples, tail)} if tail else {}),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "known_defects": defects,
        "golden_recorded": bool(run.goldens),
        "reference_round_s": calibrate.REF_S,
        "setup_samples_s": setup_times,
        "setup_wall_s": [wall for _adjusted, wall in setups],
        "operations": op_rows,
        "passes": [
            {"traced": t, "seconds": s, "wall_s": wall, "slowness": slow}
            for (t, s), (wall, slow) in zip(run.passes, run.pass_walls)
        ],
        "failures": run.tally.reasons,
        "result": result,
    }
    if args.trace:
        record["breakdown_s"] = breakdown(run)
        record["last_traced_pass_spans"] = [
            [s.id, s.parent, s.name, s.start, s.end, s.hot_s] for s in run.last_spans
        ]
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment:", json.dumps(env, sort_keys=True))
    print("known defects:", json.dumps(defects, sort_keys=True))
    print(f"golden digests recorded for this seed: {bool(run.goldens)}")
    for kind, row in op_rows.items():
        print(f"operation {kind}:", json.dumps(row, sort_keys=True))
    print(f"passes: {len(run.pass_times(False))} untraced, {len(run.pass_times(True))} traced; "
          f"host slowness {min(s for _w, s in run.pass_walls):.3f}"
          f"-{max(s for _w, s in run.pass_walls):.3f}")
    print(f"failed_ratio: {run.tally.failed_ratio} "
          f"({run.tally.failed} of {run.tally.attempted} operations)")
    for reason in run.tally.reasons[:20]:
        print("FAILED:", reason)
    for op, rows in record.get("breakdown_s", {}).items():
        print(f"self time by module, {op}:", json.dumps(rows, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
