"""Command-line entry point.

    ck <experiment> --config <path.json> [--seed N] [--trials N]
                    [--out path] [--format json|csv]

Exit codes: 0 when every check in the experiment passed, 1 when any
counterexample or failed check was recorded, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import EXPERIMENTS, ExperimentConfig, emit, run_experiment


# Exceptions that mean a bad config: `main` reports them and exits 2.
CONFIG_ERRORS = (OSError, ValueError, KeyError)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ck",
        description="Run a verification experiment and emit a machine-readable report.",
    )
    p.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment to run")
    p.add_argument("--config", help="JSON config file; CLI flags override its fields")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--trials", type=int, help="number of randomized trials")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    obj: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"a config must be a JSON object, not {type(obj).__name__}")
    obj["experiment"] = args.experiment
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.trials is not None:
        obj["trials"] = args.trials
    return ExperimentConfig.from_json_obj(obj)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    if args.out:
        emit(report, args.out, args.format)
    passed = bool(report.get("pass", False))
    print(f"{cfg.experiment}: {'PASS' if passed else 'FAIL'} (seed={cfg.seed})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
