"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload law_campaigns --seeds 1-10 --seconds 42
    python3 perfbench/spread.py --workload law_campaigns --seeds 1 --repeat 10 --seconds 42

Runs `perfbench/run.py --trace 0` `--repeat` times per seed, one run at a
time, and prints per end-to-end metric the median, the extremes and the
quartile spread (Q3 - Q1 over the median, quartiles as
`statistics.quantiles(values, n=4)` gives them). Many seeds give the spread
the benchmark is judged by; one seed repeated gives the part of it that is
run-to-run noise rather than a change of inputs. Each run's last output line
is appended to `--log`, when given, so that two sets of runs can be compared
later.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from perfbench.stats import median, quartile_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--repeat", type=int, default=1, help="runs per seed")
    p.add_argument("--log", type=Path)
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    for seed in [s for s in args.seeds for _ in range(args.repeat)]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if args.log:
            with args.log.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in sorted(values.items()):
        med = median(vals)
        spread = quartile_spread(vals) if len(vals) > 1 and med else float("nan")
        print(f"{name}: median {med:.6g} min {min(vals):.6g} max {max(vals):.6g} "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
