"""Record the golden verdict digests that benchmark runs are checked against.

    python3 perfbench/record_goldens.py --seeds 0-20 [--workload NAME]

Runs every operation of each workload once per seed, refuses to record an
operation whose checks fail, and merges the digests of the verdict-bearing
fields into `perfbench/goldens.json`. Record goldens only at a commit whose
verdicts are known good; a later change must reproduce them, not re-record
them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))
from perfbench import workloads  # noqa: E402
from perfbench.spread import seeds  # noqa: E402

GOLDENS = HERE / "goldens.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = p.parse_args()

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    outdir = ROOT / ".perfbench_out" / "goldens"
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        for seed in args.seeds:
            digests = {}
            for op in workloads.build(name, seed, outdir):
                verdict = op.check(op.run())
                if verdict.problems:
                    print(f"{name} seed {seed}: {verdict.problems}", file=sys.stderr)
                    return 1
                digests[op.kind] = verdict.digest
            goldens.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {digests}", flush=True)
            GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
