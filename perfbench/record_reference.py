"""Record the reference outputs that run.py checks every run against.

Usage (from the repository root):

  python3 perfbench/record_reference.py --seeds 0-31 [--workload NAME ...]

For each (workload, seed) it makes one untraced run, exactly as run.py
does, and stores the run's total_avg_online_accuracy repr and its
feature_srank and weight_magnitude columns in perfbench/reference.json.
Record only at a commit whose outputs are the accepted baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from inputs import make_inputs
from run import HERE, ROOT, WORKLOADS, Runner, check_run

CHECKED = ("total_avg_online_accuracy", "feature_srank", "weight_magnitude")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    path = os.path.join(HERE, "reference.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    for name in args.workload:
        for seed in range(lo, hi + 1):
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
                config = {**WORKLOADS[name]["config"], "seed": seed,
                          **make_inputs(work, WORKLOADS[name]["data"], seed)}
                result, out, error = Runner(work, config, time.monotonic() + 300).launch("run", False)
                if result is None:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                got, problems = check_run(out, config, None, None)
            if problems:
                print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = {k: got[k] for k in CHECKED}
            print(f"{name} seed {seed}: {got['total_avg_online_accuracy']}", flush=True)
            with open(path, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
