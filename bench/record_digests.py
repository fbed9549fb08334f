"""Record the output digests that bench/run.py checks every pass against.

Runs one untimed pass of every workload for each seed and stores the
per-task digests in bench/digests.json, one line per seed.  Run it from
the root of a checkout whose outputs are the reference; a seed with a
failed task is not recorded.

    python3 bench/record_digests.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    run.load_package(os.getcwd())
    import workloads

    with open(run.DIGESTS) as f:
        data = json.load(f)
    for name in workloads.WORKLOADS:
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            result = run.run_pass(workload, workload.tasks(), None)
            if result["failed"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} tasks failed; not recorded")
            data.setdefault(name, {})[str(seed)] = result["digests"]
            print(f"{name} seed {seed}: {run.digest(result['digests'])}", flush=True)

    blocks = []
    for name in sorted(data):
        seeds_ = sorted(data[name], key=int)
        rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(data[name][s])}" for s in seeds_)
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    with open(run.DIGESTS, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
