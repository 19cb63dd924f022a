#!/usr/bin/env python3
"""Capture the golden output digests run.py checks every run against.

Usage (from the repository root):

    python3 perfbench/goldens.py [--seeds N]

Builds the benchmark like run.py, runs each workload once per seed 0..N-1
with --digest-only 1 (one batch, no timing), and rewrites
perfbench/goldens.json as {workload: {seed: digest}}. Capture goldens only
from a build whose outputs are the accepted behaviour: a later change that
alters any simulated output, rollup byte or decision then fails run.py's
digest gate on every recorded seed.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(build_dir)
    goldens = {}
    for workload in workloads:
        goldens[workload] = {}
        for seed in range(args.seeds):
            out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                                  "--seconds", "0", "--trace", "0", "--digest-only", "1"],
                                 check=True, capture_output=True, text=True)
            goldens[workload][str(seed)] = out.stdout.strip().split("\n")[-1]
        run.log(f"{workload}: {args.seeds} digests")
    with open(os.path.join(run.HERE, "goldens.json"), "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
