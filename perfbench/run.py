#!/usr/bin/env python3
"""Repository benchmark: build magus_perfbench from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which pulls in the magus library from the enclosing source
tree) into .bench_build/ -- or $CARGO_TARGET_DIR when set -- runs the workload,
checks its output digest against perfbench/goldens.json, and prints the
benchmark's human-readable tables followed, as the last line of standard
output, by one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits 0 when every correctness gate held and
non-zero otherwise (a failed build, a failed gate, a digest mismatch).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (until a build system exists) and build; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "magus_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "magus_perfbench")


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the library sources and build files the binary is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited {proc.returncode} without a result")
        return 1
    for line in lines[:-1]:
        print(line)

    gates_ok = proc.returncode == 0 and all(g["ok"] for g in raw["gates"])
    failed = int(raw["failed"])
    with open(os.path.join(HERE, "goldens.json")) as f:
        golden = json.load(f).get(args.workload, {}).get(str(args.seed))
    if golden is None:
        print(f"  [--] no golden digest recorded for seed {args.seed}; "
              f"digest {raw['digest']}")
    elif golden == raw["digest"]:
        print(f"  [ok] output digest equals the golden for seed {args.seed}: {golden}")
    else:
        print(f"  [FAIL] output digest {raw['digest']} != golden {golden} "
              f"for seed {args.seed}")
        gates_ok = False
        failed += 1

    attempted = max(1, int(raw["attempted"]))
    print(f"failed_pct {100.0 * failed / attempted:.4g} % ({failed} failed gates or items, "
          f"{attempted} work items attempted)")
    stamp = dict(raw["stamp"])
    stamp["git_commit"] = git_commit() or "unavailable (not a git checkout)"
    stamp["source_digest"] = source_digest()
    print("stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = raw["metrics"].get(spec["name"])
        if got is None or got["value"] is None:
            log(f"metric {spec['name']} missing from the {args.workload} run")
            return 1
        if got["unit"] != spec["unit"]:
            log(f"metric {spec['name']}: unit {got['unit']} != {spec['unit']}")
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": gates_ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if gates_ok else 1


if __name__ == "__main__":
    sys.exit(main())
