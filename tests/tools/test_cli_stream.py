#!/usr/bin/env python3
"""Stdout purity of `magus-cli fleet --out -`, and strict flag parsing.

When the rollup streams to stdout, every human-facing line -- banner, tables,
summary, and warnings (including the shard-size clamp warning, which once
went to stdout and corrupted piped JSONL) -- must land on stderr, leaving
stdout a parseable JSONL document and nothing else.

A malformed command line (a trailing flag with no value, a flag the command
does not take, a numeric value with trailing characters) must fail with exit
code 2 and name the flag or token, before any simulation runs or any output
file is written.

Usage: test_cli_stream.py <path-to-magus-cli>
"""

import json
import subprocess
import sys


def run(cli, args):
    proc = subprocess.run(
        [cli] + args, capture_output=True, text=True, timeout=600, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}"
        )
    return proc


def check_stream_purity(cli):
    # --shard-size far beyond the fleet forces the clamp warning; --out -
    # streams the rollup. The warning must not contaminate the stream.
    proc = run(
        cli,
        [
            "fleet",
            "--nodes", "6",
            "--seed", "11",
            "--policy", "comppow",
            "--power-budget", "2000",
            "--shard-size", "100000",
            "--jobs", "2",
            "--out", "-",
        ],
    )
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit("FAIL: --out - produced no stdout")
    types = []
    for i, line in enumerate(lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(
                f"FAIL: stdout line {i + 1} is not JSON ({e}): {line!r}"
            ) from e
        types.append(event.get("type"))
    if types[0] != "fleet_rollup":
        raise SystemExit(f"FAIL: first stream line is {types[0]!r}, not fleet_rollup")
    for expected in ("policy_rollup", "budget_rollup", "node_result"):
        if expected not in types:
            raise SystemExit(f"FAIL: stream carries no {expected} line")
    if "clamping" not in proc.stderr:
        raise SystemExit("FAIL: shard-size clamp warning missing from stderr")
    if "simulating fleet" not in proc.stderr:
        raise SystemExit("FAIL: banner missing from stderr")
    print(f"ok: stream purity ({len(lines)} JSONL lines, chatter on stderr)")


def check_stream_matches_file(cli, tmpdir):
    # `--out -` and `--out file` must produce the same bytes.
    common = [
        "fleet",
        "--nodes", "5",
        "--seed", "3",
        "--policy", "deadline",
        "--power-budget", "1500",
        "--jobs", "2",
    ]
    streamed = run(cli, common + ["--out", "-"]).stdout
    path = tmpdir + "/rollup.jsonl"
    run(cli, common + ["--out", path])
    with open(path, encoding="utf-8") as f:
        on_disk = f.read()
    if streamed != on_disk:
        raise SystemExit("FAIL: streamed rollup differs from --out file rollup")
    print("ok: streamed rollup matches the on-disk rollup byte for byte")


def check_strict_flags(cli, tmpdir):
    out = tmpdir + "/never.jsonl"
    cases = [
        (["fleet", "--nodes", "8", "--out", out, "--jobs"], "--jobs"),
        (["run", "--system", "intel_a100", "--app", "bfs", "--policy", "magus",
          "--bogus", "1"], "--bogus"),
    ]
    for args, flag in cases:
        proc = subprocess.run([cli] + args, capture_output=True, text=True,
                              timeout=600, check=False)
        if proc.returncode != 2:
            raise SystemExit(f"FAIL: {' '.join(args)} exited {proc.returncode}, not 2")
        if flag not in proc.stderr:
            raise SystemExit(f"FAIL: error for {' '.join(args)} does not name {flag}: "
                             f"{proc.stderr!r}")
    import os

    if os.path.exists(out):
        raise SystemExit("FAIL: a rejected command line still wrote --out")
    print("ok: malformed flags exit 2 and name the flag")


def check_strict_values(cli, tmpdir):
    # A numeric value with trailing characters is an error naming the token,
    # not a silently truncated run; the removed --engine flag is an unknown
    # flag. Neither may write --out.
    out = tmpdir + "/never.jsonl"
    cases = [
        (["fleet", "--nodes", "8x", "--out", out], "8x"),
        (["fleet", "--nodes", "4", "--engine", "batch", "--out", out], "--engine"),
    ]
    for args, token in cases:
        proc = subprocess.run([cli] + args, capture_output=True, text=True,
                              timeout=600, check=False)
        if proc.returncode == 0:
            raise SystemExit(f"FAIL: {' '.join(args)} exited 0")
        if token not in proc.stderr:
            raise SystemExit(f"FAIL: error for {' '.join(args)} does not name {token}: "
                             f"{proc.stderr!r}")
    import os

    if os.path.exists(out):
        raise SystemExit("FAIL: a rejected numeric value or flag still wrote --out")
    print("ok: malformed values and the removed --engine flag exit non-zero")


def main():
    if len(sys.argv) < 2:
        raise SystemExit("usage: test_cli_stream.py <path-to-magus-cli>")
    cli = sys.argv[1]
    import tempfile

    with tempfile.TemporaryDirectory() as tmpdir:
        check_stream_purity(cli)
        check_stream_matches_file(cli, tmpdir)
        check_strict_flags(cli, tmpdir)
        check_strict_values(cli, tmpdir)
    print("PASS")


if __name__ == "__main__":
    main()
