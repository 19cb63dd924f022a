#!/usr/bin/env python3
"""Strict numeric query parsing in the magus-daemon fleet service.

Starts `magus-daemon --fleet --metrics-port 0`, reads the bound port from its
first stdout line, and submits jobs over HTTP. A malformed number in a
POST /fleet/jobs query (trailing characters, a sign on an unsigned seed, a
non-finite budget) must be rejected with 400 and a body naming the offending
token -- never a 500, never a silently truncated or wrapped value that queues
a job. A well-formed submission must still be accepted with 202, and SIGINT
must stop the daemon cleanly (exit 0) once the queued job has finished.

The real-hardware mode's `--interval` is checked first: a value outside
(0, 3600] s must exit 2 with an error naming the interval, and must do so
before the MSR device is probed, so the check holds on hosts without one.

Usage: test_daemon_query.py <path-to-magus-daemon>
"""

import http.client
import re
import select
import signal
import subprocess
import sys

STARTUP_TIMEOUT_S = 30
EXIT_TIMEOUT_S = 120


def read_port(proc):
    ready, _, _ = select.select([proc.stdout], [], [], STARTUP_TIMEOUT_S)
    if not ready:
        raise SystemExit("FAIL: daemon printed nothing on stdout")
    line = proc.stdout.readline()
    match = re.search(r"on port (\d+)", line)
    if not match:
        raise SystemExit(f"FAIL: first stdout line names no port: {line!r}")
    return int(match.group(1))


def post(port, query):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/fleet/jobs?" + query)
        res = conn.getresponse()
        return res.status, res.read().decode("utf-8", "replace")
    finally:
        conn.close()


def check_rejections(port):
    cases = [
        ("nodes=4&fault_rate=abc", "abc"),
        ("nodes=4&seed=-1", "-1"),
        ("nodes=4&power_budget=12x", "12x"),
        ("nodes=4&power_budget=inf", "inf"),
    ]
    for query, token in cases:
        status, body = post(port, query)
        if status != 400:
            raise SystemExit(f"FAIL: ?{query} returned {status}, not 400: {body!r}")
        if token not in body:
            raise SystemExit(f"FAIL: 400 body for ?{query} does not name {token!r}: {body!r}")
    print(f"ok: {len(cases)} malformed numeric queries rejected with 400 naming the token")


def check_accepts(port):
    status, body = post(port, "nodes=4&seed=5")
    if status != 202:
        raise SystemExit(f"FAIL: ?nodes=4&seed=5 returned {status}, not 202: {body!r}")
    if "fleet_job_queued" not in body:
        raise SystemExit(f"FAIL: 202 body is not a fleet_job_queued event: {body!r}")
    print("ok: well-formed submission queued with 202")


def check_interval_bounds(daemon):
    for value in ("5000", "0"):
        res = subprocess.run(
            [daemon, "--throughput-file", "/nonexistent", "--interval", value],
            capture_output=True,
            text=True,
            timeout=STARTUP_TIMEOUT_S,
        )
        if res.returncode != 2:
            raise SystemExit(f"FAIL: --interval {value} exited {res.returncode}, not 2")
        if "interval" not in res.stderr:
            raise SystemExit(f"FAIL: --interval {value} error names no interval: "
                             f"{res.stderr!r}")
    print("ok: out-of-range --interval values exit 2 naming the interval")


def main():
    if len(sys.argv) < 2:
        raise SystemExit("usage: test_daemon_query.py <path-to-magus-daemon>")
    check_interval_bounds(sys.argv[1])
    proc = subprocess.Popen(
        [sys.argv[1], "--fleet", "--metrics-port", "0", "--jobs", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = read_port(proc)
        check_rejections(port)
        check_accepts(port)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=EXIT_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"FAIL: daemon exited {proc.returncode} on SIGINT\n{stderr}")
        print("ok: SIGINT stops the daemon with exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("PASS")


if __name__ == "__main__":
    main()
