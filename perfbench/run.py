#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-rt --seed 1 --seconds 10 --trace 0

It builds perfbench/main.exe with dune, runs it, checks that the result
names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and prints the
result as the last line of standard output.  Any failure (build, run,
malformed result) exits nonzero without printing a result.  Everything
the run writes stays under .bench_build/ and _build/ in the checkout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join(".bench_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    head_path = os.path.join(".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def run(cmd, env, timeout):
    """Run to completion in its own process group.  On timeout, or when
    this script is terminated, the whole group (dune's compiler children
    included) is killed and reaped."""
    try:
        proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    except OSError as e:
        fail("%s: %s" % (cmd[0], e))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s: timed out after %d s" % (cmd[0], timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: fail("terminated"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT_DIR)
    # Keep freed memory in the process: the simulator allocates and frees
    # 16 MiB region backings on every run, and faulting them in afresh
    # would otherwise cost from nothing to a third of a paper pass in
    # system time, varying from pass to pass.
    env["GLIBC_TUNABLES"] = (
        "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296")

    sys.stdout.flush()
    if run(["dune", "build", "--root", ".", "./perfbench/main.exe"], env, BUILD_TIMEOUT_S) != 0:
        fail("build failed")

    result_file = os.path.join(
        OUT_DIR, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(result_file):
        os.remove(result_file)
    started = time.monotonic()
    code = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", result_file, "--commit", git_commit()],
        env, RUN_BUDGET_S)
    if code != 0:
        fail("benchmark exited with %d" % code)
    try:
        with open(result_file) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        fail("result: %s" % e)

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s" % (missing, extra))
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            fail("%s: unit %r, declared %r" % (name, m["unit"], units[name]))
    print("run        %.1f s" % (time.monotonic() - started))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
