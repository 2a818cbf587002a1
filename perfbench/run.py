#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # one row per workload

The benchmark is the Rust package in this directory; it is built from the
sources of the checkout (the `crates/` it depends on by path) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["ingest", "detect", "survey"]
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    # The benchmark drives the workspace crates; without them there is
    # nothing to measure.
    for crate in ["core", "dht", "meta", "proto", "rpc", "util"]:
        if not os.path.isfile(os.path.join(root, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from a full checkout of the repository")
    env = dict(os.environ)
    # A relative target directory is relative to the repository root.
    env["CARGO_TARGET_DIR"] = os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def run_one(binary, root, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    code = proc.returncode
    if code < 0:
        # Killed by a signal, e.g. SIGXFSZ under a file-size limit below
        # the page logs' sparse size: name it and exit the shell's way.
        print(f"run.py: {workload} killed by {signal.Signals(-code).name}", file=sys.stderr)
        code = 128 - code
    return code, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    binary = build(root)
    if args.workload != "all":
        code, _ = run_one(binary, root, args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)

    # Every workload, then one row each and a combined verdict.
    rows, results, worst = [], {}, 0
    for w in WORKLOADS:
        code, out = run_one(binary, root, w, args.seed, args.seconds, args.trace)
        worst = worst or code
        lines = out.strip().splitlines()
        rows += [l for l in lines if l.startswith("row ")]
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[w] = None
            worst = worst or 1
    print()
    print("\n".join(rows))
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
