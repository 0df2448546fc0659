#!/usr/bin/env python3
"""Build and run the Lemur benchmark.

    python3 lemurbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds
lemurbench/lemurbench.exe with dune (release profile, shared cache off,
so everything stays inside the tree), runs it with the same arguments,
checks that the metrics it printed are exactly those BENCHMARK.json
declares for the mode, and relays its output. It exits non-zero without
printing a result when the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "lemurbench", "lemurbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./lemurbench/lemurbench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % proc.returncode)


def declared(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or sorted(args) != ["--seconds", "--seed", "--trace", "--workload"]:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build()
    try:
        proc = subprocess.run([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %ds" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared(args["--trace"]):
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(declared(args["--trace"]))))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
