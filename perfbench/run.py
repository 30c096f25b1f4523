#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the benchmark and `bin/hfsc_sim.exe` and runs one
workload. The benchmark is a dune project of its own (perfbench/dune-project);
it is staged under `.bench_build/src/` with copies of the repository's
`lib/`, `bin/` and `bench/`, whose libraries it links, and built there with
the `perfbench` profile (no dune cache, nothing written outside the
checkout). The bench prints a context
line and, last, the result line
`{"correct", "attempted", "failed", "metrics"}`; its exit status is
non-zero when any correctness check failed.

`--smoke` runs every workload of BENCHMARK.json for a fraction of a
second, traced and untraced, and checks that each run is correct and
reports exactly the metric names and units BENCHMARK.json declares.
"""

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
STAGE = os.path.join(BUILD_DIR, "src")
BENCH_EXE = os.path.join(BUILD_DIR, "_build", "default", "bench.exe")
DAEMON_EXE = os.path.join(BUILD_DIR, "_build", "default", "bin", "hfsc_sim.exe")
# The repository's sources the benchmark builds on: the libraries it
# links (lib/, and json_lite in bench/) and the daemon (bin/).
REPO_DIRS = ["lib", "bin", "bench"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def stage():
    """Copy the benchmark's project files to the root of STAGE and the
    repository's REPO_DIRS below it, replacing an earlier stage."""
    if not all(os.path.isdir(d) for d in REPO_DIRS):
        fail("run from the root of a source checkout (no %s here)" % ", ".join(REPO_DIRS))
    if os.path.isdir(STAGE):
        shutil.rmtree(STAGE)
    for d in REPO_DIRS:
        shutil.copytree(d, os.path.join(STAGE, d))
    for f in sorted(os.listdir(HERE)):
        if f in ("dune-project", "dune") or f.endswith(".ml"):
            shutil.copy2(os.path.join(HERE, f), STAGE)


def build():
    stage()
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "perfbench",
           "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "_build")),
           "./bench.exe", "./bin/hfsc_sim.exe"]
    try:
        r = subprocess.run(cmd, cwd=STAGE, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune is not installed")
    if r.returncode != 0:
        fail("build failed")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "bench", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_bench(args):
    """Run the bench, passing a termination signal on so that it can stop
    the daemons it started before it exits."""
    cmd = [BENCH_EXE] + args + ["--daemon", DAEMON_EXE, "--commit", revision()]
    child = subprocess.Popen(cmd)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: child.send_signal(signum))
    return child.wait()


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w["name"], trace)
            cmd = [BENCH_EXE, "--workload", w["name"], "--seed", "1", "--seconds", "0.3",
                   "--trace", str(trace), "--daemon", DAEMON_EXE, "--commit", "smoke"]
            r = subprocess.run(cmd, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: no result line (exit %d): %s" % (tag, r.returncode, r.stderr[-500:]))
                continue
            if r.returncode != 0 or not res["correct"] or res["failed"] != 0:
                problems.append("%s: incorrect (exit %d): %s" % (tag, r.returncode, r.stderr[-500:]))
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metric names/units differ from BENCHMARK.json: %s"
                                % (tag, sorted(set(got.items()) ^ set(declared[trace].items()))))
            for k, m in res["metrics"].items():
                ok = isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                if not ok or (trace == 0 and m["value"] <= 0):
                    problems.append("%s: %s = %r" % (tag, k, m["value"]))
            print("smoke %-22s correct=%s attempted=%d" % (tag, res["correct"], res["attempted"]))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--smoke"]:
        sys.exit(smoke())
    sys.exit(run_bench(argv))


if __name__ == "__main__":
    main()
