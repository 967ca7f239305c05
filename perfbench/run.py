#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the library, the shipped tools and the benchmark driver from
source (CMake, Release) into .bench_build/, runs the driver's
arithmetic self-test, then runs one workload:

    python3 perfbench/run.py --workload suite_llama --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is the JSON result. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("suite_llama", "serve_synth", "cluster_catalog")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("repository sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-test failed")


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Processes orphaned below the driver (a router's replicas when the
    # driver is killed) are re-parented here and stopped at the end.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    build()
    work = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(BUILD, "repo"), "--work-dir", work,
           "--commit", commit_id()]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True)
    except subprocess.TimeoutExpired:
        reap_orphans()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    reap_orphans()
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode == 0:
        check_metrics(run.stdout, args.trace)
    sys.exit(run.returncode)


def reap_orphans():
    """Kill and wait for every process left re-parented to us."""
    me = str(os.getpid())
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as f:
                ppid = f.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            try:
                os.kill(int(pid), 9)
                os.waitpid(int(pid), 0)
            except OSError:
                pass


def check_metrics(stdout, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    if sorted(got) != sorted(want):
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (sorted(got), sorted(want)), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
