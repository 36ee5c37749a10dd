#!/usr/bin/env python3
"""Build the toolkit from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call builds bench.exe and
mslc.exe (dune, under the benchmark's own "perfbench" profile, which
builds like release) into .bench_build/; later calls find them up to
date.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is
the run's full record (environment, input properties, details), which
is also appended to .bench_work/results.jsonl.

    python3 perfbench/run.py --selftest

runs the benchmark's self-test (see README.md).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
PROFILE = "perfbench"
TARGETS = ["perfbench/bench.exe", "bin/mslc.exe"]
WORKLOADS = ["build-cold", "simulate"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def declared_metrics():
    """The metric names and units BENCHMARK.json promises, per mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_child(argv, timeout, stdout):
    """Run argv in its own process group; on timeout kill the whole group
    (the serve workload's daemon included) and wait for it."""
    p = subprocess.Popen(argv, stdout=stdout, stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s timed out after %d s" % (argv[0], timeout))
    return p.returncode, out


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    argv = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
            "--profile", PROFILE] + TARGETS
    try:
        p = subprocess.Popen(argv, stdout=sys.stderr, stderr=sys.stderr,
                             env=env, start_new_session=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    try:
        code = p.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("build timed out")
    if code != 0:
        fail("build failed (dune exit %d)" % code)
    return [os.path.join(BUILD_DIR, "default", t) for t in TARGETS]


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "machines", "examples", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def check_result(line, trace, declared):
    try:
        r = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(r)
    want = declared[trace]
    got = {k: v.get("unit") for k, v in r["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items()))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        fail("--workload is required")
    declared = declared_metrics()
    bench, mslc = build()
    nproc = len(os.sched_getaffinity(0))
    if a.selftest:
        code, _ = run_child([bench, "--selftest", "--mslc", mslc], RUN_TIMEOUT_S, None)
        sys.exit(code)
    argv = [bench, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--nproc", str(nproc), "--commit", source_revision(),
            "--profile", PROFILE, "--mslc", mslc]
    code, out = run_child(argv, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.decode().splitlines()
    if not lines:
        fail("bench.exe printed nothing (exit %d)" % code)
    problem = check_result(lines[-1], a.trace, declared)
    if problem:
        fail(problem, 3)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
