#!/usr/bin/env python3
"""Builds perfbench from source (if needed) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench
(Release, the repository's own flags); traced runs also write a Chrome
Trace Event JSON file to .bench_build/perfbench/traces/. The last line of
standard output is the result JSON the benchmark binary prints.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no cimnav sources next to the benchmark")
    jobs = str(len(os.sched_getaffinity(0)))
    cmds = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    # Configure once; the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    # Replace this process: the benchmark's exit code and output are ours.
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
