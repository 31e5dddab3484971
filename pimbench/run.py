#!/usr/bin/env python3
"""Builds pimbench from source and runs one workload.

    python3 pimbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/pimbench
(Release); a build that is already up to date costs about a second. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's, or 1 when the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("ebnn_paper_scale", "yolo_lite_stream", "yolo_tiny_frame",
             "yolo_lite_faulty")


def build(root, build_dir):
    """Configures (once) and builds the pimbench target; True on success.
    Later builds re-run CMake by themselves when a CMakeLists.txt changed."""
    steps = [["cmake", "--build", build_dir, "--target", "pimbench", "-j",
              str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "pimbench"), "-B",
                         build_dir, "-G", "Ninja",
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "pimbench")
    if not build(root, build_dir):
        print("pimbench: build failed", file=sys.stderr)
        return 1

    # The program reads its configuration from PIMDNN_* variables; the
    # benchmark fixes every setting itself, so none may leak in (the host
    # pool then sizes itself to the machine's cores).
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIMDNN_")}
    cmd = [os.path.join(build_dir, "pimbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file",
           os.path.join(root, ".bench_build", "trace-%s.json" % args.workload)]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
