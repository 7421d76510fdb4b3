#!/usr/bin/env python3
"""GLVA benchmark entry point.

Builds the benchmark program (and the library it links) from the source tree
this file sits in, then runs one workload:

    python3 perfbench/run.py --workload verify_deep --seed 1 --seconds 40 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build/ at the repository root; scratch files of a run live
under that directory and are removed when the run ends. The last line of
standard output is the run's JSON result; build output goes to standard
error. `--self-test` builds and runs the span self-time test instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["verify_deep", "ensemble_spill", "reanalyze_stored", "serve_mixed"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no GLVA source tree at {ROOT}; nothing to build")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")

    if args.self_test:
        build(build_dir, ["perfbench_spans_test"])
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_spans_test")]).returncode)

    build(build_dir, ["glva_perfbench"])
    # Relative to the repository root: keeps the daemon's Unix socket path
    # short whatever the checkout's absolute path is.
    work_dir = os.path.relpath(
        os.path.join(target_dir, "work", f"{args.workload}-{os.getpid()}"),
        ROOT)
    command = [os.path.join(build_dir, "glva_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
