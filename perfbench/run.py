#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The benchmark binary prints a host line, a detail line and, last, the
result object; this script passes its output through and exits with its
exit code. Without the library sources it exits non-zero and prints no
result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit_walk8d", "fit_blobs2d_noisy", "serve_point_json",
             "serve_batch_refresh")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found under " +
                           os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 1

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("benchmark exited with code %d" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
