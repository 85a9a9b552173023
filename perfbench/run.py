#!/usr/bin/env python3
"""Build and run the revft benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles librevft from ../src) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr; the
benchmark's report goes to stdout, ending with one JSON line. With
--trace 1 the run's spans are also written to .bench_build/spans-<workload>.json.
The exit code is the benchmark's, or 1 when the build fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "revft_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no revft sources at %s/src" % ROOT, file=sys.stderr)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
        cmd = ["cmake", "--build", BUILD, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1" and "--workload" in args:
            j = args.index("--workload")
            if j + 1 < len(args):
                name = os.path.basename(args[j + 1])
                args += ["--spans-out", os.path.join(BUILD_ROOT, "spans-%s.json" % name)]
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
