#!/usr/bin/env python3
"""Builds and runs the PartiX end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   (each workload in turn)
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
The last line of standard output is the run's JSON result; the exit code
is 0 only when every answer was correct.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A measured run ends well within this; a hung run is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "ab") as log:
        return subprocess.call(cmd, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("PartiX sources not found at %s/src: run from a full checkout"
             % ROOT)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", bdir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log) != 0:
            fail("cmake configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", bdir, "-j", jobs], log) != 0:
        fail("build failed; see " + log)
    return os.path.join(bdir, "partix_perfbench")


def run(binary, args):
    proc = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)


def main():
    binary = build()
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else 0
    if at == 0 or at >= len(args) or args[at] != "all":
        sys.exit(run(binary, args))
    # Every workload in its own process, so each has its own peak RSS.
    names = subprocess.run([binary, "--list"], check=True, text=True,
                           stdout=subprocess.PIPE).stdout.split()
    codes = []
    for name in names:
        args[at] = name
        codes.append(run(binary, args))
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
