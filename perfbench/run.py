#!/usr/bin/env python3
"""Build and run the tcpni host benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mesh-hotspot --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test [--seed N]

The first run configures and builds perfbench/ (which compiles the
repository's src/ tree) into .bench_build/perfbench; later runs only
rebuild what changed.  Build output goes to stderr.  The driver's
standard output is passed through unchanged: its last line is the JSON
result.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# A run measures for --seconds; this bounds the whole driver process.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no tcpni sources under {ROOT}/src; run from a checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check determinism and trace transparency")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seconds is None):
        ap.error("--workload and --seconds are required")

    build()
    cmd = [BINARY]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.self_test:
        cmd += ["--self-test"]
        timeout = None
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        timeout = RUN_TIMEOUT_S
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    # Stop the driver with us, and never leave it running.
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {timeout} s")
    sys.exit(0 if rc == 0 else 1)


if __name__ == "__main__":
    main()
