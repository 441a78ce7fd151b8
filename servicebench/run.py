#!/usr/bin/env python3
"""Builds the service benchmark from the checkout's sources and runs it.

    python3 servicebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servicebench/run.py --selftest

Run from the root of the repository. The first call configures and builds
the program (Release) and the benchmark into the build directory
($CARGO_TARGET_DIR, default .bench_build) and runs the self-test of the
correctness oracles; later calls only bring the build up to date. Build
output goes to stderr, so the benchmark's JSON result stays the last line
of stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "servicebench")


def sh(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        sys.stderr.write("servicebench: %s failed (exit %d)\n" % (cmd[0], rc))
        sys.exit(1)


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return out


def selftest(out, force=False):
    """Runs the oracle self-test whenever its binary is newer than the last pass."""
    exe = os.path.join(out, "servicebench_selftest")
    stamp = os.path.join(out, "selftest.passed")
    if not force and os.path.exists(stamp) and \
            os.path.getmtime(stamp) >= os.path.getmtime(exe):
        return
    rc = subprocess.call([exe], stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        sys.stderr.write("servicebench: oracle self-test failed\n")
        sys.exit(1)
    with open(stamp, "w") as f:
        f.write("ok\n")


def main():
    args = sys.argv[1:]
    out = build()
    if args == ["--selftest"]:
        selftest(out, force=True)
        return 0
    selftest(out)
    sys.stdout.flush()
    return subprocess.call([os.path.join(out, "servicebench")] + args)


if __name__ == "__main__":
    sys.exit(main())
