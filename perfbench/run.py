#!/usr/bin/env python3
"""Builds perfbench from source and runs one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fig5_matrix|keychurn|vault_crashsweep>
                             --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the repository root and is reused by later runs. Build output goes to
stderr. The measurement's stdout is passed through once its last line has
been checked to be the result JSON; on any failure the script exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5_matrix", "keychurn", "vault_crashsweep")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    # A build tree configured for another source directory cannot be reused.
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text(errors="replace"):
        shutil.rmtree(bdir)
    if not cache.exists():
        code, _ = run_group(["cmake", "-S", str(HERE), "-B", str(bdir),
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                            CONFIGURE_TIMEOUT_S, sys.stderr)
        if code != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configure failed", code)
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run_group(["cmake", "--build", str(bdir), "--target", "perfbench",
                         "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail("build failed", code)
    return bdir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(HERE / "reference")]
    if args.trace:
        cmd += ["--spans-out", str(build_dir() /
                                   f"spans-{args.workload}-{args.seed}.jsonl")]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        sys.stderr.write(out)
        fail(f"measurement exited with {code}", code)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("measurement printed no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
