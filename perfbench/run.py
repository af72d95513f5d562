#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (the
library sources plus the bench_e2e harness) under the directory named by
CARGO_TARGET_DIR, default .bench_build, then runs bench_e2e once. With
--trace 1 the harness prints the per-layer metrics and writes its spans to
<build dir>/traces/. The last line of standard output is the harness's JSON
result; the exit status is the harness's, or 1 when the build fails. The
script replaces itself with the harness, so a signal sent to it stops the
measurement too.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def step(args):
    """Run one build command; stopping it stops the compilers under it too."""
    p = subprocess.Popen(args, stdout=sys.stderr, start_new_session=True)
    try:
        p.wait()
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    if p.returncode != 0:
        raise subprocess.CalledProcessError(p.returncode, args)


def build(build_dir):
    """Configure (once) and build bench_e2e; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "bench_e2e")
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs])
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--spec={os.path.join(ROOT, 'BENCHMARK.json')}"]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace={os.path.join(traces, f'{args.workload}-seed{args.seed}.json')}")
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
