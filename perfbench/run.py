#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Workloads: mem_sweep, service_chain, clone_burst, fleet_gray (see
perfbench/METRICS.md). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to standard error. Traced runs also write their spans to
<build dir>/spans-<workload>.json.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("error: simulator sources (src/) not found next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"error: {' '.join(cmd)}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"error: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
            return None
    return out


def git(*args):
    """Output of a git command in the repository, or None if it fails."""
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def source_revision():
    """The git commit of a clean tree; with uncommitted changes, the commit
    marked dirty plus a digest of the sources; outside git, the digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
        if head and status == "":
            return "git:" + head
        if head:
            return "git:" + head + "-dirty," + source_digest()
    return source_digest()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args(argv)

    out = build()
    if out is None:
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--size", args.size, "--rev", source_revision()]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(out, f"spans-{args.workload}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
