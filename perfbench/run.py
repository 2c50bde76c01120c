#!/usr/bin/env python3
"""Builds and runs the AuditDB repository benchmark.

    python3 perfbench/run.py --workload single_state --seed 42 \
        --seconds 40 --trace 0

Run from the repository root. The first call configures and builds the
library and the driver (Release) under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. The driver's human
readable table goes to stdout, and its last stdout line is the JSON
result. Any extra flags (e.g. --corrupt-reference) are passed to the
driver. Exit status is the driver's: 0 only when every correctness
check passed. A failed build exits 2 without printing a result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = build_dir / "CMakeCache.txt"
        if not cache.exists():
            configured = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configured.returncode != 0:
                cache.unlink(missing_ok=True)  # configure again next time
                configured.check_returncode()
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "perfbench",
             "-j4"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = target.resolve() / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    scratch = build_dir / f"scratch-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch)]
    if args.trace == 1:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}.jsonl")]
    command += extra
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
