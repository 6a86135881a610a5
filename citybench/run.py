#!/usr/bin/env python3
"""City-scale serving benchmark for deepst (see README.md in this directory).

Builds the citybench binary from this checkout's sources, prepares the
cached world once, runs one workload and relays its report. The last line
printed is the JSON result.

    python3 citybench/run.py --workload city-h64 --seed 1 --seconds 30 --trace 0
    python3 citybench/run.py --smoke   # every workload briefly, all checks

Build outputs and cached inputs go under $CARGO_TARGET_DIR (default
.bench_build) in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["city-h64", "city-h256", "city-live"]
# A run must finish within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def out_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def call(cmd, timeout=None):
    """Runs a build or prepare step with its output on stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"citybench: {' '.join(map(str, cmd))} failed "
                 f"({proc.returncode})")


def build():
    bdir = out_dir() / "citybench"
    call(["cmake", "-S", str(HERE), "-B", str(bdir),
          "-DCMAKE_BUILD_TYPE=Release"])
    call(["cmake", "--build", str(bdir), "--target", "citybench", "-j",
          str(os.cpu_count() or 2)])
    return bdir / "citybench"


def prepare(exe, data):
    proc = subprocess.run([str(exe), "prepare", "--data", str(data)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("citybench: prepare failed")
    # Reported on its own line; setup_s does not include it.
    print(proc.stdout.strip(), flush=True)


def run_workload(exe, data, workload, seed, seconds, trace):
    cmd = [str(exe), "run", "--data", str(data), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"citybench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def smoke(exe, data):
    """Runs every workload briefly, traced and untraced; checks only."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            code, out = run_workload(exe, data, workload, 1, 3, trace)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = code == 0 and result.get("correct") is True
            ok = ok and good
            for line in lines:
                if line.startswith("check failed"):
                    print(f"  {line}")
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({result.get('attempted', 0)} requests, "
                  f"{result.get('failed', 0)} failed, "
                  f"{time.monotonic() - start:.1f} s)", flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly with all checks")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    exe = build()
    data = out_dir() / "citybench-data"
    data.mkdir(parents=True, exist_ok=True)
    prepare(exe, data)
    if args.smoke:
        sys.exit(0 if smoke(exe, data) else 1)
    code, out = run_workload(exe, data, args.workload, args.seed,
                             args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
