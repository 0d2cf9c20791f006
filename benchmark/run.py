#!/usr/bin/env python3
"""Build rtp_bench from source and run one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved against the repository root (the
parent of this directory). The first call configures and builds
benchmark/CMakeLists.txt, which compiles ../src, into benchmark/build/
(ignored by the repository's build/ pattern); later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout
is the JSON result, holding the end-to-end metrics BENCHMARK.json
declares. With --trace 1 it holds the per-layer metrics instead, and
the spans are written to benchmark/build/trace-<workload>-seed<N>.json.

Exits with rtp_bench's status: 0 when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "benchmark" / "build"
WORKLOADS = ("ao_fig12", "ao_paperscale", "photon", "pathtrace")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "rtp_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [str(BUILD / "rtp_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: rtp_bench exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.exit(f"run.py: rtp_bench printed no result "
                 f"(exit status {proc.returncode})")

    # The result carries the metrics BENCHMARK.json declares for the
    # mode: end-to-end untraced, per-layer traced.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    print("\n".join(lines[:-1]))
    if missing:
        sys.exit(f"run.py: rtp_bench did not report {missing}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
