#!/usr/bin/env python3
"""Smoke test of one benchmark workload (registered with ctest).

    python3 smoke.py RTP_BENCH WORKLOAD BENCHMARK_JSON TRACE_FILE

Runs one traced measured pass at seed 7 and asserts that it exits 0,
reports every metric BENCHMARK.json names with its unit, fails no ray
(failed_ray_frac == 0), and writes a trace whose per-pass layer self
times sum to no more than the pass's wall time.
"""

import json
import subprocess
import sys


def fail(msg):
    sys.exit(f"smoke: {msg}")


def check_trace(path):
    spans = json.load(open(path))["spans"]
    by_id = {s["id"]: s for s in spans}
    child_ns = {}
    for s in spans:
        parent = s["parent"]
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            fail(f"span {s['id']} has unknown parent {parent}")
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            fail(f"span {s['id']} lies outside its parent {parent}")
        child_ns[parent] = child_ns.get(parent, 0) + s["end_ns"] - s["start_ns"]

    def root_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    self_ns = {}
    for s in spans:
        root = root_of(s)
        if root["name"] != "bench.pass":
            continue
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        if own < 0:
            fail(f"span {s['id']} has negative self time")
        self_ns[root["id"]] = self_ns.get(root["id"], 0) + own
    if not self_ns:
        fail("trace holds no pass")
    for root_id, total in self_ns.items():
        wall = by_id[root_id]["end_ns"] - by_id[root_id]["start_ns"]
        if total > wall:
            fail(f"{root_id}: self times {total} ns exceed wall {wall} ns")


def main():
    bench, workload, spec_path, trace = sys.argv[1:5]
    spec = json.load(open(spec_path))
    proc = subprocess.run(
        [bench, "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", trace],
        stdout=subprocess.PIPE, text=True, timeout=600)
    print(proc.stdout)
    if proc.returncode != 0:
        fail(f"exit status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"metric {metric['name']} not reported")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']}: unit {got['unit']}, "
                 f"want {metric['unit']}")
    if not result["correct"] or result["failed"] != 0 \
            or result["attempted"] < 1:
        fail(f"failed {result['failed']} of {result['attempted']} rays")
    check_trace(trace)
    print(f"smoke: {workload} ok")


if __name__ == "__main__":
    main()
