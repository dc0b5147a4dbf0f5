#!/usr/bin/env python3
"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and checks
that each run is correct and prints exactly the metrics BENCHMARK.json
names, with their units. The protocol-engine and network metrics must
be exactly zero on the single-chip workloads and nonzero on the
16-chip one. Takes a few seconds once perf_main is built.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Tiny sizes: one work unit per CPU.
TINY_WORK = {"p8_oltp": 8, "p8_dss": 8, "p4x16_oltp": 64}
MULTICHIP_ONLY = ("proto.uinstr_per_work", "proto.threads_per_work",
                  "proto.occupancy_ns", "noc.packets_per_work",
                  "noc.hops_per_packet", "noc.latency_ns")
ALWAYS_ZERO_ON_ONE_CHIP = MULTICHIP_ONLY + (
    "proto.tsrf_full", "proto.host_frac", "noc.misroute_frac")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--work", str(TINY_WORK[workload])]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} trace={trace}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, trace)
            where = f"{w} trace={trace}"
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: not correct: {res}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metric names differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m["unit"] != unit:
                    problems.append(f"{where}: {name} unit {m['unit']} != {unit}")
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            if trace == 0:
                zero = [n for n, m in got.items() if m["value"] <= 0]
                if zero:
                    problems.append(f"{where}: end-to-end metrics not > 0: {zero}")
            elif w.startswith("p8_"):
                nonzero = [n for n in ALWAYS_ZERO_ON_ONE_CHIP
                           if got.get(n, {}).get("value") != 0]
                if nonzero:
                    problems.append(f"{where}: should be exactly 0 on one chip: {nonzero}")
            else:
                zero = [n for n in MULTICHIP_ONLY
                        if not got.get(n, {}).get("value")]
                if zero:
                    problems.append(f"{where}: should be nonzero on 16 chips: {zero}")
            print(f"{where}: {len(got)} metrics, attempted {res['attempted']}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
