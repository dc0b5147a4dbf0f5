#!/usr/bin/env python3
"""A/B host-time comparison of two perf_main builds.

    python3 scripts/abperf.py BASE_PERF_MAIN NEW_PERF_MAIN \\
        --workload p4x16_oltp --seed 1 --rounds 10

Runs the two binaries ROUNDS times each as interleaved pairs,
alternating which side runs first, every job a fresh process. Prints
each side's median and quartiles of host ms per work unit (run_s * 1e3
/ work_done, as perfbench/run.py computes it), the pairs the new
binary won (ties count for neither) and whether the gain is claimable:
won at least 9 in 10 pairs and medians apart by more than the base's
interquartile range.

Exits 1 if any job fails, or if the two sides ever disagree on the
stat-tree digest or counts.events: an A/B of two programs that do not
simulate the same thing measures nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_job(binary, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"abperf: {' '.join(cmd)} exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    if rec["aborted"] or rec["work_done"] < rec["work_requested"]:
        sys.exit(f"abperf: {binary} did not finish its work")
    return rec


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="perf_main of the parent commit")
    ap.add_argument("new", help="perf_main of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")

    ms = {"base": [], "new": []}
    ident = {}
    for r in range(args.rounds):
        order = ("base", "new") if r % 2 == 0 else ("new", "base")
        for side in order:
            rec = run_job(getattr(args, side), args.workload, args.seed)
            key = (rec["digest"], rec["counts"]["events"])
            ident.setdefault(side, key)
            if ident[side] != key or ident.get("base", key) != key:
                sys.exit(f"abperf: digest/events differ: base "
                         f"{ident.get('base')} vs {side} {key}")
            ms[side].append(rec["run_s"] * 1e3 / rec["work_done"])
        print(f"round {r + 1}: base {ms['base'][-1]:.4f}  "
              f"new {ms['new'][-1]:.4f} ms/work", flush=True)

    won = sum(n < b for b, n in zip(ms["base"], ms["new"]))
    lost = sum(n > b for b, n in zip(ms["base"], ms["new"]))
    bq = quartiles(ms["base"])
    nq = quartiles(ms["new"])
    digest, events = ident["base"]
    print(f"workload {args.workload} seed {args.seed}: digest {digest}, "
          f"events {events} (identical on both sides)")
    for side, q in (("base", bq), ("new", nq)):
        print(f"{side:4} host ms/work: median {q[1]:.4f}  "
              f"quartiles {q[0]:.4f} .. {q[2]:.4f}")
    change = (nq[1] - bq[1]) / bq[1]
    claim = (won * 10 >= 9 * args.rounds and
             bq[1] - nq[1] > bq[2] - bq[0])
    print(f"change {change:+.1%}; new won {won} of {args.rounds} pairs "
          f"(lost {lost}); gain claimable: {'yes' if claim else 'no'}")


if __name__ == "__main__":
    main()
