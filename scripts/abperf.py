#!/usr/bin/env python3
"""A/B host-time comparison of two perf_main builds.

    python3 scripts/abperf.py BASE_PERF_MAIN NEW_PERF_MAIN \\
        --workload p4x16_oltp --seed 1 --rounds 10

Runs the two binaries ROUNDS times each as interleaved pairs,
alternating which side runs first, every job a fresh process. For
each end-to-end metric of BENCHMARK.json (host ms per work unit, as
perfbench/run.py computes it from run_s and work_done, then job_s,
setup_s and peak_rss_mb, read from each perf_main record) it prints
each side's median and quartiles, the pairs the new binary won (ties
count for neither) and whether a gain is claimable: won at least 9 in
10 pairs and medians apart by more than the base's interquartile
range. A metric whose new median is worse than the base's by more
than its BENCHMARK.json bound (a fraction of the base's median) is
flagged.

Exits 1 if any job fails, or if the two sides ever disagree on the
stat-tree digest or counts.events: an A/B of two programs that do not
simulate the same thing measures nothing. Exits 2 if a metric is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def end_to_end_metrics():
    """(name, bound, sign) of each BENCHMARK.json end-to-end metric;
    sign is +1 when lower is better, so sign * (new - base) > 0 is a
    loss."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["bound"], 1 if m["better"] == "lower" else -1)
            for m in spec["end_to_end"]]


def metric(rec, name):
    if name == "host_ms_per_work":
        return rec["run_s"] * 1e3 / rec["work_done"]
    return rec[name]


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

    metrics = end_to_end_metrics()
    vals = {side: {name: [] for name, _, _ in metrics}
            for side in ("base", "new")}
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
            for name, _, _ in metrics:
                vals[side][name].append(metric(rec, name))
        print(f"round {r + 1}: base "
              f"{vals['base']['host_ms_per_work'][-1]:.4f}  new "
              f"{vals['new']['host_ms_per_work'][-1]:.4f} ms/work",
              flush=True)

    digest, events = ident["base"]
    print(f"workload {args.workload} seed {args.seed}: digest {digest}, "
          f"events {events} (identical on both sides)")
    flagged = []
    for name, bound, sign in metrics:
        base, new = vals["base"][name], vals["new"][name]
        won = sum(sign * (n - b) < 0 for b, n in zip(base, new))
        lost = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        bq = quartiles(base)
        nq = quartiles(new)
        print(f"{name}:")
        for side, q in (("base", bq), ("new", nq)):
            print(f"  {side:4} median {q[1]:.4f}  "
                  f"quartiles {q[0]:.4f} .. {q[2]:.4f}")
        change = (nq[1] - bq[1]) / bq[1]
        claim = (won * 10 >= 9 * args.rounds and
                 sign * (bq[1] - nq[1]) > bq[2] - bq[0])
        worse = sign * change > bound
        if worse:
            flagged.append(name)
        print(f"  change {change:+.1%}; new won {won} of {args.rounds} "
              f"pairs (lost {lost}); gain claimable: "
              f"{'yes' if claim else 'no'}"
              f"{f'; WORSE THAN BOUND {bound:.0%}' if worse else ''}")
    if flagged:
        print(f"abperf: worse than the BENCHMARK.json bound: "
              f"{', '.join(flagged)}")
        sys.exit(2)

if __name__ == "__main__":
    main()
