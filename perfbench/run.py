#!/usr/bin/env python3
"""Simulator benchmark: host time per simulated work unit, by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds two copies of
perf_main from source (plain, and with PIRANHA_PROFILE=ON for the
traced run) under $CARGO_TARGET_DIR (default .bench_build).

--trace 0 runs untraced jobs back to back for --seconds and reports the
end-to-end metrics as medians over jobs. --trace 1 alternates an
untraced job with a traced one and reports the per-layer metrics.
Every job is a fresh process (cold caches, its own peak RSS). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
README.md in this directory explains the workloads and metrics.
"""

import argparse
import collections
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

WORKLOADS = ("p8_oltp", "p8_dss", "p4x16_oltp")

END_TO_END = {
    "host_ms_per_work": "ms",
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events_per_work": "count",
    "sim.ns_per_event": "ns",
    "sim.allocs_per_kevent": "count",
    "sim.host_frac": "frac",
    "sim.slice_ms_p50": "ms",
    "sim.slice_ms_p99": "ms",
    "cpu.ops_per_work": "count",
    "cpu.host_frac": "frac",
    "workload.next_ns": "ns",
    "workload.host_frac": "frac",
    "cache.l1_accesses_per_work": "count",
    "cache.l1_hit_frac": "frac",
    "cache.l1_fast_hit_frac": "frac",
    "cache.l1_inline_frac": "frac",
    "cache.l1_host_frac": "frac",
    "ics.transfers_per_work": "count",
    "ics.queue_delay_ns": "ns",
    "ics.host_frac": "frac",
    "cache.l2_requests_per_work": "count",
    "cache.l2_onchip_frac": "frac",
    "cache.l2_blocked_per_kreq": "count",
    "cache.l2_host_frac": "frac",
    "proto.uinstr_per_work": "count",
    "proto.threads_per_work": "count",
    "proto.occupancy_ns": "ns",
    "proto.tsrf_full": "count",
    "proto.host_frac": "frac",
    "noc.packets_per_work": "count",
    "noc.hops_per_packet": "count",
    "noc.misroute_frac": "frac",
    "noc.latency_ns": "ns",
    "mem.accesses_per_work": "count",
    "mem.page_hit_frac": "frac",
    "mem.host_frac": "frac",
    "mem.rss_mb_per_chip": "MB",
    "system.setup_allocs": "count",
    "system.teardown_s": "s",
    "stats.export_ms": "ms",
    "check.violations": "count",
    "check.truncated": "count",
    "check.s": "s",
    "trace.host_ms_per_work": "ms",
    "trace.overhead_frac": "frac",
}

# A job that has not finished by then is killed and counted as failed.
JOB_TIMEOUT_S = 150
# Fewest untraced jobs per run, so every median has company.
MIN_JOBS = 3
# Set-up-only processes after each untraced job: set-up takes
# milliseconds and swings with the host's page-fault cost, so setup_s
# is the median over these and the jobs' own set-ups.
SETUP_PROBES = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(root):
    """Configure and build perf_main twice; return both binaries."""
    os.makedirs(root, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    trees = {"plain": [], "profile": ["-DPIRANHA_PROFILE=ON"]}
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    bins = {}
    with open(os.path.join(root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for tree, opts in trees.items():
            bdir = os.path.join(root, tree)
            log_path = os.path.join(root, tree + ".log")
            steps = []
            if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *opts])
            steps.append(["cmake", "--build", bdir, "--target",
                          "perf_main", "-j", jobs])
            with open(log_path, "a") as log:
                for cmd in steps:
                    if subprocess.run(cmd, stdout=log, stderr=log,
                                      env=env).returncode:
                        with open(log_path) as f:
                            sys.stderr.write(f.read()[-4000:])
                        fail(f"build of the {tree} tree failed")
            bins[tree] = os.path.join(bdir, "perf_main")
    return bins


def run_job(binary, args, workload, seed, *flags):
    """One job in a fresh process; its JSON record, or None if it died."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *flags]
    if args.work:
        cmd += ["--work", str(args.work)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"job timed out after {JOB_TIMEOUT_S} s", file=sys.stderr)
        return None
    try:
        if p.returncode == 0:
            return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        pass
    sys.stderr.write(p.stderr[-2000:])
    return None


def gate(records):
    """Correctness gate: (failed count, reasons). A job fails if it died,
    completed less work than requested, aborted, tripped the watchdog,
    raised a machine check, or its stat-tree digest differs from the
    other repeats of the same workload and seed."""
    digests = collections.Counter(r["digest"] for r in records if r)
    ref = digests.most_common(1)[0][0] if digests else None
    failed, reasons = 0, []
    for i, r in enumerate(records):
        why = []
        if r is None:
            why.append("process failed")
        else:
            if r["work_done"] < r["work_requested"]:
                why.append(f"work {r['work_done']} < {r['work_requested']}")
            for flag in ("aborted", "watchdog", "machine_check"):
                if r[flag]:
                    why.append(flag)
            if r["digest"] != ref:
                why.append(f"digest {r['digest']} != {ref}")
        if why:
            failed += 1
            reasons.append(f"job {i}: " + ", ".join(why))
    return failed, reasons


def run_for(seconds, one_job, min_calls):
    """Call one_job() until another would overrun `seconds` (at least
    min_calls times); return what it returned, in order."""
    t0 = time.monotonic()
    out = []
    while True:
        out.append(one_job())
        elapsed = time.monotonic() - t0
        if len(out) >= min_calls and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def print_model(rec):
    m = rec["model"]
    mix = " ".join(f"{k}={v:.4f}" for k, v in m["miss_mix"].items())
    print(f"model  digest={rec['digest']} work={rec['work_done']} "
          f"sim_ns_per_work={m['sim_ns_per_work']:.3f} ipc={m['ipc']:.4f} "
          f"instructions={m['instructions']:.0f}")
    print(f"model  miss_mix: {mix} rdram_page_hit={m['rdram_page_hit_rate']:.4f}")


def end_to_end(recs, probes):
    ok = [r for r in recs if r]
    per_work = [r["run_s"] * 1e3 / r["work_done"] for r in ok]
    print(f"host_ms_per_work over {len(ok)} jobs: "
          + " ".join(f"{v:.5f}" for v in per_work))
    return {
        "host_ms_per_work": median(per_work),
        "job_s": median([r["job_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in ok + probes]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
    }


def ratio(a, b):
    return a / b if b else 0.0


def percentile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def load_spans(path):
    with open(path) as f:
        return json.load(f)


def span_self_times(spans):
    """Self time per span name: duration minus the time of its children."""
    self_s = collections.defaultdict(float)
    for s in spans:
        self_s[s["name"]] += s["end"] - s["start"]
    for s in spans:
        if s["parent"] >= 0:
            self_s[spans[s["parent"]]["name"]] -= s["end"] - s["start"]
    return dict(self_s)


def per_layer(plain, traced, spans):
    """Per-layer metrics from untraced (plain) and traced job records.
    Counts (which repeat exactly), host fractions and the spans come
    from the last traced job; untraced host times are medians over the
    plain jobs."""
    t = traced[-1]
    c = t["counts"]
    g = lambda k: c.get(k, 0.0)
    work = t["work_done"]
    events = g("events")
    prof = t["profile"]
    total = sum(prof.values())
    zone = lambda z: ratio(prof.get(z, 0.0), total)
    l1_hits = g("dl1.hits") + g("il1.hits")
    l1_acc = l1_hits + g("dl1.misses") + g("il1.misses")
    l2_req = sum(g("l2b." + k) for k in
                 ("l2_hit", "l2_fwd", "mem_local", "mem_remote", "remote_dirty"))
    pages = g("mc.page_hits") + g("mc.page_misses")
    packets = g("network.packets")
    slices_ms = [(s["end"] - s["start"]) * 1e3 for s in spans
                 if s["name"] == "sim.slice"]
    plain_ms = median([r["run_s"] * 1e3 / r["work_done"] for r in plain])
    traced_ms = median([r["run_s"] * 1e3 / r["work_done"] for r in traced])
    return {
        "sim.events_per_work": ratio(events, work),
        "sim.ns_per_event": median([ratio(r["run_s"] * 1e9,
                                          r["counts"]["events"])
                                    for r in plain]),
        "sim.allocs_per_kevent": ratio(plain[-1]["run_allocs"] * 1e3, events),
        "sim.host_frac": zone("kernel"),
        "sim.slice_ms_p50": percentile(slices_ms, 0.50),
        "sim.slice_ms_p99": percentile(slices_ms, 0.99),
        "cpu.ops_per_work": ratio(t["next_calls"], work),
        "cpu.host_frac": max(0.0, ratio(prof.get("core", 0.0) - t["next_s"], total)),
        "workload.next_ns": ratio(t["next_s"] * 1e9, t["next_calls"]),
        "workload.host_frac": ratio(t["next_s"], total),
        "cache.l1_accesses_per_work": ratio(l1_acc, work),
        "cache.l1_hit_frac": ratio(l1_hits, l1_acc),
        "cache.l1_fast_hit_frac": ratio(g("l1_fast_hits"), l1_hits),
        "cache.l1_inline_frac": ratio(g("fast_inline_hits"), l1_hits),
        "cache.l1_host_frac": zone("l1"),
        "ics.transfers_per_work": ratio(g("ics.transfers"), work),
        "ics.queue_delay_ns": ratio(g("ics.queue_delay_ns.sum"),
                                    g("ics.queue_delay_ns.samples")),
        "ics.host_frac": zone("ics"),
        "cache.l2_requests_per_work": ratio(l2_req, work),
        "cache.l2_onchip_frac": ratio(g("l2b.l2_hit") + g("l2b.l2_fwd"), l2_req),
        "cache.l2_blocked_per_kreq": ratio(g("l2b.blocked") * 1e3, l2_req),
        "cache.l2_host_frac": zone("l2"),
        "proto.uinstr_per_work": ratio(g("he.instructions") + g("re.instructions"), work),
        "proto.threads_per_work": ratio(g("he.threads") + g("re.threads"), work),
        "proto.occupancy_ns": ratio(g("he.occupancy_ns.sum") + g("re.occupancy_ns.sum"),
                                    g("he.occupancy_ns.samples")
                                    + g("re.occupancy_ns.samples")),
        "proto.tsrf_full": g("he.tsrf_full") + g("re.tsrf_full"),
        "proto.host_frac": zone("engine"),
        "noc.packets_per_work": ratio(packets, work),
        "noc.hops_per_packet": ratio(g("network.hops"), packets),
        "noc.misroute_frac": ratio(g("network.misroutes"), packets),
        "noc.latency_ns": ratio(g("network.latency_ns.sum"),
                                g("network.latency_ns.samples")),
        "mem.accesses_per_work": ratio(g("mc.reads") + g("mc.writes"), work),
        "mem.page_hit_frac": ratio(g("mc.page_hits"), pages),
        "mem.host_frac": zone("mem"),
        "mem.rss_mb_per_chip": median([r["peak_rss_mb"] for r in plain]) / t["chips"],
        "system.setup_allocs": plain[-1]["setup_allocs"],
        "system.teardown_s": median([r["teardown_s"] for r in plain]),
        "stats.export_ms": median([r["export_s"] * 1e3 for r in plain]),
        "check.violations": t["check"]["violations"],
        "check.truncated": int(t["check"]["truncated"]),
        "check.s": t["check"]["seconds"],
        "trace.host_ms_per_work": traced_ms,
        "trace.overhead_frac": ratio(traced_ms, plain_ms) - 1.0,
    }


def print_layers(t, spans):
    """Per-layer host self time of the last traced job."""
    prof = dict(t["profile"])
    core = prof.pop("core", 0.0)
    rows = {f"run:{z}": s for z, s in prof.items()}
    rows["run:core (minus workload)"] = max(0.0, core - t["next_s"])
    rows["run:workload.next"] = t["next_s"]
    for name, s in span_self_times(spans).items():
        if name not in ("sim.run", "sim.slice"):
            rows[name] = s
    total = sum(rows.values())
    print(f"layer self time (traced job, {total:.3f} s; no noc zone, network "
          f"time is inside run:kernel):")
    for name, s in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {s:9.4f} s {100 * ratio(s, total):5.1f}%")
    chk = t["check"]
    print(f"check: recorded={chk['recorded']} dropped={chk['dropped']} "
          f"violations={chk['violations']} axioms={sorted(set(chk['axioms']))}")
    if chk.get("first_window"):
        print("check: first violation window:")
        print("\n".join("  " + line for line in
                        chk["first_window"].splitlines()[:24]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=int, default=0,
                    help="override the workload's work units (self-check only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.work < 0:
        fail("--seed and --work must be >= 0 and --seconds > 0")

    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found at {ROOT}; run from a full checkout")

    root = build_root()
    bins = build(root)
    seed, wl = args.seed, args.workload

    if args.trace == 0:
        def job():
            return (run_job(bins["plain"], args, wl, seed),
                    [run_job(bins["plain"], args, wl, seed, "--setup-only")
                     for _ in range(SETUP_PROBES)])

        runs = run_for(args.seconds, job, MIN_JOBS)
        recs = [r for r, _ in runs]
        probes = [p for _, ps in runs for p in ps]
        failed, reasons = gate(recs)
        if None in probes:
            failed += probes.count(None)
            reasons.append(f"{probes.count(None)} set-up probes failed")
        attempted = len(recs) + len(probes)
        if any(recs):
            print_model(next(r for r in recs if r))
            metrics = end_to_end(recs, [p for p in probes if p])
        else:
            metrics = {}
        units = END_TO_END
    else:
        spans_dir = os.path.join(root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{wl}-seed{seed}.json")

        def pair():
            return (run_job(bins["plain"], args, wl, seed),
                    run_job(bins["profile"], args, wl, seed,
                            "--traced", "--spans", spans))

        pairs = run_for(args.seconds, pair, 1)
        recs = [r for p in pairs for r in p]
        failed, reasons = gate(recs)
        attempted = len(recs)
        plain = [p[0] for p in pairs if p[0]]
        traced = [p[1] for p in pairs if p[1]]
        if plain and traced:
            last_spans = load_spans(spans)
            print_model(traced[-1])
            print_layers(traced[-1], last_spans)
            print(f"spans: {os.path.relpath(spans, ROOT)}")
            metrics = per_layer(plain, traced, last_spans)
        else:
            metrics = {}
        units = PER_LAYER

    for r in reasons:
        print(f"FAILED {r}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
