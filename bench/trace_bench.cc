/**
 * @file
 * Trace-replay throughput benchmark: what does replaying a recorded
 * run cost (or save) versus generating the workload live, and what
 * does recording add on top of a live run? Written to BENCH_trace.json
 * (and printed):
 *
 *  1. For P8/OLTP and P8/DSS at the standard bench work sizes: a live
 *     run, the same run recorded (--record overhead), and the trace
 *     replayed (TraceWorkload). Host times are the minimum over N
 *     repeats; every repeat and every mode must produce bit-identical
 *     simulation stats (full flattenRunResult plus the stat tree) or
 *     the bench fails — replay speed is meaningless if it is not the
 *     same simulation.
 *
 *  2. Trace-file metrics: size, record count, records per simulated
 *     CPU, and replay pull rate (records consumed per host second).
 *
 * Usage: trace_bench [--json FILE] [--repeat N]
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "host_timer.h"
#include "stats/json_writer.h"
#include "sweeps.h"

namespace piranha {
namespace {

using bench::HostClock;

struct E2eResult
{
    RunResult run;
    double seconds = 0;
    std::string statDump;
};

/** Min-of-N measured runs of @p make_wl; repeats must be
 *  bit-identical (the simulation is deterministic). */
template <typename MakeWl>
E2eResult
runE2e(MakeWl make_wl, std::uint64_t per_cpu, int repeats,
       const char *what)
{
    E2eResult r;
    for (int i = 0; i < repeats; ++i) {
        auto wl = make_wl();
        PiranhaSystem sys(configPn(8));
        HostClock::time_point t0 = HostClock::now();
        RunResult run = sys.run(*wl, per_cpu);
        double seconds = bench::secondsSince(t0);
        std::string dump = statGroupToJson(sys.stats()).dump(0);
        if (i == 0) {
            r.run = run;
            r.seconds = seconds;
            r.statDump = std::move(dump);
        } else {
            if (dump != r.statDump) {
                std::fprintf(stderr,
                             "nondeterministic repeat in %s\n", what);
                std::exit(1);
            }
            if (seconds < r.seconds) {
                r.seconds = seconds;
                r.run = run;
            }
        }
    }
    return r;
}

JsonValue
e2eJson(const E2eResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("host_seconds", r.seconds);
    o.set("events", r.run.eventsExecuted);
    o.set("events_per_sec",
          r.seconds > 0
              ? static_cast<double>(r.run.eventsExecuted) / r.seconds
              : 0);
    o.set("exec_time_ps", static_cast<std::uint64_t>(r.run.execTime));
    o.set("work", r.run.work);
    return o;
}

/** Live vs recorded vs replayed for one workload. */
template <typename MakeWl>
JsonValue
benchWorkload(const char *label, MakeWl make_wl,
              std::uint64_t total_work, int repeats,
              bool &all_identical)
{
    SystemConfig cfg = configPn(8);
    std::uint64_t per_cpu = std::max<std::uint64_t>(
        1, total_work / (cfg.nodes * cfg.cpusPerChip));
    std::filesystem::path trace_path =
        std::filesystem::temp_directory_path() /
        (std::string("trace_bench_") + label + ".ptrace");

    E2eResult live = runE2e(make_wl, per_cpu, repeats, label);

    // Recorded runs re-record each repeat (a trace file is only valid
    // once finalized, and the min-of-N should include the full
    // recording cost, not a warm no-op).
    auto make_rec = [&] {
        return std::make_unique<RecordingWorkload>(
            make_wl(), trace_path.string(), cfg.name, label,
            cfg.nodes, cfg.cpusPerChip);
    };
    E2eResult recorded = runE2e(make_rec, per_cpu, repeats, label);

    TraceReader::ValidateReport rep =
        TraceReader::validateFile(trace_path.string());
    if (!rep.ok()) {
        std::fprintf(stderr, "%s: recorded trace invalid: %s\n",
                     label,
                     rep.problems.empty()
                         ? "?"
                         : rep.problems.front().c_str());
        std::exit(1);
    }

    auto make_replay = [&] {
        return std::make_unique<TraceWorkload>(trace_path.string());
    };
    E2eResult replayed = runE2e(make_replay, per_cpu, repeats, label);

    // Gate: all three modes are the same simulation, bit for bit.
    bool identical =
        flattenRunResult(live.run) == flattenRunResult(recorded.run) &&
        flattenRunResult(live.run) == flattenRunResult(replayed.run) &&
        live.statDump == recorded.statDump &&
        live.statDump == replayed.statDump &&
        live.run.eventsExecuted == replayed.run.eventsExecuted;
    all_identical = all_identical && identical;

    std::uintmax_t bytes = std::filesystem::file_size(trace_path);
    double replay_speedup =
        replayed.seconds > 0 ? live.seconds / replayed.seconds : 0;
    double record_overhead =
        live.seconds > 0 ? recorded.seconds / live.seconds - 1.0 : 0;

    std::printf("  %s live: %.3fs   recorded: %.3fs (+%.1f%%)   "
                "replay: %.3fs (%.2fx vs live)\n",
                label, live.seconds, recorded.seconds,
                100.0 * record_overhead, replayed.seconds,
                replay_speedup);
    std::printf("    trace: %llu records, %.1f MB, %.1fM records/s "
                "replay pull; stats identical: %s\n",
                static_cast<unsigned long long>(rep.totalRecords),
                static_cast<double>(bytes) / 1e6,
                replayed.seconds > 0
                    ? static_cast<double>(rep.totalRecords) /
                          replayed.seconds / 1e6
                    : 0,
                identical ? "yes" : "NO");

    JsonValue o = JsonValue::object();
    o.set("live", e2eJson(live));
    o.set("recorded", e2eJson(recorded));
    o.set("replay", e2eJson(replayed));
    o.set("replay_speedup_vs_live", replay_speedup);
    o.set("record_overhead_frac", record_overhead);
    o.set("trace_records", rep.totalRecords);
    o.set("trace_bytes", static_cast<std::uint64_t>(bytes));
    o.set("stats_identical", identical);

    std::error_code ec;
    std::filesystem::remove(trace_path, ec);
    return o;
}

} // namespace
} // namespace piranha

int
main(int argc, char **argv)
{
    using namespace piranha;

    std::string json_path = "BENCH_trace.json";
    int repeats = 3;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--repeat" && i + 1 < argc)
            repeats = std::max(1, std::atoi(argv[++i]));
    }

    std::cout << "=== Trace record/replay throughput ===\n\n";
    std::printf("P8, %llu OLTP txns / %llu DSS chunks, min of %d:\n",
                static_cast<unsigned long long>(kOltpTotalTxns),
                static_cast<unsigned long long>(kDssTotalChunks),
                repeats);

    bool all_identical = true;
    JsonValue oltp = benchWorkload(
        "P8_OLTP", [] { return std::make_unique<OltpWorkload>(); },
        kOltpTotalTxns, repeats, all_identical);
    JsonValue dss = benchWorkload(
        "P8_DSS", [] { return std::make_unique<DssWorkload>(); },
        kDssTotalChunks, repeats, all_identical);

    JsonValue root = JsonValue::object();
    root.set("bench", "trace");
    root.set("repeats", repeats);
    root.set("e2e_p8_oltp", std::move(oltp));
    root.set("e2e_p8_dss", std::move(dss));
    root.set("stats_identical", all_identical);

    if (!all_identical) {
        std::cerr << "\nlive / recorded / replayed runs diverged\n";
        return 1;
    }

    std::ofstream os(json_path);
    root.write(os, 2);
    os << "\n";
    std::cout << "\nreport written to " << json_path << "\n";
    return 0;
}
