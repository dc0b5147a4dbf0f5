/**
 * @file
 * The experiment driver: runs a named sweep from the registry in
 * sweeps.h on a host-thread pool, prints each job's status and the
 * sweep's paper-comparison table, and writes a machine-readable JSON
 * report next to the live progress lines. Every paper figure and
 * claim is one named sweep (`sweep_main --list`).
 *
 * Usage:
 *   sweep_main --list
 *   sweep_main <sweep> [--threads N] [--serial] [--json FILE]
 *              [--timeout SEC] [--no-stat-tree] [--verify]
 *              [--record DIR]
 *   sweep_main --replay DIR|FILE [options]
 *
 * --verify runs the sweep twice — serial, then on the thread pool —
 * and checks that every job's stats (including the full StatGroup
 * snapshot) are bit-identical, printing the parallel speedup. This is
 * the determinism guarantee the harness is built on: each job is its
 * own EventQueue universe, so host-thread scheduling cannot perturb
 * simulated results.
 *
 * --record DIR captures every simulation job's instruction streams to
 * DIR/<label>.ptrace (DESIGN.md §10) without perturbing the run; the
 * SIGINT drain finalizes in-flight recordings so partial sweeps still
 * leave valid trace files. --replay runs trace files as first-class
 * jobs on the recorded topology — the replayed stat trees are
 * bit-identical to the live runs' (tests/trace_test.cc, ci.sh trace).
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "check/litmus.h"
#include "sweeps.h"

using namespace piranha;

namespace {

std::atomic<bool> g_interrupted{false};

void
onSigint(int)
{
    g_interrupted.store(true);
}

/**
 * Every built-in litmus program x seeds 1..n, each as a custom point
 * running the program with the coherence checker attached. A job
 * fails when the run does not complete, hits its forbidden outcome,
 * or the checker reports a violation.
 */
SweepSpec
sweepLitmus(unsigned seeds)
{
    SweepSpec s("litmus");
    for (const LitmusProgram &prog : builtinLitmusPrograms()) {
        for (unsigned seed = 1; seed <= seeds; ++seed) {
            SweepPoint pt;
            pt.label = prog.name + "/s" + std::to_string(seed);
            const LitmusProgram *pp = &prog; // static registry
            pt.custom = [pp, seed]() -> CustomResult {
                LitmusRunOptions opt;
                opt.seed = seed;
                LitmusResult res = runLitmus(*pp, opt);
                CustomResult cr;
                cr.ok = res.ok();
                if (!res.completed)
                    cr.error = "run did not complete";
                else if (res.forbiddenHit)
                    cr.error = "forbidden outcome: " + pp->forbiddenDesc;
                else if (!res.report.ok())
                    cr.error = res.report.violations.empty()
                                   ? "trace truncated"
                                   : res.report.violations.front().axiom +
                                         ": " +
                                         res.report.violations.front()
                                             .detail;
                cr.stats["completed"] = res.completed ? 1 : 0;
                cr.stats["forbidden_hit"] = res.forbiddenHit ? 1 : 0;
                cr.stats["violations"] =
                    static_cast<double>(res.report.violations.size());
                cr.stats["trace_events"] =
                    static_cast<double>(res.trace.size());
                return cr;
            };
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

/** File-name-safe form of a job label ("P4/OLTP" -> "P4_OLTP"). */
std::string
sanitizeLabel(const std::string &label)
{
    std::string s = label;
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '.' && c != '-' && c != '_')
            c = '_';
    return s;
}

/**
 * Rewrite every simulation point's workload factory to wrap the
 * workload in a RecordingWorkload targeting DIR/<label>.ptrace. The
 * shim is transparent (a recorded job's stats are identical to an
 * unrecorded run's); custom points have no instruction streams and
 * are left alone.
 */
std::vector<SweepPoint>
wrapForRecording(std::vector<SweepPoint> pts, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (SweepPoint &pt : pts) {
        if (pt.custom)
            continue;
        std::string file =
            dir + "/" + sanitizeLabel(pt.label) + ".ptrace";
        WorkloadFactory inner = pt.workload.make;
        std::string cfg_name = pt.config.name;
        std::string label = pt.label;
        unsigned nodes = pt.config.nodes;
        unsigned cpc = pt.config.cpusPerChip;
        pt.workload.make = [inner, file, cfg_name, label, nodes,
                            cpc]() -> std::unique_ptr<Workload> {
            return std::make_unique<RecordingWorkload>(
                inner(), file, cfg_name, label, nodes, cpc);
        };
    }
    return pts;
}

/** One replay point per trace file under @p path (or the single
 *  file), on the recorded topology. Throws on invalid traces. */
SweepSpec
replaySpec(const std::string &path)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    if (fs::is_directory(path)) {
        for (const auto &e : fs::directory_iterator(path))
            if (e.path().extension() == ".ptrace")
                files.push_back(e.path().string());
        std::sort(files.begin(), files.end());
    } else {
        files.push_back(path);
    }
    if (files.empty())
        throw std::runtime_error("no .ptrace files under " + path);
    SweepSpec spec("replay");
    for (const std::string &f : files) {
        // Probe once for the header; each job re-maps its own copy.
        TraceWorkload probe(f);
        SweepPoint pt;
        pt.label = probe.reader().label();
        if (pt.label.empty())
            pt.label = fs::path(f).stem().string();
        pt.config = probe.config();
        pt.workload.name = probe.name();
        pt.workload.totalWork =
            probe.workPerCpu() * probe.reader().nCpus();
        pt.workload.make = [f]() -> std::unique_ptr<Workload> {
            return std::make_unique<TraceWorkload>(f);
        };
        spec.addPoint(std::move(pt));
    }
    return spec;
}

int
usage()
{
    std::cerr
        << "usage: sweep_main <sweep> [options]\n"
        << "       sweep_main --litmus [--seeds N] [options]\n"
        << "       sweep_main --list\n\n"
        << "options:\n"
        << "  --threads N     worker threads (default: all cores)\n"
        << "  --serial        same as --threads 1\n"
        << "  --json FILE     write the JSON report to FILE\n"
        << "  --timeout SEC   per-job host wall-clock timeout\n"
        << "  --no-stat-tree  omit full StatGroup snapshots\n"
        << "  --verify        serial vs parallel bit-identity check\n"
        << "  --seeds N       seeds per litmus program (default 8)\n"
        << "  --record DIR    capture each job to DIR/<label>.ptrace\n"
        << "  --replay PATH   run trace file(s) as replay jobs\n"
        << "  --exec TIER     execution tier: thread|process\n"
        << "  --journal DIR   write-ahead job journal for --resume\n"
        << "  --resume        skip journal-completed jobs "
           "(requires --journal)\n"
        << "  --grace SEC     kill/abandon grace past the timeout "
           "(default 1)\n"
        << "  --retries N     max attempts per job (default 1)\n"
        << "  --chaos K@I     inject worker fault K at job index I\n"
        << "                  (K: segv|kill|exit|hang|garbage; "
           "repeatable,\n"
        << "                  comma-separated; process tier only)\n"
        << "  --chaos-all-attempts  chaos fires on retries too\n"
        << "  --chaos-die-after N   supervisor _exit(42)s after its\n"
        << "                  N-th recorded result (resume testing)\n";
    return 2;
}

/** Parse "--chaos kind@index[,kind@index...]" into @p chaos. */
bool
parseChaos(const std::string &arg, ProcessChaos &chaos)
{
    std::size_t pos = 0;
    while (pos < arg.size()) {
        std::size_t comma = arg.find(',', pos);
        std::string item = arg.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        std::size_t at = item.find('@');
        if (at == std::string::npos)
            return false;
        std::string kind = item.substr(0, at);
        WorkerFault f;
        if (kind == "segv")
            f = WorkerFault::Segv;
        else if (kind == "kill")
            f = WorkerFault::Kill;
        else if (kind == "exit")
            f = WorkerFault::ExitNonZero;
        else if (kind == "hang")
            f = WorkerFault::Hang;
        else if (kind == "garbage")
            f = WorkerFault::Garbage;
        else
            return false;
        char *end = nullptr;
        unsigned long idx = std::strtoul(item.c_str() + at + 1, &end, 10);
        if (!end || *end != '\0')
            return false;
        chaos.byIndex[static_cast<std::size_t>(idx)] = f;
        pos = comma == std::string::npos ? arg.size() : comma + 1;
    }
    return !chaos.byIndex.empty();
}

/** Per-job comparison key: flat stats + full stat tree, no timings. */
std::string
comparableKey(const JobResult &j)
{
    std::string key = j.label;
    key += '|';
    key += jobStatusName(j.status);
    for (const auto &[k, v] : j.stats) {
        key += '|';
        key += k;
        key += '=';
        key += JsonValue(v).dump(0);
    }
    key += '|';
    key += j.statTree.dump(0);
    return key;
}

/** The same spec on 1 thread vs N: results must be bit-identical. */
int
runVerify(const SweepSpec &spec, SweepOptions opts)
{
    const bool cross_tier = opts.exec == ExecTier::Process;
    SweepOptions serial = opts;
    serial.threads = 1;
    serial.progress = nullptr;
    // The reference pass always runs in-process on the thread tier;
    // with --exec process the gate therefore proves the forked
    // workers' pipe round trip reproduces in-process results exactly.
    serial.exec = ExecTier::Thread;
    std::cout << "verify: serial pass..." << std::endl;
    SweepReport a = SweepRunner(serial).run(spec);
    std::cout << "verify: parallel pass ("
              << SweepRunner(opts).effectiveThreads(a.jobs.size())
              << " threads" << (cross_tier ? ", process tier" : "")
              << ")..." << std::endl;
    SweepOptions par = opts;
    par.progress = nullptr;
    SweepReport b = SweepRunner(par).run(spec);

    bool identical = a.jobs.size() == b.jobs.size();
    for (size_t i = 0; identical && i < a.jobs.size(); ++i) {
        if (comparableKey(a.jobs[i]) != comparableKey(b.jobs[i])) {
            std::cout << "MISMATCH at job " << a.jobs[i].label << "\n";
            identical = false;
        }
    }
    double speedup =
        b.hostSeconds > 0 ? a.hostSeconds / b.hostSeconds : 0;
    std::printf("verify: %zu jobs, serial %.2fs, parallel %.2fs "
                "(%.2fx), results %s\n",
                a.jobs.size(), a.hostSeconds, b.hostSeconds, speedup,
                identical ? "bit-identical" : "DIFFER");
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep_name, json_path, record_dir, replay_path;
    const SweepEntry *entry = nullptr;
    SweepOptions opts;
    opts.progress = &std::cerr;
    bool verify = false;
    unsigned litmus_seeds = 8;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            for (const SweepEntry &e : kSweeps)
                std::printf("%-8s %s\n", e.name, e.desc);
            std::printf("%-8s %s\n", "litmus",
                        "built-in litmus programs x seeds under the "
                        "coherence checker");
            return 0;
        } else if (arg == "--litmus") {
            sweep_name = "litmus";
        } else if (arg == "--seeds" && i + 1 < argc) {
            litmus_seeds = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--threads" && i + 1 < argc) {
            opts.threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--serial") {
            opts.threads = 1;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--timeout" && i + 1 < argc) {
            opts.jobTimeoutSec = std::atof(argv[++i]);
        } else if (arg == "--no-stat-tree") {
            opts.captureStatTree = false;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--record" && i + 1 < argc) {
            record_dir = argv[++i];
        } else if (arg == "--replay" && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (arg == "--exec" && i + 1 < argc) {
            std::string e = argv[++i];
            if (e == "process")
                opts.exec = ExecTier::Process;
            else if (e == "thread")
                opts.exec = ExecTier::Thread;
            else
                return usage();
        } else if (arg == "--journal" && i + 1 < argc) {
            opts.journalDir = argv[++i];
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--grace" && i + 1 < argc) {
            opts.killGraceSec = std::atof(argv[++i]);
        } else if (arg == "--retries" && i + 1 < argc) {
            opts.maxAttempts =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--chaos" && i + 1 < argc) {
            if (!parseChaos(argv[++i], opts.chaos))
                return usage();
        } else if (arg == "--chaos-all-attempts") {
            opts.chaos.onAttempt = 0;
        } else if (arg == "--chaos-die-after" && i + 1 < argc) {
            opts.chaos.supervisorExitAfter =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (!arg.empty() && arg[0] != '-' && sweep_name.empty()) {
            sweep_name = arg;
        } else {
            return usage();
        }
    }
    if (sweep_name.empty() == replay_path.empty())
        return usage();
    if (!replay_path.empty() && !record_dir.empty())
        return usage();
    if (!record_dir.empty() && verify) {
        // The verify double-run would record each job twice into the
        // same files; the second pass would (correctly) refuse.
        std::cerr << "--record cannot be combined with --verify\n";
        return 2;
    }
    if (opts.resume && opts.journalDir.empty()) {
        std::cerr << "--resume requires --journal DIR\n";
        return 2;
    }
    if (!opts.journalDir.empty() && verify) {
        // The verify double-run would interleave two sweeps' records
        // in one journal, making any later --resume ambiguous.
        std::cerr << "--journal cannot be combined with --verify\n";
        return 2;
    }

    SweepSpec spec;
    if (!replay_path.empty()) {
        try {
            spec = replaySpec(replay_path);
        } catch (const std::exception &e) {
            std::cerr << "replay: " << e.what() << "\n";
            return 2;
        }
    } else if (sweep_name == "litmus") {
        if (litmus_seeds == 0)
            return usage();
        if (!record_dir.empty()) {
            std::cerr << "--record: litmus jobs have no instruction "
                         "streams to record\n";
            return 2;
        }
        spec = sweepLitmus(litmus_seeds);
    } else {
        for (const SweepEntry &e : kSweeps)
            if (sweep_name == e.name)
                entry = &e;
        if (!entry) {
            std::cerr << "unknown sweep \"" << sweep_name
                      << "\" (try --list)\n";
            return 2;
        }
        spec = entry->make();
    }
    if (!record_dir.empty()) {
        SweepSpec recorded(spec.name);
        for (SweepPoint &pt :
             wrapForRecording(spec.expand(), record_dir))
            recorded.addPoint(std::move(pt));
        spec = std::move(recorded);
    }
    if (verify)
        return runVerify(spec, opts);

    // Ctrl-C drains gracefully: in-flight jobs finish, queued ones
    // are marked cancelled, and the partial JSON report still lands.
    std::signal(SIGINT, onSigint);
    opts.cancel = &g_interrupted;

    SweepReport report = SweepRunner(opts).run(spec);

    // Read from the flat stats, which survive the process tier's pipe
    // and the journal; custom jobs have neither stat.
    auto cell = [](const JobResult &j, const char *key, double scale,
                   int prec) {
        auto it = j.stats.find(key);
        return j.status == JobStatus::Ok && it != j.stats.end()
                   ? TextTable::fmt(scale * it->second, prec)
                   : std::string("-");
    };
    TextTable t({"Job", "Status", "ExecTime(ms)", "Busy%", "Host(s)"});
    for (const JobResult &j : report.jobs)
        t.addRow({j.label, jobStatusName(j.status),
                  cell(j, "exec_time_ps", ms(1), 3),
                  cell(j, "busy_frac", 100, 1),
                  TextTable::fmt(j.hostSeconds, 2)});
    t.print(std::cout);
    std::printf("\n%zu jobs on %u threads in %.2fs host time%s\n",
                report.jobs.size(), report.threads, report.hostSeconds,
                report.interrupted ? " (interrupted)" : "");
    if (entry && entry->render) {
        std::cout << "\n=== " << entry->desc << " ===\n\n";
        if (report.count(JobStatus::Ok) == report.jobs.size())
            entry->render(report, std::cout);
        else
            std::cout << "no table: not every job completed\n";
    }

    if (!json_path.empty()) {
        if (!report.writeJsonFile(json_path))
            return 1;
        std::cout << "report written to " << json_path << "\n";
    }
    if (report.interrupted)
        return 130;
    unsigned bad = report.count(JobStatus::Failed) +
                   report.count(JobStatus::TimedOut);
    return bad ? 1 : 0;
}
