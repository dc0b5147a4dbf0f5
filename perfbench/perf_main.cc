/**
 * @file
 * One job of the simulator benchmark (see README.md in this
 * directory): build a workload and a system through the public API,
 * run it, export the stat tree, tear it down, and print one JSON
 * object describing what happened.
 *
 * Usage:
 *   perf_main --workload NAME --seed N [--work N] [--traced]
 *             [--spans FILE] [--setup-only]
 *
 * Untraced jobs only time the calls they make into the library.
 * --traced additionally wraps the workload to time every
 * InstrStream::next, records a span for every should_abort poll,
 * attaches a CoherenceTracer that drops nothing and runs the
 * axiomatic checker on its trace. --spans writes the recorded spans
 * (name, start, end, parent, run id) when the job ends.
 *
 * --setup-only builds the workload and the system, tears them down and
 * reports only the set-up time: a cheap extra sample of cold set-up.
 *
 * The process runs exactly one job, so its peak RSS is that job's.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/trace.h"
#include "core/piranha.h"

namespace {

/** Heap allocations made by this process (operator new below). */
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace piranha {
namespace {

using HostClock = std::chrono::steady_clock;

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/**
 * The benchmark's workloads. Each uses the default SystemConfig of
 * its topology and the default workload parameters; only the seed
 * and the amount of work come from the command line. Why each one is
 * here is recorded in README.md.
 */
struct WorkloadSpec
{
    const char *name;
    unsigned cpusPerChip;
    unsigned chips;
    bool dss;
    std::uint64_t work; //!< work units for the whole system
};

constexpr WorkloadSpec kWorkloads[] = {
    {"p8_oltp", 8, 1, false, 6400},
    {"p8_dss", 8, 1, true, 512},
    {"p4x16_oltp", 4, 16, false, 2048},
};

/** In-memory span log; spans nest through their parent index. */
class SpanLog
{
  public:
    int
    open(const char *name, int parent)
    {
        double now = since0();
        _spans.push_back({name, now, now, parent});
        return static_cast<int>(_spans.size()) - 1;
    }

    double
    close(int idx)
    {
        Span &s = _spans[static_cast<std::size_t>(idx)];
        s.end = since0();
        return s.end - s.start;
    }

    /** Add an already-finished span (times relative to the origin). */
    void
    add(const char *name, double start, double end, int parent)
    {
        _spans.push_back({name, start, end, parent});
    }

    double
    offset(HostClock::time_point t) const
    {
        return std::chrono::duration<double>(t - _t0).count();
    }

    JsonValue
    toJson(const std::string &run_id) const
    {
        JsonValue arr = JsonValue::array();
        for (const Span &s : _spans) {
            JsonValue o = JsonValue::object();
            o.set("name", s.name);
            o.set("start", s.start);
            o.set("end", s.end);
            o.set("parent", s.parent);
            o.set("run", run_id);
            arr.append(std::move(o));
        }
        return arr;
    }

  private:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
    };

    double since0() const { return offset(HostClock::now()); }

    HostClock::time_point _t0 = HostClock::now();
    std::vector<Span> _spans;
};

/** Self time and call count of InstrStream::next across all CPUs. */
struct NextTimer
{
    double seconds = 0;
    std::uint64_t calls = 0;
};

/** Times every next() of the stream it wraps; otherwise transparent. */
class TimedStream : public InstrStream
{
  public:
    TimedStream(std::unique_ptr<InstrStream> inner, NextTimer &timer)
        : _inner(std::move(inner)), _timer(timer)
    {}

    StreamOp
    next() override
    {
        HostClock::time_point t0 = HostClock::now();
        StreamOp op = _inner->next();
        _timer.seconds +=
            std::chrono::duration<double>(HostClock::now() - t0).count();
        ++_timer.calls;
        return op;
    }

    std::uint64_t workDone() const override { return _inner->workDone(); }

    void
    memCompleted(const StreamOp &op, std::uint64_t value) override
    {
        _inner->memCompleted(op, value);
    }

  private:
    std::unique_ptr<InstrStream> _inner;
    NextTimer &_timer;
};

/** A Workload whose streams are TimedStreams around @p inner's. */
class TimedWorkload : public Workload
{
  public:
    TimedWorkload(Workload &inner, NextTimer &timer)
        : _inner(inner), _timer(timer)
    {}

    const std::string &name() const override { return _inner.name(); }
    WorkloadIlp ilp() const override { return _inner.ilp(); }
    std::uint64_t seed() const override { return _inner.seed(); }

    std::unique_ptr<InstrStream>
    makeStream(EventQueue &eq, unsigned global_cpu, unsigned total_cpus,
               std::uint64_t work_target, NodeId node,
               const AddressMap &amap) override
    {
        return std::make_unique<TimedStream>(
            _inner.makeStream(eq, global_cpu, total_cpus, work_target,
                              node, amap),
            _timer);
    }

  private:
    Workload &_inner;
    NextTimer &_timer;
};

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Group kind of a stat-tree node: its last dotted component with
 *  trailing digits removed ("node3.l2b5" -> "l2b", "node0.cpu1" ->
 *  "cpu", "node0.cpu1.dl1" -> "dl1" stays, being a cache name). */
std::string
groupKind(const std::string &name)
{
    std::string k = name.substr(name.rfind('.') + 1);
    if (k == "dl1" || k == "il1")
        return k;
    while (!k.empty() && k.back() >= '0' && k.back() <= '9')
        k.pop_back();
    return k;
}

/**
 * Sum every scalar of the stat tree by (group kind, stat), and every
 * histogram's sample count and sum, so run.py can form per-layer
 * ratios without knowing the tree's shape.
 */
void
sumStats(const JsonValue &group, JsonValue &out)
{
    const std::string kind = groupKind(group.at("name").asString());
    auto bump = [&](const std::string &key, double v) {
        const JsonValue *cur = out.find(key);
        out.set(key, (cur ? cur->asNumber() : 0.0) + v);
    };
    if (const JsonValue *sc = group.find("scalars"))
        for (const std::string &k : sc->keys())
            bump(kind + "." + k, sc->at(k).asNumber());
    if (const JsonValue *hs = group.find("histograms")) {
        for (const std::string &k : hs->keys()) {
            const JsonValue &h = hs->at(k);
            bump(kind + "." + k + ".samples", h.at("samples").asNumber());
            bump(kind + "." + k + ".sum", h.at("sum").asNumber());
        }
    }
    if (const JsonValue *ch = group.find("children"))
        for (const JsonValue &c : ch->items())
            sumStats(c, out);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perf_main: " << msg << "\n"
              << "usage: perf_main --workload NAME --seed N [--work N]"
                 " [--traced] [--spans FILE] [--setup-only]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || !end || *end || end == s)
        usage(what);
    return v;
}

int
runJob(int argc, char **argv)
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 0, work = 0;
    bool have_seed = false, traced = false, setup_only = false;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has_val = i + 1 < argc;
        if (a == "--workload" && has_val) {
            std::string n = argv[++i];
            for (const WorkloadSpec &w : kWorkloads)
                if (n == w.name)
                    spec = &w;
            if (!spec)
                usage("unknown workload");
        } else if (a == "--seed" && has_val) {
            seed = parseCount(argv[++i], "bad --seed");
            have_seed = true;
        } else if (a == "--work" && has_val) {
            work = parseCount(argv[++i], "bad --work");
        } else if (a == "--spans" && has_val) {
            spans_path = argv[++i];
        } else if (a == "--traced") {
            traced = true;
        } else if (a == "--setup-only") {
            setup_only = true;
        } else {
            usage(("bad argument " + a).c_str());
        }
    }
    if (!spec || !have_seed)
        usage("--workload and --seed are required");
    if (work == 0)
        work = spec->work;

    SpanLog spans;
    NextTimer next_timer;
    std::vector<HostClock::time_point> polls;
    // Unbounded, so the checker never sees a truncated trace.
    std::unique_ptr<CoherenceTracer> tracer;
    if (traced)
        tracer = std::make_unique<CoherenceTracer>(
            std::numeric_limits<std::size_t>::max());

    int job = spans.open("job", -1);
    std::uint64_t allocs0 = allocCount();

    int sp = spans.open("workload.build", job);
    std::unique_ptr<Workload> wl;
    if (spec->dss)
        wl = std::make_unique<DssWorkload>(DssParams{}, seed);
    else
        wl = std::make_unique<OltpWorkload>(OltpParams{}, seed);
    std::unique_ptr<Workload> timed;
    if (traced)
        timed = std::make_unique<TimedWorkload>(*wl, next_timer);
    double wl_s = spans.close(sp);

    sp = spans.open("system.build", job);
    SystemConfig cfg = configPn(spec->cpusPerChip, spec->chips);
    if (traced)
        cfg.chip.tracer = tracer.get();
    auto sys = std::make_unique<PiranhaSystem>(cfg);
    double sys_s = spans.close(sp);
    std::uint64_t setup_allocs = allocCount() - allocs0;
    if (setup_only) {
        sys.reset();
        JsonValue out = JsonValue::object();
        out.set("workload", spec->name);
        out.set("seed", seed);
        out.set("setup_s", wl_s + sys_s);
        out.write(std::cout, 0);
        std::cout << "\n";
        return 0;
    }

    const std::uint64_t per_cpu =
        std::max<std::uint64_t>(1, work / sys->totalCpus());
    const std::uint64_t requested = per_cpu * sys->totalCpus();
    std::function<bool()> poll;
    if (traced) {
        polls.reserve(1 << 16);
        polls.push_back(HostClock::now());
        poll = [&polls] {
            polls.push_back(HostClock::now());
            return false;
        };
    }
    int run_span = spans.open("sim.run", job);
    std::uint64_t allocs_run0 = allocCount();
    // max_time is run()'s default; it has to be spelled out to pass
    // the poll hook.
    RunResult r =
        sys->run(traced ? *timed : *wl, per_cpu,
                 100 * 1000 * ticksPerUs, poll);
    std::uint64_t run_allocs = allocCount() - allocs_run0;
    double run_s = spans.close(run_span);
    if (traced) {
        polls.push_back(HostClock::now());
        for (std::size_t i = 1; i < polls.size(); ++i)
            spans.add("sim.slice", spans.offset(polls[i - 1]),
                      spans.offset(polls[i]), run_span);
    }

    sp = spans.open("stats.export", job);
    JsonValue tree = statGroupToJson(sys->stats());
    std::string digest = hex64(fnv1a64(tree.dump(0)));
    double export_s = spans.close(sp);

    // Per-chip clock for IPC, read before teardown.
    const double cycle_ps =
        static_cast<double>(sys->chip(0).clock().period());
    const unsigned cpus = sys->totalCpus();

    sp = spans.open("system.teardown", job);
    sys.reset();
    timed.reset();
    wl.reset();
    double teardown_s = spans.close(sp);
    double job_s = spans.close(job);

    JsonValue out = JsonValue::object();
    out.set("workload", spec->name);
    out.set("seed", seed);
    out.set("chips", static_cast<std::uint64_t>(spec->chips));
    out.set("traced", traced);
    out.set("work_requested", requested);
    out.set("work_done", r.work);
    out.set("aborted", r.aborted);
    out.set("watchdog", r.watchdogTripped);
    out.set("machine_check", r.machineCheck);
    out.set("digest", digest);

    out.set("setup_s", wl_s + sys_s);
    out.set("run_s", run_s);
    out.set("export_s", export_s);
    out.set("teardown_s", teardown_s);
    out.set("job_s", job_s);
    out.set("peak_rss_mb", peakRssMb());
    out.set("setup_allocs", setup_allocs);
    out.set("run_allocs", run_allocs);

    // Model outputs: what the simulated machine did. Printed, never
    // ranked.
    JsonValue model = JsonValue::object();
    model.set("sim_ns_per_work",
              r.work ? static_cast<double>(r.execTime) * 1e-3 /
                           static_cast<double>(r.work)
                     : 0.0);
    model.set("ipc", r.execTime ? r.instructions * cycle_ps /
                                      (static_cast<double>(r.execTime) *
                                       cpus)
                                : 0.0);
    model.set("instructions", r.instructions);
    JsonValue mix = JsonValue::object();
    double misses = r.misses.total();
    auto frac = [misses](double v) { return misses ? v / misses : 0.0; };
    mix.set("l2_hit", frac(r.misses.l2Hit));
    mix.set("l2_fwd", frac(r.misses.l2Fwd));
    mix.set("mem_local", frac(r.misses.memLocal));
    mix.set("mem_remote", frac(r.misses.memRemote));
    mix.set("remote_dirty", frac(r.misses.remoteDirty));
    model.set("miss_mix", std::move(mix));
    model.set("rdram_page_hit_rate", r.rdramPageHitRate);
    out.set("model", std::move(model));

    JsonValue counts = JsonValue::object();
    counts.set("events", r.eventsExecuted);
    counts.set("l1_fast_hits", r.l1FastHits);
    counts.set("fast_inline_hits", r.fastInlineHits);
    sumStats(tree, counts);
    out.set("counts", std::move(counts));

    if (traced) {
        JsonValue prof = JsonValue::object();
        for (const auto &[zone, s] : r.profile)
            prof.set(zone, s);
        out.set("profile", std::move(prof));
        out.set("next_calls", next_timer.calls);
        out.set("next_s", next_timer.seconds);

        sp = spans.open("check", -1);
        std::vector<TraceEvent> events = tracer->events();
        CheckReport rep = checkCoherence(events, tracer->dropped());
        double check_s = spans.close(sp);
        JsonValue chk = JsonValue::object();
        chk.set("violations",
                static_cast<std::uint64_t>(rep.violations.size()));
        chk.set("truncated", rep.truncated);
        chk.set("recorded", tracer->recorded());
        chk.set("dropped", tracer->dropped());
        chk.set("events_checked", rep.eventsChecked);
        chk.set("seconds", check_s);
        JsonValue axioms = JsonValue::array();
        for (const CheckViolation &v : rep.violations)
            axioms.append(v.axiom);
        chk.set("axioms", std::move(axioms));
        if (!rep.violations.empty())
            chk.set("first_window",
                    rep.summary(events, 12).substr(0, 4000));
        out.set("check", std::move(chk));
    }

    if (!spans_path.empty()) {
        std::ofstream f(spans_path);
        std::string run_id = std::string(spec->name) + "-seed" +
                             std::to_string(seed) + "-pid" +
                             std::to_string(getpid());
        spans.toJson(run_id).write(f, 0);
        f << "\n";
        if (!f) {
            std::cerr << "perf_main: cannot write " << spans_path << "\n";
            return 1;
        }
    }

    out.write(std::cout, 0);
    std::cout << "\n";
    return 0;
}

} // namespace
} // namespace piranha

int
main(int argc, char **argv)
{
    try {
        return piranha::runJob(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perf_main: " << e.what() << "\n";
        return 1;
    }
}
