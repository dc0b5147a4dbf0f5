/**
 * @file
 * Behaviour fingerprint: every job of the `quick` and `fig5` sweeps,
 * plus reduced-work OOO, 4-chip and 16-chip OLTP points, must reproduce
 * the stat-tree hash and kernel event count pinned in
 * tests/fingerprint.txt; quick P8/OLTP, quick P8/DSS and the 16-chip
 * point must also reproduce their coherence-trace hash.
 *
 * A refactor that claims to keep behaviour bit-identical keeps this
 * file unchanged. A change that alters behaviour on purpose re-pins
 * it: on mismatch the test prints the recomputed lines, which replace
 * the old ones together with a CHANGES.md entry saying why.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "check/trace.h"
#include "harness/journal.h"
#include "sweeps.h"

namespace piranha {
namespace {

/** "<label> <stat-tree fnv1a64> <events_executed>" per job. */
using Fingerprint = std::map<std::string, std::string>;

/** The pinned lines of @p sweep, keyed by job label. */
Fingerprint
pinned(const std::string &sweep)
{
    std::ifstream in(PIRANHA_FINGERPRINT_FILE);
    EXPECT_TRUE(in) << "cannot open " << PIRANHA_FINGERPRINT_FILE;
    Fingerprint fp;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string name, label;
        is >> name >> label;
        if (name == sweep)
            fp[label] = line;
    }
    return fp;
}

/** Run @p pts and fingerprint every job as a fingerprint.txt line. */
Fingerprint
measure(const std::string &sweep, const std::vector<SweepPoint> &pts)
{
    SweepOptions opts;
    opts.threads = 2;
    SweepReport rep = SweepRunner(opts).run(sweep, pts);
    Fingerprint fp;
    for (const JobResult &j : rep.jobs) {
        EXPECT_EQ(j.status, JobStatus::Ok) << j.label << ": " << j.error;
        EXPECT_FALSE(j.run.aborted) << j.label;
        std::string tree = j.statTree.dump(0);
        std::uint64_t h = fnv1a64(tree.data(), tree.size());
        fp[j.label] = strFormat(
            "%s %s %016llx %llu", sweep.c_str(), j.label.c_str(),
            static_cast<unsigned long long>(h),
            static_cast<unsigned long long>(j.run.eventsExecuted));
    }
    return fp;
}

/** Compare recomputed lines @p got with the pinned lines of @p sweep. */
void
expectMatches(const std::string &sweep, const Fingerprint &got)
{
    Fingerprint want = pinned(sweep);
    EXPECT_EQ(want.size(), got.size()) << sweep << ": job count";
    bool same = want.size() == got.size();
    for (const auto &[label, line] : got) {
        auto it = want.find(label);
        EXPECT_TRUE(it != want.end()) << "no pinned line for " << label;
        if (it == want.end())
            same = false;
        else if (it->second != line) {
            ADD_FAILURE() << "fingerprint changed:\n  pinned: "
                          << it->second << "\n  now:    " << line;
            same = false;
        }
    }
    if (!same) {
        std::cout << "recomputed fingerprint lines for " << sweep
                  << ":\n";
        for (const auto &[label, line] : got)
            std::cout << line << "\n";
    }
}

void
expectPinned(const std::string &sweep, const std::vector<SweepPoint> &pts)
{
    expectMatches(sweep, measure(sweep, pts));
}

/** A reduced-work OLTP sweep of one configuration. */
SweepSpec
oltpPoint(const std::string &name, SystemConfig cfg, std::uint64_t txns)
{
    SweepSpec s(name);
    s.addConfig(std::move(cfg))
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            txns);
    return s;
}

/**
 * A reduced-work OLTP run on the 16-chip ring (four transactions per
 * CPU): the only tested point above 8 chips, so it covers the ring
 * topology and multi-hop routing.
 */
SweepSpec
sixteenChipOltp()
{
    return oltpPoint("p4x16", configPn(4, 16), 256);
}

/** The SweepPoint labelled @p label in @p pts. */
SweepPoint
pointOf(const std::vector<SweepPoint> &pts, const std::string &label)
{
    for (const SweepPoint &pt : pts)
        if (pt.label == label)
            return pt;
    ADD_FAILURE() << "no point " << label;
    return SweepPoint{};
}

/** fnv1a64 over every field of every record, in record order. */
std::uint64_t
traceHash(const std::vector<TraceEvent> &events)
{
    std::string bytes;
    auto put = [&bytes](std::uint64_t v, unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            bytes.push_back(static_cast<char>(v >> (8 * i)));
    };
    for (const TraceEvent &e : events) {
        put(e.tick, 8);
        put(static_cast<std::uint64_t>(e.kind), 1);
        put(static_cast<std::uint32_t>(e.node), 4);
        put(static_cast<std::uint32_t>(e.l1), 4);
        put(static_cast<std::uint32_t>(e.aux), 4);
        put(e.state, 4);
        put(e.size, 4);
        put(static_cast<std::uint64_t>(e.src), 1);
        put(e.addr, 8);
        put(e.value, 8);
        put(e.mask, 4);
    }
    return fnv1a64(bytes.data(), bytes.size());
}

TEST(Fingerprint, QuickSweep)
{
    expectPinned("quick", sweepQuick().expand());
}

/** sweep_main's fig5 grid: P1, INO, OOO and P8 under full-work OLTP
 *  and DSS, the runs behind the paper's Figure 5. */
TEST(Fingerprint, Fig5Sweep)
{
    expectPinned("fig5", sweepFig5().expand());
}

TEST(Fingerprint, SixteenChipOltp)
{
    expectPinned("p4x16", sixteenChipOltp().expand());
}

/** The out-of-order baseline: issue width and overlap credit. */
TEST(Fingerprint, OooOltp)
{
    expectPinned("ooo", oltpPoint("ooo", configOOO(), 128).expand());
}

/** P4 x 4 chips, one of ROADMAP's north-star measurement points. */
TEST(Fingerprint, FourChipOltp)
{
    expectPinned("p4x4", oltpPoint("p4x4", configPn(4, 4), 128).expand());
}

/**
 * Coherence traces: every record the L1s, L2 banks and protocol
 * engines emit, in order, with its tick, state and value. Each point
 * runs alone with its own tracer, which must not overwrite a record.
 */
TEST(Fingerprint, CoherenceTraces)
{
#if !PIRANHA_COHERENCE_TRACE
    GTEST_SKIP() << "built with PIRANHA_TRACE=OFF";
#endif
    std::vector<SweepPoint> quick = sweepQuick().expand();
    std::vector<SweepPoint> pts = {
        pointOf(quick, "P8/OLTP"),
        pointOf(quick, "P8/DSS"),
        sixteenChipOltp().expand().at(0),
    };
    const char *labels[] = {"quick/P8/OLTP", "quick/P8/DSS",
                            "p4x16/P4/OLTP"};
    Fingerprint got;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        CoherenceTracer tracer;
        pts[i].label = labels[i];
        pts[i].config.chip.tracer = &tracer;
        SweepOptions opts;
        opts.threads = 1;
        opts.captureStatTree = false;
        SweepReport rep = SweepRunner(opts).run("trace", {pts[i]});
        const JobResult &j = rep.jobs.at(0);
        EXPECT_EQ(j.status, JobStatus::Ok) << j.label << ": " << j.error;
        EXPECT_EQ(tracer.dropped(), 0u) << j.label << ": tracer overflowed";
        got[j.label] = strFormat(
            "trace %s %016llx %llu", j.label.c_str(),
            static_cast<unsigned long long>(traceHash(tracer.events())),
            static_cast<unsigned long long>(tracer.recorded()));
    }
    expectMatches("trace", got);
}

} // namespace
} // namespace piranha
