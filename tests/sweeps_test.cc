/**
 * @file
 * Tests for sweep_main's sweep registry (bench/sweeps.h): every named
 * sweep expands to a runnable grid with unique job labels, and the
 * cheap `cmi` sweep runs end to end through its render.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "sweeps.h"

namespace piranha {
namespace {

TEST(SweepRegistry, EveryEntryExpandsToUniqueLabels)
{
    std::set<std::string> names;
    for (const SweepEntry &e : kSweeps) {
        EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
        std::vector<SweepPoint> pts = e.make().expand();
        EXPECT_FALSE(pts.empty()) << e.name;
        std::set<std::string> labels;
        for (const SweepPoint &pt : pts)
            EXPECT_TRUE(labels.insert(pt.label).second)
                << e.name << ": duplicate label " << pt.label;
    }
}

TEST(SweepRegistry, CmiMeasuresChainsAndRenders)
{
#if !PIRANHA_COHERENCE_TRACE
    GTEST_SKIP() << "built with PIRANHA_TRACE=OFF";
#endif
    const SweepEntry *cmi = nullptr;
    for (const SweepEntry &e : kSweeps)
        if (std::string(e.name) == "cmi")
            cmi = &e;
    ASSERT_NE(cmi, nullptr);
    ASSERT_NE(cmi->render, nullptr);

    SweepOptions opts;
    opts.threads = 2;
    SweepReport rep = SweepRunner(opts).run(cmi->make());
    ASSERT_FALSE(rep.jobs.empty());
    for (const JobResult &j : rep.jobs) {
        ASSERT_EQ(j.status, JobStatus::Ok) << j.label << ": " << j.error;
        double chains = j.stats.at("chains");
        EXPECT_GE(chains, 1) << j.label;
        EXPECT_LE(chains, j.stats.at("fanout")) << j.label;
        EXPECT_GT(j.stats.at("inval_settle_ns"), 0) << j.label;
    }

    std::ostringstream os;
    cmi->render(rep, os);
    std::string table = os.str();
    EXPECT_NE(table.find("inval+settle ns"), std::string::npos);
    // Header, rule, one row per job, four lines of paper comparison.
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'),
              static_cast<long>(rep.jobs.size()) + 6)
        << table;
}

} // namespace
} // namespace piranha
