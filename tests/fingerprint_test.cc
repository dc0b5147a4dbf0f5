/**
 * @file
 * Behaviour fingerprint: every job of the `quick` sweep, plus one
 * reduced-work 16-chip P4 OLTP point, must reproduce the stat-tree
 * hash and kernel event count pinned in tests/fingerprint.txt.
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

void
expectPinned(const std::string &sweep, const std::vector<SweepPoint> &pts)
{
    Fingerprint want = pinned(sweep);
    Fingerprint got = measure(sweep, pts);
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

TEST(Fingerprint, QuickSweep)
{
    expectPinned("quick", sweepQuick().expand());
}

/**
 * A reduced-work OLTP run on the 16-chip ring (four transactions per
 * CPU): the only tested point above 8 chips, so it covers the ring
 * topology and multi-hop routing.
 */
TEST(Fingerprint, SixteenChipOltp)
{
    SweepSpec s("p4x16");
    s.addConfig(configPn(4, 16))
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            256);
    expectPinned("p4x16", s.expand());
}

} // namespace
} // namespace piranha
