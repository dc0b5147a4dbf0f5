/**
 * @file
 * Tests for the experiment-sweep harness (src/harness/): grid
 * expansion, the determinism regression the thread-pool runner relies
 * on (one EventQueue universe per job), exception isolation, host
 * wall-clock timeouts, and the machine-readable sweep report.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/piranha.h"
#include "stats/json.h"

namespace piranha {
namespace {

WorkloadFactory
oltpFactory(std::uint64_t seed = 1)
{
    return [seed] { return std::make_unique<OltpWorkload>(
                        OltpParams{}, seed); };
}

SweepPoint
smallPoint(std::string label, unsigned cpus = 2,
           std::uint64_t work = 48)
{
    SweepPoint pt;
    pt.label = std::move(label);
    pt.config = configPn(cpus);
    pt.workload = WorkloadDecl{"OLTP", oltpFactory(), work};
    return pt;
}

TEST(SweepSpec, ExpandsGridInDeclarationOrder)
{
    SweepSpec spec("grid");
    spec.addConfig(configPn(1)).addConfig(configPn(2));
    spec.addWorkload("OLTP", oltpFactory(), 16)
        .addWorkload("DSS",
                     [] { return std::make_unique<DssWorkload>(); }, 4);
    spec.addPoint(smallPoint("extra"));

    std::vector<SweepPoint> pts = spec.expand();
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_EQ(pts[0].label, "P1/OLTP");
    EXPECT_EQ(pts[1].label, "P1/DSS");
    EXPECT_EQ(pts[2].label, "P2/OLTP");
    EXPECT_EQ(pts[3].label, "P2/DSS");
    EXPECT_EQ(pts[4].label, "extra");
    EXPECT_EQ(pts[2].workload.totalWork, 16u);
}

/**
 * The determinism regression: the same SimConfig + seed must produce
 * bit-identical final stats on every execution — serial, repeated,
 * or on the thread-pool runner. This is the property that makes
 * host-parallel sweeps safe.
 */
TEST(SweepRunner, SameConfigAndSeedIsBitIdentical)
{
    SweepRunner runner(SweepOptions{.threads = 1});

    JobResult a = runner.runJob(smallPoint("a"));
    JobResult b = runner.runJob(smallPoint("b"));
    ASSERT_EQ(a.status, JobStatus::Ok);
    ASSERT_EQ(b.status, JobStatus::Ok);

    // Exact (not approximate) equality, across every named stat and
    // the full serialized StatGroup tree.
    EXPECT_EQ(a.run.execTime, b.run.execTime);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.statTree.dump(), b.statTree.dump());
}

TEST(SweepRunner, ThreadPoolDoesNotPerturbResults)
{
    JobResult serial =
        SweepRunner(SweepOptions{.threads = 1}).runJob(smallPoint("s"));
    ASSERT_EQ(serial.status, JobStatus::Ok);

    // Four copies of the same universe racing on four host threads:
    // every one must reproduce the serial result bit-exactly.
    std::vector<SweepPoint> pts;
    for (int i = 0; i < 4; ++i)
        pts.push_back(smallPoint(strFormat("copy%d", i)));
    SweepReport rep = SweepRunner(SweepOptions{.threads = 4})
                          .run("determinism", pts);
    EXPECT_EQ(rep.threads, 4u);
    ASSERT_EQ(rep.jobs.size(), 4u);
    for (const JobResult &j : rep.jobs) {
        ASSERT_EQ(j.status, JobStatus::Ok) << j.label << ": " << j.error;
        EXPECT_EQ(j.run.execTime, serial.run.execTime) << j.label;
        EXPECT_EQ(j.stats, serial.stats) << j.label;
        EXPECT_EQ(j.statTree.dump(), serial.statTree.dump()) << j.label;
    }
}

TEST(SweepRunner, DifferentSeedsDiffer)
{
    SweepRunner runner(SweepOptions{.threads = 1});
    SweepPoint p1 = smallPoint("seed1");
    SweepPoint p2 = smallPoint("seed2");
    p2.workload.make = oltpFactory(2);
    JobResult a = runner.runJob(p1);
    JobResult b = runner.runJob(p2);
    ASSERT_EQ(a.status, JobStatus::Ok);
    ASSERT_EQ(b.status, JobStatus::Ok);
    EXPECT_NE(a.statTree.dump(), b.statTree.dump());
}

TEST(SweepRunner, CrashingJobIsIsolated)
{
    std::vector<SweepPoint> pts;
    pts.push_back(smallPoint("good0", 1, 16));
    SweepPoint bad = smallPoint("bad", 1, 16);
    bad.workload.make = []() -> std::unique_ptr<Workload> {
        throw std::runtime_error("deliberate config crash");
    };
    pts.push_back(bad);
    SweepPoint null_wl = smallPoint("null", 1, 16);
    null_wl.workload.make = [] { return std::unique_ptr<Workload>(); };
    pts.push_back(null_wl);
    pts.push_back(smallPoint("good1", 1, 16));

    SweepReport rep = SweepRunner(SweepOptions{.threads = 2})
                          .run("isolation", pts);
    ASSERT_EQ(rep.jobs.size(), 4u);
    EXPECT_EQ(rep.jobs[0].status, JobStatus::Ok);
    EXPECT_EQ(rep.jobs[1].status, JobStatus::Failed);
    EXPECT_NE(rep.jobs[1].error.find("deliberate config crash"),
              std::string::npos);
    EXPECT_EQ(rep.jobs[2].status, JobStatus::Failed);
    EXPECT_EQ(rep.jobs[3].status, JobStatus::Ok);
    EXPECT_EQ(rep.count(JobStatus::Failed), 2u);
    EXPECT_EQ(rep.count(JobStatus::Ok), 2u);
}

TEST(SweepRunner, HostTimeoutStopsRunawayJob)
{
    // Far more work than a few milliseconds of host time can simulate.
    SweepPoint pt = smallPoint("runaway", 8, 100000);
    SweepOptions opts;
    opts.threads = 1;
    opts.jobTimeoutSec = 0.02;
    JobResult jr = SweepRunner(opts).runJob(pt);
    EXPECT_EQ(jr.status, JobStatus::TimedOut);
    EXPECT_FALSE(jr.error.empty());
}

/**
 * A worker that ignores the cooperative timeout entirely (custom jobs
 * never see the abort hook) used to wedge its pool slot for as long
 * as it pleased. Now the monitor abandons it after the grace window:
 * the job is closed as TimedOut with leaked_worker set, the sweep
 * finishes without waiting for the stuck thread, and the leaked
 * thread can never write into sweep state again.
 */
TEST(SweepRunner, UnresponsiveWorkerIsAbandonedAndFlagged)
{
    std::vector<SweepPoint> pts;
    SweepPoint stuck;
    stuck.label = "stuck";
    stuck.custom = []() -> CustomResult {
        std::this_thread::sleep_for(std::chrono::seconds(2));
        return {};
    };
    pts.push_back(stuck);
    for (int i = 0; i < 2; ++i) {
        SweepPoint ok;
        ok.label = "ok" + std::to_string(i);
        ok.custom = []() -> CustomResult {
            CustomResult cr;
            cr.stats["ran"] = 1;
            return cr;
        };
        pts.push_back(ok);
    }

    SweepOptions opts;
    opts.threads = 2;
    opts.jobTimeoutSec = 0.05;
    opts.killGraceSec = 0.1;
    auto t0 = std::chrono::steady_clock::now();
    SweepReport rep = SweepRunner(opts).run("leak", pts);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    // Returned long before the stuck thread's 2 s sleep finished.
    EXPECT_LT(elapsed, 1.5);
    EXPECT_EQ(rep.jobs[0].status, JobStatus::TimedOut);
    EXPECT_TRUE(rep.jobs[0].leakedWorker);
    EXPECT_EQ(rep.jobs[1].status, JobStatus::Ok);
    EXPECT_EQ(rep.jobs[2].status, JobStatus::Ok);

    // The leak is report-visible, not just a stderr line.
    JsonValue root = rep.toJson(false);
    EXPECT_EQ(root.at("jobs_leaked").asNumber(), 1.0);
    EXPECT_TRUE(
        root.at("jobs").at(0).at("leaked_worker").asBool());
}

TEST(SweepReport, JsonIsParseableAndComplete)
{
    std::vector<SweepPoint> pts;
    pts.push_back(smallPoint("p0", 1, 16));
    pts.push_back(smallPoint("p1", 2, 16));
    SweepReport rep =
        SweepRunner(SweepOptions{.threads = 2}).run("mini", pts);

    JsonValue v = parseJson(rep.toJson().dump());
    EXPECT_EQ(v.at("sweep").asString(), "mini");
    EXPECT_DOUBLE_EQ(v.at("jobs_total").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(v.at("jobs_failed").asNumber(), 0.0);
    ASSERT_EQ(v.at("jobs").size(), 2u);

    const JsonValue &j0 = v.at("jobs").at(0);
    EXPECT_EQ(j0.at("label").asString(), "p0");
    EXPECT_EQ(j0.at("status").asString(), "ok");
    EXPECT_EQ(j0.at("config").asString(), "P1");
    EXPECT_GT(j0.at("stats").at("exec_time_ps").asNumber(), 0.0);
    EXPECT_GT(j0.at("stats").at("instructions").asNumber(), 0.0);
    // Full stat tree rides along by default...
    EXPECT_EQ(j0.at("stat_tree").at("name").asString(), "system");

    // ...and can be omitted.
    SweepOptions lean;
    lean.threads = 1;
    lean.captureStatTree = false;
    SweepReport rep2 = SweepRunner(lean).run("mini", pts);
    JsonValue v2 = parseJson(rep2.toJson().dump());
    EXPECT_EQ(v2.at("jobs").at(0).find("stat_tree"), nullptr);

    // Label lookup.
    EXPECT_NE(rep.job("p1"), nullptr);
    EXPECT_EQ(rep.job("absent"), nullptr);
}

TEST(SweepReport, WritesJsonFile)
{
    std::vector<SweepPoint> pts;
    pts.push_back(smallPoint("p0", 1, 8));
    SweepReport rep =
        SweepRunner(SweepOptions{.threads = 1}).run("filetest", pts);

    std::string path =
        testing::TempDir() + "/piranha_sweep_report.json";
    ASSERT_TRUE(rep.writeJsonFile(path));
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    JsonValue v = parseJson(buf.str());
    EXPECT_EQ(v.at("sweep").asString(), "filetest");
}

} // namespace
} // namespace piranha
