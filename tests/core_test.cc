/**
 * @file
 * CPU timing-model tests: in-order accounting (full stalls), the
 * out-of-order model's issue-width and overlap-credit behavior, the
 * instruction-fetch stream, end-to-end Core-on-chip runs, and inline
 * (zero-event) L1 hits in full systems.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/piranha.h"
#include "cpu/core.h"
#include "test_system.h"

namespace piranha {
namespace {

/** Scripted stream for driving a core deterministically. */
class ScriptStream : public InstrStream
{
  public:
    std::deque<StreamOp> ops;
    std::uint64_t done = 0;

    StreamOp
    next() override
    {
        if (ops.empty())
            return StreamOp{};
        StreamOp op = ops.front();
        ops.pop_front();
        ++done;
        return op;
    }

    std::uint64_t workDone() const override { return done; }

    void
    compute(unsigned n, Addr pc = 0x1000)
    {
        StreamOp op;
        op.kind = StreamOp::Kind::Compute;
        op.count = n;
        op.pc = pc;
        ops.push_back(op);
    }

    void
    load(Addr a, Addr pc = 0x1000)
    {
        StreamOp op;
        op.kind = StreamOp::Kind::Load;
        op.addr = a;
        op.pc = pc;
        ops.push_back(op);
    }
};

struct CoreHarness
{
    TestSystem sys{1, 1};
    ScriptStream stream;
    std::unique_ptr<Core> core;

    explicit CoreHarness(CoreParams p = CoreParams{})
    {
        core = std::make_unique<Core>(
            sys.eq, "cpu", sys.chips[0]->clock(),
            sys.chips[0]->dl1(0), sys.chips[0]->il1(0), p);
    }

    void
    run()
    {
        core->start(&stream);
        sys.eq.run();
        EXPECT_TRUE(core->done());
    }
};

TEST(Core, ComputeTimeMatchesClock)
{
    CoreHarness h;
    h.stream.compute(1000);
    h.run();
    // 1000 single-cycle instructions at 500 MHz = 2 us, plus the
    // ifetch for the first line.
    EXPECT_NEAR(static_cast<double>(h.core->accountedTime()),
                1000.0 * 2000.0, 0.2e6);
    EXPECT_EQ(h.core->statInstrs.value(), 1000.0);
}

TEST(Core, InOrderChargesFullMissLatency)
{
    CoreHarness h;
    h.stream.load(0x5000000);
    h.run();
    // A cold local-memory miss: ~80 ns charged (no overlap).
    EXPECT_GT(h.core->statL2MissStall.value(), 60e3);
}

TEST(Core, WideIssueShrinksBusyTime)
{
    CoreParams ooo;
    ooo.issueWidth = 4;
    ooo.windowSize = 64;
    ooo.ilp = WorkloadIlp{4.0, 0.0};
    CoreHarness wide(ooo), narrow;
    wide.stream.compute(4000);
    narrow.stream.compute(4000);
    wide.run();
    narrow.run();
    double ratio = narrow.core->statBusy.value() /
                   wide.core->statBusy.value();
    EXPECT_NEAR(ratio, 4.0, 0.5);
}

TEST(Core, IlpCeilingLimitsIssueWidth)
{
    CoreParams ooo;
    ooo.issueWidth = 4;
    ooo.windowSize = 64;
    ooo.ilp = WorkloadIlp{1.45, 0.0}; // OLTP-like: little ILP
    CoreHarness h(ooo), base;
    h.stream.compute(4000);
    base.stream.compute(4000);
    h.run();
    base.run();
    double ratio = base.core->statBusy.value() /
                   h.core->statBusy.value();
    EXPECT_NEAR(ratio, 1.45, 0.2);
}

TEST(Core, OverlapHidesMissLatency)
{
    CoreParams ooo;
    ooo.issueWidth = 4;
    ooo.windowSize = 64;
    ooo.ilp = WorkloadIlp{2.0, 0.8};
    CoreHarness h(ooo), inorder;
    h.stream.load(0x5000000);
    inorder.stream.load(0x5000000);
    h.run();
    inorder.run();
    EXPECT_LT(h.core->statL2MissStall.value(),
              0.5 * inorder.core->statL2MissStall.value());
}

TEST(Core, FractionalCyclesCarryAcrossComputeBlocks)
{
    // ilp 3.0 on a 4-wide core: each 1-instruction block costs 1/3
    // cycle = 666.67 ticks at 500 MHz. Per-block truncation used to
    // lose the fractional 2/3 tick every block (3000 blocks: 1998000
    // ticks of accounted busy time instead of 2000000); the carried
    // remainder must keep the long-run total exact.
    CoreParams ooo;
    ooo.issueWidth = 4;
    ooo.windowSize = 64;
    ooo.ilp = WorkloadIlp{3.0, 0.0};
    CoreHarness h(ooo);
    for (int i = 0; i < 3000; ++i)
        h.stream.compute(1);
    h.run();
    EXPECT_NEAR(h.core->statBusy.value(), 2000000.0, 10.0);
}

TEST(Core, IfetchFollowsPcLines)
{
    CoreHarness h;
    // 8 compute runs on distinct lines, then 8 on the same line.
    for (int i = 0; i < 8; ++i)
        h.stream.compute(4, 0x2000000 + i * 64);
    for (int i = 0; i < 8; ++i)
        h.stream.compute(4, 0x3000000);
    h.run();
    EXPECT_EQ(h.core->statIfetches.value(), 9.0);
}

TEST(Core, IdleAccounted)
{
    CoreHarness h;
    StreamOp idle;
    idle.kind = StreamOp::Kind::Idle;
    idle.count = 500;
    h.stream.ops.push_back(idle);
    h.run();
    EXPECT_NEAR(h.core->statIdle.value(), 500 * 2000.0, 2000.0);
}

TEST(Core, StoresRetireThroughStoreBuffer)
{
    CoreHarness h;
    StreamOp st;
    st.kind = StreamOp::Kind::Store;
    st.addr = 0x6000000;
    st.value = 77;
    st.pc = 0x1000;
    h.stream.ops.push_back(st);
    h.stream.compute(10);
    h.run();
    EXPECT_EQ(h.core->statStores.value(), 1.0);
    // The store must land in memory-visible state.
    EXPECT_EQ(h.sys.load(0, 0, 0x6000000), 77u);
}

/**
 * Long hit streaks leave the event queue quiet, so some L1 hits must
 * complete inline with no event: on one CPU running OLTP and on eight
 * CPUs streaming DSS.
 */
TEST(Core, InlineHitsEngageSomewhere)
{
    OltpWorkload oltp;
    PiranhaSystem p1(configP1());
    RunResult r1 = p1.run(oltp, 20);
    EXPECT_GT(r1.fastInlineHits, 0u);

    DssWorkload dss;
    PiranhaSystem p8(configP8());
    RunResult r8 = p8.run(dss, 2);
    EXPECT_GT(r8.fastInlineHits, 0u);
    EXPECT_EQ(r8.l1FastHits, r8.fastInlineHits);
}

} // namespace
} // namespace piranha
