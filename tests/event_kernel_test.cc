/**
 * @file
 * Intrusive event-kernel tests: wheel/heap ordering across the
 * horizon, wrap-around, deschedule/reschedule of in-flight events,
 * misuse panics, monotonic time across run/step boundaries, and a
 * randomized execution-order equivalence check against an in-test
 * reference kernel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace piranha {
namespace {

// Wheel geometry, read from the kernel. Deltas below the horizon are
// filed in the wheel, at or above it in the far-future heap.
constexpr Tick kBucket = EventQueue::kBucketTicks;
constexpr Tick kHorizon = EventQueue::kHorizonTicks;
constexpr Tick kBuckets = kHorizon / kBucket;

/** Appends its id to a shared log when it fires. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> *log, int id) : _log(log), _id(id) {}
    void process() override { _log->push_back(_id); }
    const char *eventName() const override { return "log"; }

  private:
    std::vector<int> *_log;
    int _id;
};

TEST(EventKernel, SameTickFifoAcrossWheelAndHeap)
{
    EventQueue eq;
    std::vector<int> log;
    // The rendezvous tick starts beyond the horizon (heap), then
    // events keep joining it as time advances into wheel range:
    // FIFO order must hold across both containers.
    const Tick t = kHorizon + 5000;
    LogEvent far0(&log, 0), far1(&log, 1), near2(&log, 2),
        near3(&log, 3);
    eq.schedule(far0, t); // heap
    eq.schedule(far1, t); // heap
    eq.schedule(10000, [&] {
        eq.schedule(near2, t); // now within horizon: wheel
        eq.schedule(near3, t); // wheel, same bucket, same tick
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.curTick(), t);
}

TEST(EventKernel, OrderPreservedAtWheelHorizonBoundary)
{
    EventQueue eq;
    std::vector<int> log;
    // A delta of one bucket less than the wheel lands in its last
    // reachable bucket (wrap-around index); the full horizon goes to
    // the heap.
    LogEvent lastBucket(&log, 1), firstHeap(&log, 2), far(&log, 3);
    eq.scheduleIn(lastBucket, (kBuckets - 1) * kBucket);
    eq.scheduleIn(firstHeap, kHorizon);
    eq.scheduleIn(far, kHorizon + 1);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventKernel, WheelWrapAroundKeepsTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    // March time forward so bucket indices wrap the wheel several
    // times; events scheduled at mixed deltas must still fire in
    // global tick order.
    std::vector<std::unique_ptr<LogEvent>> events;
    int id = 0;
    Tick when = 0;
    std::vector<std::pair<Tick, int>> expected;
    for (int lap = 0; lap < 10; ++lap) {
        when += kBuckets * 25 / 32 * kBucket + 37; // wraps each lap
        events.push_back(std::make_unique<LogEvent>(&log, id));
        eq.schedule(*events.back(), when);
        expected.push_back({when, id});
        ++id;
        // A nearer event inserted later must still fire earlier.
        events.push_back(std::make_unique<LogEvent>(&log, id));
        eq.schedule(*events.back(), when - kBuckets / 5 * kBucket);
        expected.push_back({when - kBuckets / 5 * kBucket, id});
        ++id;
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(log.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(log[i], expected[i].second) << "position " << i;
}

TEST(EventKernel, DescheduleInFlightNeverFires)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent nearEv(&log, 1), farEv(&log, 2), survivor(&log, 3);
    eq.scheduleIn(nearEv, 100);          // wheel
    eq.scheduleIn(farEv, kHorizon + 10); // heap (stale-entry path)
    eq.scheduleIn(survivor, 200);
    eq.schedule(50, [&] {
        eq.deschedule(nearEv);
        eq.deschedule(farEv);
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{3}));
    EXPECT_FALSE(nearEv.scheduled());
    EXPECT_FALSE(farEv.scheduled());
}

TEST(EventKernel, RescheduleMovesPendingEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.scheduleIn(a, 100);
    eq.scheduleIn(b, 300);
    // Move a past b; move b from heap range into wheel range.
    eq.schedule(10, [&] {
        eq.reschedule(a, 400);
        EXPECT_EQ(a.when(), 400u);
    });
    LogEvent farMover(&log, 3);
    eq.scheduleIn(farMover, kHorizon + 999);
    eq.schedule(20, [&] { eq.reschedule(farMover, 350); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST(EventKernel, SquashCancelsAndAllowsReuse)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 7);
    eq.scheduleIn(ev, 100);
    ev.squash();
    EXPECT_FALSE(ev.scheduled());
    ev.squash(); // no-op when idle
    eq.scheduleIn(ev, 200);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{7}));
}

TEST(EventKernelDeath, ScheduleInPastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 0);
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(ev, 50), "past");
}

TEST(EventKernelDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 0);
    eq.scheduleIn(ev, 100);
    EXPECT_DEATH(eq.scheduleIn(ev, 200), "already scheduled");
}

TEST(EventKernelDeath, DescheduleIdleEventPanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent ev(&log, 0);
    EXPECT_DEATH(eq.deschedule(ev), "idle");
}

TEST(EventKernel, TimeIsMonotonicAcrossRunAndStep)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(600, [&] { ++fired; });
    EXPECT_FALSE(eq.run(500));
    EXPECT_EQ(eq.curTick(), 500u);
    // An earlier limit must not rewind the clock.
    EXPECT_FALSE(eq.run(400));
    EXPECT_EQ(eq.curTick(), 500u);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.curTick(), 600u);
    EXPECT_EQ(fired, 1);
    // Draining an empty queue holds time still.
    EXPECT_TRUE(eq.run(100));
    EXPECT_EQ(eq.curTick(), 600u);
}

TEST(EventKernel, PendingAndExecutedCounts)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.scheduleIn(a, 10);
    eq.scheduleIn(b, kHorizon + 10);
    eq.schedule(5, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventKernel, MemberEventIsReusableAcrossFires)
{
    struct Counter
    {
        int n = 0;
        void bump() { ++n; }
    } c;
    EventQueue eq;
    MemberEvent<Counter, &Counter::bump> ev(&c, "counter.bump");
    EXPECT_STREQ(ev.eventName(), "counter.bump");
    for (int i = 0; i < 5; ++i) {
        eq.scheduleIn(ev, 10);
        eq.run();
        EXPECT_FALSE(ev.scheduled());
    }
    EXPECT_EQ(c.n, 5);
}

TEST(EventKernel, EventPoolGrowsOnlyWithHighWaterMark)
{
    struct NopEvent : Event
    {
        void process() override {}
    };
    EventPool<NopEvent> pool;
    // Three in flight at the peak.
    NopEvent *a = pool.acquire();
    NopEvent *b = pool.acquire();
    NopEvent *c = pool.acquire();
    EXPECT_EQ(pool.size(), 3u);
    pool.release(a);
    pool.release(b);
    pool.release(c);
    // Steady-state churn below the mark reuses storage.
    for (int i = 0; i < 100; ++i) {
        NopEvent *x = pool.acquire();
        NopEvent *y = pool.acquire();
        pool.release(x);
        pool.release(y);
    }
    EXPECT_EQ(pool.size(), 3u);
}

TEST(EventKernel, DestructorOfScheduledEventDeschedules)
{
    EventQueue eq;
    std::vector<int> log;
    {
        LogEvent doomed(&log, 1);
        eq.scheduleIn(doomed, 100);
        LogEvent farDoomed(&log, 2);
        eq.scheduleIn(farDoomed, kHorizon + 100);
    } // both destroyed while pending
    LogEvent ok(&log, 3);
    eq.scheduleIn(ok, 200);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<int>{3}));
}

/**
 * Reference kernel: the legacy heap kernel's order rule in one
 * std::priority_queue keyed on (tick, seq), with EventQueue's two
 * sequence bands (a priority event sorts ahead of every normal event
 * of its tick) and cancellation by id. Every id is scheduled once.
 */
class RefQueue
{
  public:
    explicit RefQueue(std::function<void(int)> fire) : _fire(fire) {}
    Tick curTick() const { return _now; }
    std::uint64_t executed() const { return _executed; }
    bool pending(int id) const { return _live.count(id) != 0; }
    void cancel(int id) { _live.erase(id); }

    void
    schedule(Tick when, int id, bool prio, bool)
    {
        _q.push(Ent{when, prio ? _prioSeq++ : _seq++, id});
        _live.insert(id);
    }

    void
    run()
    {
        while (!_q.empty()) {
            Ent e = _q.top();
            _q.pop();
            if (!_live.erase(e.id))
                continue; // cancelled
            _now = e.when;
            ++_executed;
            _fire(e.id);
        }
    }

  private:
    struct Ent
    {
        Tick when;
        std::uint64_t seq;
        int id;
        bool
        operator>(const Ent &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    std::priority_queue<Ent, std::vector<Ent>, std::greater<Ent>> _q;
    std::set<int> _live;
    std::uint64_t _prioSeq = 0, _seq = std::uint64_t(1) << 62;
    Tick _now = 0;
    std::uint64_t _executed = 0;
    std::function<void(int)> _fire;
};

/**
 * EventQueue behind the same interface: normal-band ids without a
 * handle go through the closure API; ids with a handle, which the
 * script can deschedule, and every priority id go through intrusive
 * events (there is no closure variant of schedulePriority).
 */
class KernelQueue
{
  public:
    explicit KernelQueue(std::function<void(int)> fire) : _fire(fire) {}
    Tick curTick() const { return _eq.curTick(); }
    std::uint64_t executed() const { return _eq.executed(); }
    bool pending(int id) const { return _events.at(id)->scheduled(); }
    void cancel(int id) { _eq.deschedule(*_events.at(id)); }
    void run() { _eq.run(); }

    void
    schedule(Tick when, int id, bool prio, bool handle)
    {
        if (!handle && !prio) {
            _eq.schedule(when, [this, id] { _fire(id); });
            return;
        }
        auto &ev = _events[id] = std::make_unique<FireEvent>(this, id);
        prio ? _eq.schedulePriority(*ev, when) : _eq.schedule(*ev, when);
    }

  private:
    struct FireEvent final : Event
    {
        FireEvent(KernelQueue *q, int id) : q(q), id(id) {}
        void process() override { q->_fire(id); }
        KernelQueue *q;
        int id;
    };
    EventQueue _eq; // outlives the events below
    std::map<int, std::unique_ptr<FireEvent>> _events;
    std::function<void(int)> _fire;
};

struct ScriptResult
{
    std::vector<int> log;
    Tick end = 0;
    std::uint64_t executed = 0;
    unsigned cancelled = 0;
};

/**
 * Replays one pseudo-random schedule script into a queue. Each fired
 * event logs its id, may deschedule a pending event, and may schedule
 * children at deterministic deltas spanning wheel range (including
 * the current tick), the horizon boundary and far-heap range, so both
 * containers stay populated and same-tick ties arise within and
 * across them. A quarter of all events use the priority
 * band; half carry a handle that makes them descheduleable.
 */
template <class Queue>
ScriptResult
runScript(std::uint64_t seed)
{
    ScriptResult res;
    Pcg32 rng(seed);
    std::vector<int> depthOf;
    std::vector<int> handles;
    Queue *q = nullptr;
    auto spawn = [&](Tick when, int depth) {
        int id = static_cast<int>(depthOf.size());
        depthOf.push_back(depth);
        bool prio = rng.below(4) == 0;
        bool handle = rng.below(2) == 0;
        if (handle)
            handles.push_back(id);
        q->schedule(when, id, prio, handle);
    };
    Queue queue([&](int id) {
        res.log.push_back(id);
        if (rng.below(3) == 0 && !handles.empty()) {
            int victim = handles[rng.below(
                static_cast<std::uint32_t>(handles.size()))];
            if (q->pending(victim)) {
                q->cancel(victim);
                ++res.cancelled;
            }
        }
        if (depthOf[id] >= 4)
            return;
        unsigned kids = rng.below(4);
        for (unsigned k = 0; k < kids; ++k) {
            Tick delta;
            // Most deltas are whole multiples of 1000 ticks, so events
            // filed in the wheel and in the heap often share a tick.
            switch (rng.below(4)) {
              case 0: delta = rng.below(3) * 2000; break;       // hot
              case 1: delta = rng.below(4096); break;           // sub-bucket
              case 2: delta = kHorizon - 12288 + rng.below(20) * 1000; break; // boundary
              default: delta = 600000 + rng.below(100) * 1000; break; // far
            }
            spawn(q->curTick() + delta, depthOf[id] + 1);
        }
    });
    q = &queue;
    for (int r = 0; r < 40; ++r)
        spawn(rng.below(500) * 1000, 0);
    queue.run();
    res.end = queue.curTick();
    res.executed = queue.executed();
    return res;
}

/**
 * Clock-edge traffic as a 16-chip system makes it: six sources step
 * at 1000 or 2000 ticks from start offsets that are not multiples of
 * a bucket, so one bucket holds the edges of several sources. Each
 * firing files its successor and, on some steps, a priority event at
 * its own tick (a network arrival flush, which must run ahead of the
 * tick's pending normal events) or at its successor's tick, and a
 * same-tick normal event.
 */
template <class Queue>
ScriptResult
runInterleaved()
{
    constexpr int kSources = 6;
    constexpr int kSteps = 300;
    ScriptResult res;
    std::vector<int> sourceOf; // id -> source, -1 for extras
    int steps[kSources] = {};
    Queue *q = nullptr;
    auto spawn = [&](Tick when, int src, bool prio) {
        int id = static_cast<int>(sourceOf.size());
        sourceOf.push_back(src);
        q->schedule(when, id, prio, false);
    };
    Queue queue([&](int id) {
        res.log.push_back(id);
        int src = sourceOf[id];
        if (src < 0 || ++steps[src] > kSteps)
            return;
        Tick now = q->curTick();
        Tick next = now + (src % 2 ? 2000 : 1000);
        spawn(next, src, false);
        if (steps[src] % 3 == 0)
            spawn(now, -1, true);
        if (steps[src] % 4 == 0)
            spawn(next, -1, true);
        if (steps[src] % 5 == 0)
            spawn(now, -1, false);
    });
    q = &queue;
    for (int s = 0; s < kSources; ++s)
        spawn(static_cast<Tick>(s) * 333, s, false);
    queue.run();
    res.end = queue.curTick();
    res.executed = queue.executed();
    return res;
}

TEST(EventKernel, SubCycleClockEdgesMatchReferenceOrder)
{
    ScriptResult ref = runInterleaved<RefQueue>();
    ScriptResult got = runInterleaved<KernelQueue>();
    ASSERT_GT(ref.log.size(), 6u * 300u);
    EXPECT_EQ(ref.log, got.log);
    EXPECT_EQ(ref.end, got.end);
    EXPECT_EQ(ref.executed, got.executed);
}

TEST(EventKernel, RandomizedOrderMatchesLegacyKernel)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 42u, 1234u}) {
        ScriptResult ref = runScript<RefQueue>(seed);
        ScriptResult got = runScript<KernelQueue>(seed);
        ASSERT_FALSE(ref.log.empty());
        EXPECT_EQ(ref.log, got.log) << "kernel diverged, seed " << seed;
        EXPECT_EQ(ref.end, got.end);
        EXPECT_EQ(ref.executed, got.executed);
        EXPECT_EQ(ref.cancelled, got.cancelled);
        EXPECT_GT(ref.cancelled, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace piranha
