/**
 * @file
 * System interconnect tests (paper §2.6): routing over different
 * topologies, packet occupancies, delivery under load, and the
 * hot-potato behavior.
 */

#include <gtest/gtest.h>

#include <map>

#include "noc/network.h"
#include "sim/event_queue.h"

namespace piranha {
namespace {

struct Harness
{
    EventQueue eq;
    Network net{eq, "net"};
    std::map<NodeId, std::vector<NetPacket>> got;

    void
    nodes(unsigned n, unsigned channels = 4)
    {
        for (unsigned i = 0; i < n; ++i) {
            NodeId id = static_cast<NodeId>(i);
            net.addNode(id,
                        [this, id](const NetPacket &p) {
                            got[id].push_back(p);
                        },
                        channels);
        }
    }

    NetPacket
    pkt(NodeId src, NodeId dst, std::uint64_t id)
    {
        NetPacket p;
        p.type = NetMsgType::ReqS;
        p.addr = 0x1000;
        p.src = src;
        p.dst = dst;
        p.reqId = id;
        return p;
    }
};

TEST(Network, DeliversAcrossFullyConnected)
{
    Harness h;
    h.nodes(4);
    Network::buildFullyConnected(h.net);
    for (unsigned d = 1; d < 4; ++d)
        h.net.inject(h.pkt(0, static_cast<NodeId>(d), d));
    h.eq.run();
    for (unsigned d = 1; d < 4; ++d) {
        ASSERT_EQ(h.got[static_cast<NodeId>(d)].size(), 1u);
        EXPECT_EQ(h.got[static_cast<NodeId>(d)][0].reqId, d);
    }
    EXPECT_EQ(h.net.statHops.value(), 3.0); // direct links
}

TEST(Network, RingRoutesMultiHop)
{
    Harness h;
    h.nodes(6, 2); // ring uses 2 channels per node
    Network::buildRing(h.net);
    h.net.inject(h.pkt(0, 3, 7)); // 3 hops either way
    h.eq.run();
    ASSERT_EQ(h.got[3].size(), 1u);
    EXPECT_EQ(h.net.statHops.value(), 3.0);
}

TEST(Network, NoLossNoDuplicationUnderLoad)
{
    Harness h;
    h.nodes(4);
    Network::buildFullyConnected(h.net);
    const unsigned n = 500;
    for (unsigned i = 0; i < n; ++i) {
        NetPacket p = h.pkt(static_cast<NodeId>(i % 4),
                            static_cast<NodeId>((i + 1 + i / 4) % 4),
                            i);
        if (p.src == p.dst)
            p.dst = static_cast<NodeId>((p.dst + 1) % 4);
        p.hasData = (i % 3) == 0; // mix of short and long packets
        h.net.inject(p);
    }
    h.eq.run();
    std::size_t total = 0;
    std::map<std::uint64_t, int> seen;
    for (auto &[id, v] : h.got) {
        total += v.size();
        for (auto &p : v)
            seen[p.reqId]++;
    }
    EXPECT_EQ(total, n);
    for (auto &[id, count] : seen)
        EXPECT_EQ(count, 1) << "packet " << id;
}

TEST(Network, PacketOccupanciesMatchPaper)
{
    // Short packets: 2 interconnect cycles; long: 10 (§2.6.1).
    NetPacket s;
    EXPECT_EQ(s.icCycles(), 2u);
    s.hasData = true;
    EXPECT_EQ(s.icCycles(), 10u);
}

TEST(Network, ChannelLimitEnforced)
{
    Harness h;
    h.nodes(6, 4);
    // A 6-node full crossbar needs 5 channels per node: must refuse.
    EXPECT_DEATH(Network::buildFullyConnected(h.net), "channels");
}

TEST(Network, LongPacketsSlowerThanShort)
{
    Harness h1, h2;
    h1.nodes(2);
    Network::buildFullyConnected(h1.net);
    h2.nodes(2);
    Network::buildFullyConnected(h2.net);

    h1.net.inject(h1.pkt(0, 1, 1));
    h1.eq.run();
    Tick short_t = h1.eq.curTick();

    NetPacket p = h2.pkt(0, 1, 1);
    p.hasData = true;
    h2.net.inject(p);
    h2.eq.run();
    Tick long_t = h2.eq.curTick();
    EXPECT_GT(long_t, short_t);
}

/** A terminal delivery seen by a node: when, and from whom. */
struct Seen
{
    Tick tick;
    NodeId src;
    std::uint64_t reqId;
    bool operator==(const Seen &) const = default;
};

/** Nodes 0..n-1, fully connected, logging every delivery in order. */
struct OrderHarness : Harness
{
    std::vector<Seen> log;

    explicit OrderHarness(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            net.addNode(static_cast<NodeId>(i),
                        [this](const NetPacket &p) {
                            log.push_back({eq.curTick(), p.src, p.reqId});
                        });
        Network::buildFullyConnected(net);
    }

    /** Inject @p p at absolute tick @p when. */
    void
    injectAt(Tick when, NetPacket p)
    {
        eq.schedule(when, [this, p] { net.inject(p); });
    }
};

// Default NetworkParams in ticks: output queue 2 ns, link 10 ns, input
// queue 4 ns; a short packet holds its channel 1 ns, a long one 5 ns.
constexpr Tick oq = 2000, link = 10000, iq = 4000;
constexpr Tick shortOcc = 1000, longOcc = 5000;

TEST(Network, SameTickArrivalsContinueInSenderOrder)
{
    // Nodes 2 and 1 each send one hop to node 0 at tick 0, node 2
    // first. Both arrive at the same tick, and the bucket continues
    // them by sender id, not in the order their hops were computed.
    OrderHarness h(3);
    h.net.inject(h.pkt(2, 0, 20));
    h.net.inject(h.pkt(1, 0, 10));
    h.eq.run();
    Tick at = oq + shortOcc + link + iq;
    EXPECT_EQ(h.log, (std::vector<Seen>{{at, 1, 10}, {at, 2, 20}}));
}

TEST(Network, SameTickArrivalsContinueInSendTickOrder)
{
    // Node 2 sends a long packet at tick 0 and node 1 a short one 4 ns
    // later: both reach node 0 at the same tick. The earlier send goes
    // first although its sender id is higher.
    OrderHarness h(3);
    NetPacket early = h.pkt(2, 0, 20);
    early.hasData = true;
    h.net.inject(early);
    h.injectAt(longOcc - shortOcc, h.pkt(1, 0, 10));
    h.eq.run();
    Tick at = oq + longOcc + link + iq;
    EXPECT_EQ(h.log, (std::vector<Seen>{{at, 2, 20}, {at, 1, 10}}));
}

TEST(Network, EachStagedTickFlushesOnceInTickOrder)
{
    // Node 0 has arrivals staged for two ticks at once: two short
    // packets (nodes 1 and 2) for the earlier tick, and for the later
    // one a long packet (node 3) plus a short one node 1 sends 4 ns
    // after the rest. Each bucket is flushed exactly once, the earlier
    // first: 4 hops, 1 delayed injection, 2 flushes, 4 deliveries.
    OrderHarness h(4);
    h.net.inject(h.pkt(1, 0, 11));
    h.net.inject(h.pkt(2, 0, 20));
    NetPacket big = h.pkt(3, 0, 30);
    big.hasData = true;
    h.net.inject(big);
    h.injectAt(longOcc - shortOcc, h.pkt(1, 0, 12));
    h.eq.run();
    Tick first = oq + shortOcc + link + iq;
    Tick second = oq + longOcc + link + iq;
    EXPECT_EQ(h.log, (std::vector<Seen>{{first, 1, 11},
                                        {first, 2, 20},
                                        {second, 3, 30},
                                        {second, 1, 12}}));
    EXPECT_EQ(h.eq.executed(), 11u);
}

} // namespace
} // namespace piranha
