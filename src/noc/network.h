/**
 * @file
 * System interconnect: output queue, router, input queue (paper §2.6).
 *
 * Each Piranha processing node has four channels (I/O nodes two) used
 * for point-to-point links of 22 wires per direction signaling at
 * 2 Gbit/s/wire (the interconnect clock is four times the 500 MHz
 * system clock; short packets occupy a channel for 2 interconnect
 * cycles, long packets for 10). The router is topology-independent,
 * adaptive, virtual cut-through, with a buffer pool shared across
 * lanes; "hot potato" routing with increasing age and priority lets a
 * non-optimally-routed message reach a free buffer anywhere in the
 * network, so per-node buffering grows linearly rather than
 * quadratically with node count.
 *
 * The model routes packets hop by hop over per-direction channels
 * with cut-through occupancy, misroutes to a random alternate
 * neighbor when the preferred channel's backlog exceeds a threshold
 * (until the packet's age forces the optimal path), gives transit
 * traffic priority over fresh injections at the OQ, and lets
 * low-priority traffic bypass blocked high-priority traffic at the
 * IQ, which dispatches by packet type through a disposition vector.
 *
 * Every channel traversal is staged at the next node under its
 * arrival tick, and each (node, tick) bucket is delivered by one
 * priority event in (send tick, sender, sender sequence) order. So
 * cross-chip arrivals at tick T run before any local event of tick T,
 * in an order that depends only on simulated history (DESIGN.md §13).
 *
 * The message path allocates nothing once warm: the output-queue,
 * flush and delivery steps are pooled events owned by the Network
 * that carry the packet, each bucket's flush event keeps its arrival
 * vector for reuse, and routes are flat per-node tables of channel
 * indices.
 */

#ifndef PIRANHA_NOC_NETWORK_H
#define PIRANHA_NOC_NETWORK_H

#include <functional>
#include <vector>

#include "noc/packet.h"
#include "sim/rng.h"
#include "sim/sim_object.h"
#include "stats/stats.h"

namespace piranha {

/** Interconnect configuration. */
struct NetworkParams
{
    double linkNs = 10.0;        //!< per-hop wire + synchronization
    double icClockMhz = 2000.0;  //!< interconnect clock (4x system)
    double oqNs = 2.0;           //!< output-queue fall-through
    double iqNs = 4.0;           //!< input-queue + packet switch
    unsigned misrouteThresholdIc = 8; //!< backlog (IC cycles) to misroute
    unsigned maxAge = 3;         //!< misroutes before forcing optimal
};

/** Delivery callback a node registers for terminal packets. */
using NetDeliverFn = std::function<void(const NetPacket &)>;

/** The whole-system interconnect fabric. */
class Network : public SimObject
{
  public:
    Network(EventQueue &eq, std::string name,
            const NetworkParams &p = NetworkParams{});

    /** Register @p node with its terminal delivery callback. */
    void addNode(NodeId node, NetDeliverFn deliver,
                 unsigned channels = 4);

    /** Add a bidirectional channel between @p a and @p b. */
    void connect(NodeId a, NodeId b);

    /** Compute shortest-path next-hop tables (call after connect). */
    void finalizeRoutes();

    /** Inject a packet from @p src's output queue. */
    void inject(NetPacket pkt);

    /**
     * Fault injection (src/fault/): inject() offers each packet to
     * the injector (drop / duplicate / delay); terminal delivery runs
     * a receiver-side filter that discards duplicate arrivals.
     */
    void setFaultInjector(FaultInjector *f) { _faults = f; }

    /** Convenience topology builders. */
    static void buildFullyConnected(Network &net);
    static void buildRing(Network &net);

    void regStats(StatGroup &parent);

    Scalar statPackets;
    Scalar statLongPackets;
    Scalar statHops;
    Scalar statMisroutes;
    Histogram statLatency{50.0, 64}; //!< end-to-end ns

  private:
    struct Channel
    {
        NodeId to;
        Tick busyUntil = 0;
    };

    /** One channel traversal, staged at its next node until the
     *  arrival tick (see hop()). */
    struct Arrival
    {
        Tick sendTick = 0;        //!< tick the hop was computed at
        NodeId src = 0;           //!< node that sent it
        std::uint64_t seq = 0;    //!< sender's hop sequence number
        Tick injected = 0;        //!< injection tick (latency stat)
        NetPacket pkt;
    };

    /** A packet leaving node `at`'s output queue for its first hop. */
    struct HopEvent final : public Event
    {
        explicit HopEvent(Network *n) : net(n) {}
        void process() override;
        const char *eventName() const override { return "net.hop"; }
        Network *net;
        NodeId at = 0;
        Tick injected = 0;
        NetPacket pkt;
    };

    /** A packet leaving node `at`'s input queue for its handler. */
    struct DeliverEvent final : public Event
    {
        explicit DeliverEvent(Network *n) : net(n) {}
        void process() override;
        const char *eventName() const override { return "net.deliver"; }
        Network *net;
        NodeId at = 0;
        NetPacket pkt;
    };

    /** The one priority flush of a (node, tick) bucket; it keeps its
     *  arrival vector across uses. */
    struct FlushEvent final : public Event
    {
        explicit FlushEvent(Network *n) : net(n) {}
        void process() override;
        const char *eventName() const override { return "net.flush"; }
        Network *net;
        NodeId at = 0;
        std::vector<Arrival> arrivals;
    };

    /** Route-table entry for a destination no channel reaches. */
    static constexpr std::uint8_t noRoute = 0xff;

    struct Node
    {
        bool present = false;
        NetDeliverFn deliver;
        unsigned maxChannels = 4;
        std::vector<Channel> channels;
        // per destination node id: index into channels of the next hop
        std::vector<std::uint8_t> route;
        // node-local misroute stream, so a node's routing choices do
        // not depend on how other nodes' hops interleave with its own
        Pcg32 rng{0x9142a4a, 42};
        std::uint64_t sendSeq = 0; //!< hops sent by this node
        // flushes scheduled for arrivals at this node, one per tick
        std::vector<FlushEvent *> staged;
    };

    Node &nodeAt(NodeId id);
    std::vector<NodeId> nodeIds() const;
    void hop(NetPacket &pkt, NodeId at, Tick injected);
    void flush(FlushEvent &ev);
    Tick icCycles(unsigned n) const;

    NetworkParams _p;
    // per-hop delays, converted to ticks once
    Tick _oqTicks, _iqTicks, _linkTicks, _misrouteTicks;
    Tick _shortTicks, _longTicks; //!< channel occupancy by packet size
    FaultInjector *_faults = nullptr;
    std::vector<Node> _nodes; //!< indexed by node id
    EventPool<HopEvent> _hopEvents;
    EventPool<DeliverEvent> _deliverEvents;
    EventPool<FlushEvent> _flushEvents;
    StatGroup _stats{"network"};
};

} // namespace piranha

#endif // PIRANHA_NOC_NETWORK_H
