#include "noc/network.h"

#include <algorithm>
#include <deque>

#if PIRANHA_FAULT_INJECT
#include "fault/injector.h"
#endif

namespace piranha {

namespace {

/** Channel occupancy, in interconnect cycles, of a short or long
 *  packet. */
unsigned
occupancyIc(bool long_packet)
{
    NetPacket p;
    p.hasData = long_packet;
    return p.icCycles();
}

} // namespace

Network::Network(EventQueue &eq, std::string name, const NetworkParams &p)
    : SimObject(eq, std::move(name)), _p(p),
      _oqTicks(nsToTicks(p.oqNs)), _iqTicks(nsToTicks(p.iqNs)),
      _linkTicks(nsToTicks(p.linkNs)),
      _misrouteTicks(icCycles(p.misrouteThresholdIc)),
      _shortTicks(icCycles(occupancyIc(false))),
      _longTicks(icCycles(occupancyIc(true)))
{
}

void
Network::regStats(StatGroup &parent)
{
    _stats.addScalar("packets", &statPackets, "packets injected");
    _stats.addScalar("long_packets", &statLongPackets,
                     "packets carrying a 64B data section");
    _stats.addScalar("hops", &statHops, "total channel traversals");
    _stats.addScalar("misroutes", &statMisroutes,
                     "hot-potato non-optimal hops");
    _stats.addHistogram("latency_ns", &statLatency,
                        "end-to-end packet latency");
    parent.addChild(&_stats);
}

Tick
Network::icCycles(unsigned n) const
{
    return static_cast<Tick>(n * 1e6 / _p.icClockMhz);
}

Network::Node &
Network::nodeAt(NodeId id)
{
    if (id >= _nodes.size() || !_nodes[id].present)
        panic("network: no node %u", id);
    return _nodes[id];
}

std::vector<NodeId>
Network::nodeIds() const
{
    std::vector<NodeId> ids;
    for (std::size_t id = 0; id < _nodes.size(); ++id)
        if (_nodes[id].present)
            ids.push_back(static_cast<NodeId>(id));
    return ids;
}

void
Network::addNode(NodeId node, NetDeliverFn deliver, unsigned channels)
{
    if (channels >= noRoute)
        fatal("node %u: %u interconnect channels exceed the route "
              "table's %u", node, channels, noRoute - 1u);
    if (node >= _nodes.size())
        _nodes.resize(std::size_t(node) + 1);
    Node &n = _nodes[node];
    n.present = true;
    n.deliver = std::move(deliver);
    n.maxChannels = channels;
    n.rng = Pcg32{0x9142a4a, 42 + std::uint64_t(node)};
}

void
Network::connect(NodeId a, NodeId b)
{
    Node &na = nodeAt(a);
    Node &nb = nodeAt(b);
    if (na.channels.size() >= na.maxChannels ||
        nb.channels.size() >= nb.maxChannels)
        fatal("node %u or %u out of interconnect channels", a, b);
    na.channels.push_back(Channel{b});
    nb.channels.push_back(Channel{a});
}

void
Network::finalizeRoutes()
{
    // BFS from every node over the channel graph; a destination's
    // route is the channel to the first hop on its shortest path (the
    // last channel to that neighbour, should two connect the pair).
    std::vector<NodeId> ids = nodeIds();
    std::vector<NodeId> first(_nodes.size());
    std::vector<bool> seen(_nodes.size());
    for (NodeId id : ids) {
        Node &n = _nodes[id];
        std::fill(seen.begin(), seen.end(), false);
        seen[id] = true;
        std::deque<NodeId> frontier{id};
        n.route.assign(_nodes.size(), noRoute);
        while (!frontier.empty()) {
            NodeId cur = frontier.front();
            frontier.pop_front();
            for (const Channel &c : _nodes[cur].channels) {
                if (seen[c.to])
                    continue;
                seen[c.to] = true;
                first[c.to] = cur == id ? c.to : first[cur];
                frontier.push_back(c.to);
                for (std::size_t ci = 0; ci < n.channels.size(); ++ci)
                    if (n.channels[ci].to == first[c.to])
                        n.route[c.to] = static_cast<std::uint8_t>(ci);
            }
        }
    }
}

void
Network::inject(NetPacket pkt)
{
#if PIRANHA_FAULT_INJECT
    // Armed inter-chip faults consume the next injection: drop (the
    // injector re-injects after its retry timeout, modeling the
    // protocol's timeout-and-retry), duplicate (tagged copy follows;
    // the receive filter below discards the second arrival), or delay.
    if (_faults && !_faults->netInjectHook(*this, pkt))
        return;
#endif
    nodeAt(pkt.src); // panics on an unknown sender
    ++statPackets;
    if (pkt.isLong())
        ++statLongPackets;
    // Output-queue fall-through (single cycle when the router is
    // ready; transit traffic has priority, modeled in channel
    // backlog).
    HopEvent *ev = _hopEvents.acquire(this);
    ev->at = pkt.src;
    ev->injected = curTick();
    ev->pkt = std::move(pkt);
    eventQueue().schedule(*ev, ev->injected + _oqTicks);
}

void
Network::HopEvent::process()
{
    net->hop(pkt, at, injected);
    net->_hopEvents.release(this);
}

void
Network::DeliverEvent::process()
{
    net->_nodes[at].deliver(pkt);
    net->_deliverEvents.release(this);
}

void
Network::FlushEvent::process()
{
    net->flush(*this);
}

void
Network::hop(NetPacket &pkt, NodeId at, Tick injected)
{
    Node &node = _nodes[at];
    Tick now = curTick();
    if (pkt.dst == at) {
#if PIRANHA_FAULT_INJECT
        // Receiver-side duplicate filter: hardware interfaces drop a
        // packet whose sequence number was already accepted.
        if (_faults && pkt.faultSeq &&
            !_faults->netDeliverFilter(pkt))
            return;
#endif
        // Input queue: interpret the type field through the
        // disposition vector and hand to the target module.
        statLatency.sample(static_cast<double>(now - injected) /
                           static_cast<double>(ticksPerNs));
        DeliverEvent *ev = _deliverEvents.acquire(this);
        ev->at = at;
        ev->pkt = std::move(pkt);
        eventQueue().schedule(*ev, now + _iqTicks);
        return;
    }
    std::uint8_t ci =
        pkt.dst < node.route.size() ? node.route[pkt.dst] : noRoute;
    if (ci == noRoute)
        panic("network: no route %u -> %u", at, pkt.dst);
    Channel *chan = &node.channels[ci];
    NodeId preferred = chan->to;

    Tick backlog = chan->busyUntil > now ? chan->busyUntil - now : 0;
    if (backlog > _misrouteTicks && pkt.age < _p.maxAge &&
        node.channels.size() > 1) {
        // Hot potato: deflect to a random alternate channel with a
        // shorter backlog; the age field escalates priority so the
        // packet eventually takes the optimal path.
        Channel &alt = node.channels[node.rng.below(
            static_cast<std::uint32_t>(node.channels.size()))];
        if (alt.to != preferred && alt.busyUntil < chan->busyUntil) {
            ++statMisroutes;
            ++pkt.age;
            chan = &alt;
        }
    }

    Tick start = std::max(now, chan->busyUntil);
    Tick occupancy = pkt.isLong() ? _longTicks : _shortTicks;
    chan->busyUntil = start + occupancy;
    Tick arrive = start + occupancy + _linkTicks;
    ++statHops;

    // Stage the traversal at the next node under its arrival tick; the
    // bucket's first arrival schedules the one flush that delivers
    // them all. A traversal always takes its channel occupancy plus
    // the link flight time, so an arrival that is not in the future
    // is a bug.
    if (arrive <= now)
        panic("network: hop %u -> %u arrives at %llu, not after %llu",
              at, chan->to, static_cast<unsigned long long>(arrive),
              static_cast<unsigned long long>(now));
    NodeId to = chan->to;
    std::vector<FlushEvent *> &staged = _nodes[to].staged;
    FlushEvent *bucket = nullptr;
    for (FlushEvent *f : staged)
        if (f->when() == arrive)
            bucket = f;
    if (!bucket) {
        bucket = _flushEvents.acquire(this);
        bucket->at = to;
        staged.push_back(bucket);
        eventQueue().schedulePriority(*bucket, arrive);
    }
    bucket->arrivals.push_back(
        Arrival{now, at, node.sendSeq++, injected, std::move(pkt)});
}

void
Network::flush(FlushEvent &ev)
{
    // Unlist the bucket first: its hops stage only at later ticks, so
    // nothing joins it, and it stays out of the pool until they are
    // done with its arrivals.
    std::vector<FlushEvent *> &staged = _nodes[ev.at].staged;
    staged.erase(std::find(staged.begin(), staged.end(), &ev));
    std::vector<Arrival> &arrivals = ev.arrivals;
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  if (a.sendTick != b.sendTick)
                      return a.sendTick < b.sendTick;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Arrival &a : arrivals)
        hop(a.pkt, ev.at, a.injected);
    arrivals.clear();
    _flushEvents.release(&ev);
}

void
Network::buildFullyConnected(Network &net)
{
    std::vector<NodeId> ids = net.nodeIds();
    for (std::size_t i = 0; i < ids.size(); ++i)
        for (std::size_t j = i + 1; j < ids.size(); ++j)
            net.connect(ids[i], ids[j]);
    net.finalizeRoutes();
}

void
Network::buildRing(Network &net)
{
    std::vector<NodeId> ids = net.nodeIds();
    if (ids.size() < 2)
        return;
    if (ids.size() == 2) {
        net.connect(ids[0], ids[1]);
    } else {
        for (std::size_t i = 0; i < ids.size(); ++i)
            net.connect(ids[i], ids[(i + 1) % ids.size()]);
    }
    net.finalizeRoutes();
}

} // namespace piranha
