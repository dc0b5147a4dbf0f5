#include "noc/network.h"

#include <algorithm>
#include <deque>

#if PIRANHA_FAULT_INJECT
#include "fault/injector.h"
#endif

namespace piranha {

Network::Network(EventQueue &eq, std::string name, const NetworkParams &p)
    : SimObject(eq, std::move(name)), _p(p)
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

void
Network::addNode(NodeId node, NetDeliverFn deliver, unsigned channels)
{
    Node &n = _nodes[node];
    n.deliver = std::move(deliver);
    n.maxChannels = channels;
    n.rng = Pcg32{0x9142a4a, 42 + std::uint64_t(node)};
}

void
Network::connect(NodeId a, NodeId b)
{
    Node &na = _nodes.at(a);
    Node &nb = _nodes.at(b);
    if (na.channels.size() >= na.maxChannels ||
        nb.channels.size() >= nb.maxChannels)
        fatal("node %u or %u out of interconnect channels", a, b);
    na.channels.push_back(Channel{b});
    nb.channels.push_back(Channel{a});
}

void
Network::finalizeRoutes()
{
    // BFS from every node over the channel graph.
    for (auto &[id, node] : _nodes) {
        node.nextHop.clear();
        std::deque<NodeId> frontier{id};
        std::unordered_map<NodeId, NodeId> first; // dest -> first hop
        std::unordered_map<NodeId, bool> seen;
        seen[id] = true;
        while (!frontier.empty()) {
            NodeId cur = frontier.front();
            frontier.pop_front();
            for (const Channel &c : _nodes.at(cur).channels) {
                if (seen[c.to])
                    continue;
                seen[c.to] = true;
                first[c.to] = cur == id ? c.to : first[cur];
                frontier.push_back(c.to);
            }
        }
        node.nextHop = std::move(first);
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
    NodeId src = pkt.src;
    ++statPackets;
    if (pkt.isLong())
        ++statLongPackets;
    Tick injected = curTick();
    // Output-queue fall-through (single cycle when the router is
    // ready; transit traffic has priority, modeled in channel
    // backlog).
    eventQueue().schedule(
        injected + nsToTicks(_p.oqNs),
        [this, pkt = std::move(pkt), src, injected]() mutable {
            hop(std::move(pkt), src, injected);
        });
}

void
Network::hop(NetPacket pkt, NodeId at, Tick injected)
{
    Node &node = _nodes.at(at);
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
        eventQueue().schedule(now + nsToTicks(_p.iqNs),
                              [fn = node.deliver, pkt = std::move(pkt)] {
                                  fn(pkt);
                              });
        return;
    }
    auto rit = node.nextHop.find(pkt.dst);
    if (rit == node.nextHop.end())
        panic("network: no route %u -> %u", at, pkt.dst);
    NodeId preferred = rit->second;

    Channel *chan = nullptr;
    for (Channel &c : node.channels)
        if (c.to == preferred)
            chan = &c;
    if (!chan)
        panic("network: next hop %u not a neighbor of %u", preferred,
              at);

    Tick backlog = chan->busyUntil > now ? chan->busyUntil - now : 0;
    if (backlog > icCycles(_p.misrouteThresholdIc) &&
        pkt.age < _p.maxAge && node.channels.size() > 1) {
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
    Tick occupancy = icCycles(pkt.icCycles());
    chan->busyUntil = start + occupancy;
    Tick arrive = start + occupancy + nsToTicks(_p.linkNs);
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
    std::vector<Arrival> &bucket = _nodes.at(to).staged[arrive];
    if (bucket.empty())
        eventQueue().schedulePriority(
            arrive, [this, to, arrive] { flush(to, arrive); });
    bucket.push_back(
        Arrival{now, at, node.sendSeq++, injected, std::move(pkt)});
}

void
Network::flush(NodeId at, Tick when)
{
    auto &staged = _nodes.at(at).staged;
    auto it = staged.find(when);
    std::vector<Arrival> arrivals = std::move(it->second);
    staged.erase(it);
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  if (a.sendTick != b.sendTick)
                      return a.sendTick < b.sendTick;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Arrival &a : arrivals)
        hop(std::move(a.pkt), at, a.injected);
}

void
Network::buildFullyConnected(Network &net)
{
    std::vector<NodeId> ids;
    for (const auto &[id, _] : net._nodes)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i)
        for (std::size_t j = i + 1; j < ids.size(); ++j)
            net.connect(ids[i], ids[j]);
    net.finalizeRoutes();
}

void
Network::buildRing(Network &net)
{
    std::vector<NodeId> ids;
    for (const auto &[id, _] : net._nodes)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
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
