/**
 * @file
 * Shared test fixture: builds an N-node Piranha system and drives CPU
 * ports directly (no CPU timing model), with synchronous helpers for
 * protocol tests and asynchronous agents for the random tester.
 */

#ifndef PIRANHA_TESTS_TEST_SYSTEM_H
#define PIRANHA_TESTS_TEST_SYSTEM_H

#include <memory>
#include <vector>

#include "check/trace.h"
#include "sim/event_queue.h"
#include "system/chip.h"

namespace piranha {

class TestSystem
{
  public:
    explicit TestSystem(unsigned nodes = 1, unsigned cpus = 8,
                        ChipParams params = ChipParams{})
    {
        amap.numNodes = nodes;
        if (nodes > 1)
            net = std::make_unique<Network>(eq, "net");
        params.cpus = cpus;
        for (unsigned n = 0; n < nodes; ++n)
            chips.push_back(std::make_unique<PiranhaChip>(
                eq, strFormat("node%u", n), static_cast<NodeId>(n), amap,
                params, net.get()));
        if (net) {
            for (unsigned n = 0; n < nodes; ++n) {
                PiranhaChip *c = chips[n].get();
                net->addNode(static_cast<NodeId>(n),
                             [c](const NetPacket &p) {
                                 c->deliverNet(p);
                             });
            }
            Network::buildFullyConnected(*net);
        }
    }

    /** Synchronous load: run the system until the access completes. */
    std::uint64_t
    load(unsigned node, unsigned cpu, Addr addr, unsigned size = 8,
         FillSource *src_out = nullptr)
    {
        bool done = false;
        std::uint64_t value = 0;
        MemReq req;
        req.op = MemOp::Load;
        req.addr = addr;
        req.size = static_cast<std::uint8_t>(size);
        chips[node]->dl1(cpu).access(req, [&](const MemRsp &r) {
            value = r.value;
            if (src_out)
                *src_out = r.source;
            done = true;
        });
        waitFor(done);
        return value;
    }

    /** Synchronous ifetch. */
    std::uint64_t
    ifetch(unsigned node, unsigned cpu, Addr addr,
           FillSource *src_out = nullptr)
    {
        bool done = false;
        std::uint64_t value = 0;
        MemReq req;
        req.op = MemOp::Ifetch;
        req.addr = addr;
        req.size = 4;
        chips[node]->il1(cpu).access(req, [&](const MemRsp &r) {
            value = r.value;
            if (src_out)
                *src_out = r.source;
            done = true;
        });
        waitFor(done);
        return value;
    }

    /** Synchronous store (completes into the store buffer). */
    void
    store(unsigned node, unsigned cpu, Addr addr, std::uint64_t value,
          unsigned size = 8)
    {
        bool done = false;
        MemReq req;
        req.op = MemOp::Store;
        req.addr = addr;
        req.size = static_cast<std::uint8_t>(size);
        req.value = value;
        chips[node]->dl1(cpu).access(req,
                                     [&](const MemRsp &) { done = true; });
        waitFor(done);
    }

    /** Synchronous write-hint (wh64). */
    void
    wh64(unsigned node, unsigned cpu, Addr addr)
    {
        bool done = false;
        MemReq req;
        req.op = MemOp::Wh64;
        req.addr = addr;
        chips[node]->dl1(cpu).access(req,
                                     [&](const MemRsp &) { done = true; });
        waitFor(done);
    }

    /** Drain every pending event (store buffers, protocol, network). */
    void settle() { eq.run(); }

    void
    waitFor(bool &flag)
    {
        while (!flag) {
            if (!eq.step())
                panic("test system deadlock: event queue drained "
                      "while waiting");
        }
    }

    EventQueue eq;
    AddressMap amap;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<PiranhaChip>> chips;
};

/** An address homed at @p node (page-interleaved homes); @p line
 *  selects distinct lines within the chosen page. */
inline Addr
homedAt(const TestSystem &sys, unsigned node, unsigned line = 0)
{
    Addr a = 0x5000000 + line * lineBytes;
    while (sys.amap.home(a) != node)
        a += 1ULL << sys.amap.pageShift;
    return a;
}

/** Issue an access without waiting for completion. */
inline void
fire(TestSystem &sys, unsigned node, unsigned cpu, MemOp op, Addr a,
     std::uint64_t v, bool *done = nullptr)
{
    MemReq req;
    req.op = op;
    req.addr = a;
    req.size = 8;
    req.value = v;
    sys.chips[node]->dl1(cpu).access(req, [done](const MemRsp &) {
        if (done)
            *done = true;
    });
}

} // namespace piranha

#endif // PIRANHA_TESTS_TEST_SYSTEM_H
