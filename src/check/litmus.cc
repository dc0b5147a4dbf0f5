#include "check/litmus.h"

#include <algorithm>
#include <memory>

#include "sim/logging.h"
#include "sim/rng.h"
#include "system/chip.h"

namespace piranha {

namespace {

/** Per-thread issue state for the delayed-op driver. */
struct ThreadCtx
{
    Pcg32 rng;
    std::size_t next = 0;
    bool done = false;
};

/** Simulated-time cap per phase: bounds livelock under seeded faults. */
constexpr Tick runCapTicks = 500'000'000; // 0.5 ms at 1 ps/tick

} // namespace

LitmusResult
runLitmus(const LitmusProgram &prog, const LitmusRunOptions &opt)
{
    LitmusResult res;

    FaultState faults;
    faults.kind = opt.fault;

    // One event queue and one tracer for the whole system: the ring's
    // order is the exact global execution order.
    EventQueue eq;
    CoherenceTracer tracer(opt.traceCapacity);

    AddressMap amap;
    amap.numNodes = prog.nodes;
    std::unique_ptr<Network> net;
    if (prog.nodes > 1)
        net = std::make_unique<Network>(eq, "net");

    ChipParams params;
    params.cpus = prog.cpusPerChip;
    params.faults = &faults;
    params.tracer = &tracer;
    std::vector<std::unique_ptr<PiranhaChip>> chips;
    for (unsigned n = 0; n < prog.nodes; ++n) {
        chips.push_back(std::make_unique<PiranhaChip>(
            eq, strFormat("node%u", n), static_cast<NodeId>(n), amap,
            params, net.get()));
    }
    if (net) {
        for (unsigned n = 0; n < prog.nodes; ++n) {
            PiranhaChip *c = chips[n].get();
            net->addNode(static_cast<NodeId>(n),
                         [c](const NetPacket &p) { c->deliverNet(p); });
        }
        Network::buildFullyConnected(*net);
    }

    // Materialize each logical line in its own page so line i can be
    // homed at node (i % nodes) regardless of the interleaving.
    unsigned maxLine = 0;
    for (const auto &l : prog.locs)
        maxLine = std::max(maxLine, l.line);
    std::vector<Addr> lineAddr(maxLine + 1);
    Addr page = 0x3000000;
    const Addr pageStep = Addr(1) << amap.pageShift;
    for (unsigned i = 0; i <= maxLine; ++i) {
        while (amap.home(page) != NodeId(i % prog.nodes))
            page += pageStep;
        lineAddr[i] = page;
        page += pageStep;
    }
    std::vector<Addr> locAddr(prog.locs.size());
    for (std::size_t l = 0; l < prog.locs.size(); ++l)
        locAddr[l] = lineAddr[prog.locs[l].line] + prog.locs[l].offset;

    // Declare the initial contents of every slot of every used line so
    // the checker has a complete candidate-write base.
    for (unsigned i = 0; i <= maxLine; ++i) {
        for (unsigned off = 0; off < lineBytes; off += 8) {
            Addr a = lineAddr[i] + off;
            std::uint64_t v = 0;
            for (std::size_t l = 0; l < prog.locs.size(); ++l)
                if (locAddr[l] == a && l < prog.init.size())
                    v = prog.init[l];
            if (v)
                chips[amap.home(a)]->memory().poke64(a, v);
            tracer.init(a, 8, v);
        }
    }

    // Drive every thread: ops in program order, seeded-random gaps.
    res.outcome.loads.resize(prog.threads.size());
    std::vector<ThreadCtx> ctx(prog.threads.size());
    const Tick period = chips[0]->clock().period();
    auto gap = [&](std::size_t t) {
        return Tick(ctx[t].rng.below(opt.maxDelayCycles + 1)) * period;
    };

    std::function<void(std::size_t)> issueNext = [&](std::size_t t) {
        ThreadCtx &c = ctx[t];
        const LitmusThread &th = prog.threads[t];
        if (c.next == th.ops.size()) {
            c.done = true;
            return;
        }
        const LitmusOp &op = th.ops[c.next++];
        MemReq req;
        req.op = op.op;
        req.addr = locAddr[op.loc];
        req.size = static_cast<std::uint8_t>(op.size);
        req.value = op.value;
        bool is_load = op.op == MemOp::Load;
        chips[th.node]->dl1(th.cpu).access(
            req, [&, t, is_load](const MemRsp &r) {
                if (is_load)
                    res.outcome.loads[t].push_back(r.value);
                eq.scheduleIn(gap(t), [&, t] { issueNext(t); });
            });
    };
    for (std::size_t t = 0; t < prog.threads.size(); ++t) {
        ctx[t].rng = Pcg32(opt.seed, 0x9e3779b9u + t);
        eq.scheduleIn(gap(t), [&, t] { issueNext(t); });
    }

    bool drained = eq.run(eq.curTick() + runCapTicks);
    bool all_done = drained;
    for (const auto &c : ctx)
        all_done = all_done && c.done;

    // Everything has settled: every cached copy must now be current.
    tracer.mark(eq.curTick(), markerSettled);

    // Read the final state back through every CPU so the settled-
    // recency axiom covers each cache, not just the last writer's.
    res.outcome.final.assign(prog.locs.size(), 0);
    bool reads_ok = all_done;
    for (std::size_t l = 0; l < prog.locs.size() && reads_ok; ++l) {
        for (unsigned n = 0; n < prog.nodes && reads_ok; ++n) {
            for (unsigned cpu = 0; cpu < prog.cpusPerChip; ++cpu) {
                bool done = false;
                std::uint64_t v = 0;
                MemReq req;
                req.addr = locAddr[l];
                chips[n]->dl1(cpu).access(req, [&](const MemRsp &r) {
                    v = r.value;
                    done = true;
                });
                std::uint64_t budget = 2'000'000;
                while (!done && budget-- && eq.step()) {
                }
                if (!done) {
                    reads_ok = false;
                    break;
                }
                res.outcome.final[l] = v;
            }
        }
    }
    eq.run(eq.curTick() + runCapTicks);

    res.completed = all_done && reads_ok;
    res.trace = tracer.events();
    res.report = checkCoherence(res.trace, tracer.dropped());
    res.faultFires = faults.fires;
    if (prog.forbidden && res.completed)
        res.forbiddenHit = prog.forbidden(res.outcome);
    return res;
}

const std::vector<LitmusProgram> &
builtinLitmusPrograms()
{
    static const std::vector<LitmusProgram> progs = [] {
        std::vector<LitmusProgram> v;

        {
            LitmusProgram p;
            p.name = "corr-1node";
            p.nodes = 1;
            p.cpusPerChip = 2;
            p.locs = {{0, 0}};
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 1}}},
                {0, 1, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.loads[1][0] == 1 && o.loads[1][1] == 0;
            };
            p.forbiddenDesc = "reader sees x=1 then x=0 (CoRR)";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "corr-fanout";
            p.nodes = 1;
            p.cpusPerChip = 4;
            p.locs = {{0, 0}};
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 1}}},
                {0, 1, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
                {0, 2, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
                {0, 3, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                for (std::size_t t = 1; t < o.loads.size(); ++t)
                    if (o.loads[t][0] == 1 && o.loads[t][1] == 0)
                        return true;
                return false;
            };
            p.forbiddenDesc = "any reader sees x=1 then x=0 (CoRR)";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "corr-2node";
            p.nodes = 2;
            p.cpusPerChip = 1;
            p.locs = {{0, 0}};
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 1}}},
                {1, 0, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.loads[1][0] == 1 && o.loads[1][1] == 0;
            };
            p.forbiddenDesc = "remote reader sees x=1 then x=0 (CoRR)";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "corr-3node";
            p.nodes = 3;
            p.cpusPerChip = 1;
            p.locs = {{1, 0}}; // homed at node 1; writer is remote
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 1}}},
                {1, 0, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
                {2, 0, {{MemOp::Load, 0}, {MemOp::Load, 0}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                for (std::size_t t = 1; t < o.loads.size(); ++t)
                    if (o.loads[t][0] == 1 && o.loads[t][1] == 0)
                        return true;
                return false;
            };
            p.forbiddenDesc = "any reader sees x=1 then x=0 (CoRR)";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "coww-final";
            p.nodes = 2;
            p.cpusPerChip = 1;
            p.locs = {{0, 0}};
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 1}, {MemOp::Store, 0, 2}}},
                {1, 0, {{MemOp::Store, 0, 3}, {MemOp::Store, 0, 4}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.final[0] != 2 && o.final[0] != 4;
            };
            p.forbiddenDesc =
                "final x is not the last store of either thread (CoWW)";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "cowr-own";
            p.nodes = 2;
            p.cpusPerChip = 1;
            p.locs = {{0, 0}, {1, 0}}; // distinct lines, distinct homes
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 1}, {MemOp::Load, 0}}},
                {1, 0, {{MemOp::Store, 1, 5}, {MemOp::Load, 1}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.loads[0][0] != 1 || o.loads[1][0] != 5;
            };
            p.forbiddenDesc = "sole writer fails to read own store (CoWR)";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "lost-update-slots";
            p.nodes = 2;
            p.cpusPerChip = 1;
            p.locs = {{0, 0}, {0, 8}}; // same line, adjacent slots
            p.threads = {
                {0, 0, {{MemOp::Store, 0, 0xA}}},
                {1, 0, {{MemOp::Store, 1, 0xB}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.final[0] != 0xA || o.final[1] != 0xB;
            };
            p.forbiddenDesc =
                "a slot store is lost under ownership migration";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "sb-migration";
            p.nodes = 2;
            p.cpusPerChip = 1;
            p.locs = {{0, 0}, {0, 8}}; // line homed at node 0
            p.threads = {
                // Remote writer: back-to-back stores to one slot must
                // coalesce/drain correctly while the line migrates.
                {1, 0,
                 {{MemOp::Store, 0, 1},
                  {MemOp::Store, 0, 2},
                  {MemOp::Load, 0}}},
                {0, 0, {{MemOp::Store, 1, 7}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.loads[0][0] != 2 || o.final[0] != 2 ||
                       o.final[1] != 7;
            };
            p.forbiddenDesc =
                "store-buffer entry lost or misordered across migration";
            v.push_back(std::move(p));
        }
        {
            LitmusProgram p;
            p.name = "corw";
            p.nodes = 2;
            p.cpusPerChip = 1;
            p.locs = {{0, 0}};
            p.threads = {
                {0, 0, {{MemOp::Load, 0}, {MemOp::Store, 0, 1}}},
                {1, 0, {{MemOp::Store, 0, 2}}},
            };
            p.forbidden = [](const LitmusOutcome &o) {
                return o.loads[0][0] == 1 ||
                       (o.final[0] != 1 && o.final[0] != 2);
            };
            p.forbiddenDesc =
                "load observes the thread's own later store (CoRW)";
            v.push_back(std::move(p));
        }

        return v;
    }();
    return progs;
}

} // namespace piranha
