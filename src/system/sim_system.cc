#include "system/sim_system.h"

#include <algorithm>
#include <sstream>

#include "sim/profiler.h"

#if PIRANHA_FAULT_INJECT
#include "fault/injector.h"
#endif

namespace piranha {

PiranhaSystem::PiranhaSystem(const SystemConfig &cfg) : _cfg(cfg)
{
    _amap.numNodes = cfg.nodes;
#if PIRANHA_FAULT_INJECT
    // The injector must exist before the chips: every L1/L2/MC/ICS
    // captures the pointer at construction.
    if (_cfg.faults.any()) {
        _injector = std::make_unique<FaultInjector>(_eq, "faults",
                                                    _cfg.faults,
                                                    _cfg.nodes);
        _cfg.chip.injector = _injector.get();
    }
#else
    if (_cfg.faults.any())
        warn("fault plan ignored: built with PIRANHA_FAULTS=OFF");
#endif
    if (cfg.nodes > 1)
        _net = std::make_unique<Network>(_eq, "net");
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        _chips.push_back(std::make_unique<PiranhaChip>(
            _eq, strFormat("node%u", n), static_cast<NodeId>(n), _amap,
            _cfg.chip, _net.get()));
    }
    if (_net) {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            PiranhaChip *c = _chips[n].get();
            _net->addNode(static_cast<NodeId>(n),
                          [c](const NetPacket &p) { c->deliverNet(p); });
        }
        if (cfg.nodes <= 5)
            Network::buildFullyConnected(*_net);
        else
            Network::buildRing(*_net);
        _net->regStats(_stats);
    }
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        _chips[n]->regStats(_stats);
        for (unsigned c = 0; c < cfg.cpusPerChip; ++c) {
            _cores.push_back(std::make_unique<Core>(
                _eq, strFormat("node%u.cpu%u", n, c),
                _chips[n]->clock(), _chips[n]->dl1(c),
                _chips[n]->il1(c), cfg.core));
            _cores.back()->regStats(_stats);
        }
    }
#if PIRANHA_FAULT_INJECT
    if (_injector) {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            PiranhaChip &c = *_chips[n];
            FaultInjector::NodeSites s;
            s.store = &c.memory();
            s.ics = &c.ics();
            for (unsigned b = 0; b < 8; ++b) {
                s.mcs.push_back(&c.mc(b));
                s.l2s.push_back(&c.l2(b));
            }
            for (unsigned cp = 0; cp < cfg.cpusPerChip; ++cp) {
                s.l1s.push_back(&c.dl1(cp));
                s.l1s.push_back(&c.il1(cp));
            }
            _injector->attachNode(n, std::move(s));
        }
        if (_net)
            _injector->attachNetwork(_net.get());
        _injector->arm();
    }
#endif
}

PiranhaSystem::~PiranhaSystem() = default;

std::string
PiranhaSystem::diagnosticDump(const std::string &why) const
{
    std::ostringstream os;
    os << "=== diagnostic dump @" << _eq.curTick() << "ps (" << why
       << ") ===\n";
    os << "events: executed=" << _eq.executed()
       << " pending=" << _eq.pending() << "\n";
    unsigned done = 0;
    for (const auto &core : _cores)
        if (core->done())
            ++done;
    os << "cores: " << done << "/" << _cores.size() << " done\n";
    for (unsigned n = 0; n < _cfg.nodes; ++n) {
        os << "node" << n << " ics queues:\n";
        _chips[n]->ics().debugDump(os);
        os << "node" << n << " busy L2 lines:\n";
        for (unsigned b = 0; b < 8; ++b)
            _chips[n]->l2(b).debugDump(os);
        os << "node" << n << " protocol engines:\n";
        _chips[n]->homeEngine().debugDump(os);
        _chips[n]->remoteEngine().debugDump(os);
    }
#if PIRANHA_FAULT_INJECT
    if (_injector) {
        os << "faults: fired=" << _injector->counters.fired;
        for (const FiredFault &f : _injector->fired())
            os << "\n  " << faultKindName(f.kind) << " @" << f.at
               << "ps node" << f.node << " " << f.site;
        os << "\n";
    }
#endif
    return os.str();
}

RunResult
PiranhaSystem::run(Workload &wl, std::uint64_t work_per_cpu,
                   Tick max_time, const std::function<bool()> &should_abort)
{
    unsigned ncpus = totalCpus();
    // The OOO parameters live in the cores; reset them in place with
    // the workload's ILP. Their stat groups move behind every other
    // child of the system group, in core order, so the stat tree
    // reads the same after any run.
    for (auto &core : _cores)
        core->detachStats(_stats);
    for (auto &core : _cores) {
        core->reset(wl.ilp());
        core->attachStats(_stats);
    }
    _streams.clear();
    for (unsigned i = 0; i < ncpus; ++i) {
        NodeId node = static_cast<NodeId>(i / _cfg.cpusPerChip);
        _streams.push_back(wl.makeStream(_eq, i, ncpus,
                                         work_per_cpu, node, _amap));
        _cores[i]->start(_streams[i].get());
    }

    Tick deadline = _eq.curTick() + max_time;
    std::uint64_t events_before = _eq.executed();
    prof::reset();
    bool aborted = false;
    std::uint64_t iter = 0;
    // Forward-progress watchdog (host-side: schedules nothing, reads
    // no simulated state until it trips, so enabling it cannot
    // perturb results). Progress = any instruction retiring anywhere;
    // the slowest legitimate gap is a few memory round trips, orders
    // of magnitude under the stall limit.
    const WatchdogConfig wd = _cfg.watchdog;
    bool wd_tripped = false;
    std::string wd_reason;
    std::string wd_dump;
    Tick wd_last_tick = _eq.curTick();
    double wd_last_instrs = -1.0;
    // Completion check: scanning every core per event is O(ncpus) on
    // the hottest loop in the simulator. Start each scan at the core
    // that most recently reported not-done — it almost always still
    // isn't, making the check O(1) amortized with the same stop point
    // (the loop still exits on the first iteration where all cores
    // are done).
    std::size_t watch = 0;
    for (;;) {
        PIR_PROF(Kernel);
        bool all_done = true;
        for (std::size_t i = 0; i < ncpus; ++i) {
            std::size_t j = watch + i < ncpus ? watch + i : watch + i - ncpus;
            if (!_cores[j]->done()) {
                watch = j;
                all_done = false;
                break;
            }
        }
        if (all_done)
            break;
        if (_eq.curTick() >= deadline) {
            warn("run hit max_time before completing work");
            wd_dump = diagnosticDump("max_time");
            aborted = true;
            break;
        }
#if PIRANHA_FAULT_INJECT
        // A machine check is a clean detected-error teardown: stop at
        // the next event boundary with the cause recorded.
        if (_injector && _injector->machineCheck()) {
            aborted = true;
            break;
        }
#endif
        ++iter;
        // Poll the host-side abort hook sparsely; a syscall-backed
        // check (clock read) every event would dominate runtime.
        if (should_abort && (iter & 0xFFF) == 0 && should_abort()) {
            aborted = true;
            break;
        }
        if (wd.enabled && (iter & 0xFFF) == 0) {
            double instrs = 0;
            for (const auto &core : _cores)
                instrs += core->statInstrs.value();
            if (instrs != wd_last_instrs) {
                wd_last_instrs = instrs;
                wd_last_tick = _eq.curTick();
            } else if (_eq.curTick() - wd_last_tick >= wd.stallLimit) {
                wd_tripped = true;
                wd_reason = strFormat(
                    "no instruction retired for %llu ps",
                    static_cast<unsigned long long>(
                        _eq.curTick() - wd_last_tick));
                break;
            }
        }
        if (!_eq.step()) {
            // The queue drained with cores unfinished: nothing can ever
            // advance architectural state again. A lost message (fault
            // injection or protocol bug) wedged the system.
            if (wd.enabled) {
                wd_tripped = true;
                wd_reason = "event queue drained with unfinished cores";
            }
            break;
        }
    }
    if (wd_tripped) {
        aborted = true;
        wd_dump = diagnosticDump("watchdog: " + wd_reason);
        warn("forward-progress watchdog tripped: %s",
             wd_reason.c_str());
    }
    RunResult r;
    r.config = _cfg.name;
    r.workload = wl.name();
    r.aborted = aborted;
    r.watchdogTripped = wd_tripped;
    r.watchdogReason = std::move(wd_reason);
    r.watchdogDump = std::move(wd_dump);
#if PIRANHA_FAULT_INJECT
    if (_injector) {
        r.faults = _injector->counters;
        r.firedFaults = _injector->fired();
        r.machineCheck = _injector->machineCheck();
        r.machineCheckReason = _injector->machineCheckReason();
    }
#endif
    r.eventsExecuted = _eq.executed() - events_before;
    double busy = 0, hit = 0, miss = 0, idle = 0;
    for (unsigned i = 0; i < ncpus; ++i) {
        r.execTime = std::max(r.execTime, _cores[i]->accountedTime());
        r.work += _streams[i]->workDone();
        busy += _cores[i]->statBusy.value();
        hit += _cores[i]->statL2HitStall.value();
        miss += _cores[i]->statL2MissStall.value();
        idle += _cores[i]->statIdle.value();
        r.instructions += _cores[i]->statInstrs.value();
        r.fastInlineHits += _cores[i]->inlineHits;
    }
    r.l1FastHits = r.fastInlineHits;
    r.profile = prof::snapshot();
    double total = busy + hit + miss + idle;
    if (total > 0) {
        r.busyFrac = busy / total;
        r.l2HitStallFrac = hit / total;
        r.l2MissStallFrac = miss / total;
        r.idleFrac = idle / total;
    }
    double page_hits = 0, page_misses = 0;
    for (auto &chip : _chips) {
        auto mb = chip->missBreakdown();
        r.misses.l2Hit += mb.l2Hit;
        r.misses.l2Fwd += mb.l2Fwd;
        r.misses.memLocal += mb.memLocal;
        r.misses.memRemote += mb.memRemote;
        r.misses.remoteDirty += mb.remoteDirty;
        for (unsigned b = 0; b < 8; ++b) {
            page_hits += chip->mc(b).channel().statPageHits.value();
            page_misses += chip->mc(b).channel().statPageMisses.value();
        }
    }
    if (page_hits + page_misses > 0)
        r.rdramPageHitRate = page_hits / (page_hits + page_misses);
    return r;
}

} // namespace piranha
