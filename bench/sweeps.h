/**
 * @file
 * The named experiment sweeps that sweep_main runs (`sweep_main
 * --list`). Each paper figure or claim is one entry that owns its grid
 * and a render printing the measured table next to the paper's values.
 * Kept in a header so the behaviour fingerprint test
 * (tests/fingerprint_test.cc) pins exactly the grids the driver runs.
 *
 * Renders read only what a job result carries through the JSON round
 * trip (flat stats and the stat tree), so they print the same table on
 * the thread and process tiers and after --resume.
 */

#ifndef PIRANHA_BENCH_SWEEPS_H
#define PIRANHA_BENCH_SWEEPS_H

#include <ostream>

#include "check/trace.h"
#include "core/piranha.h"

namespace piranha {

/** Total OLTP transactions per single-chip run (the paper measured
 *  500 after warm-up; we run more and let cold-start amortize). */
inline constexpr std::uint64_t kOltpTotalTxns = 1600;
/** Total DSS scan chunks per single-chip run. */
inline constexpr std::uint64_t kDssTotalChunks = 64;

/** Simulated picoseconds to milliseconds. */
inline double
ms(double ps)
{
    return ps * 1e-9;
}

inline std::unique_ptr<Workload>
makeOltp()
{
    return std::make_unique<OltpWorkload>();
}

inline std::unique_ptr<Workload>
makeDss()
{
    return std::make_unique<DssWorkload>();
}

/** Flat stat @p key of job @p label. */
inline double
jobStat(const SweepReport &r, const std::string &label, const char *key)
{
    return r.job(label)->stats.at(key);
}

/** Execution time of @p a over that of @p b. */
inline double
timeRatio(const SweepReport &r, const std::string &a, const std::string &b)
{
    return jobStat(r, a, "exec_time_ps") / jobStat(r, b, "exec_time_ps");
}

/** Percentages of a job's L1 misses served by the L2, by another L1
 *  (fwd), by memory, and by remote memory or a remote owner. */
struct MissShares
{
    double l2, fwd, mem, remote;
};

inline MissShares
missShares(const SweepReport &r, const std::string &label)
{
    const std::map<std::string, double> &s = r.job(label)->stats;
    double remote = s.at("miss_mem_remote") + s.at("miss_remote_dirty");
    double tot = s.at("miss_l2_hit") + s.at("miss_l2_fwd") +
                 s.at("miss_mem_local") + remote;
    return {100 * s.at("miss_l2_hit") / tot,
            100 * s.at("miss_l2_fwd") / tot,
            100 * (s.at("miss_mem_local") + remote) / tot,
            100 * remote / tot};
}

/** Fig. 5-style breakdown of @p configs under workload @p wl, with
 *  execution time normalized to config @p base. */
inline void
printBreakdown(const SweepReport &r, std::ostream &os,
               const std::vector<std::string> &configs,
               const std::string &wl, const std::string &base)
{
    os << "-- " << r.job(base + "/" + wl)->run.workload << " --\n";
    TextTable t({"Config", "NormTime", "CPU busy", "L2 hit stall",
                 "L2 miss stall", "Other/idle"});
    for (const std::string &c : configs) {
        std::string label = c + "/" + wl;
        auto pct = [&](const char *key) {
            return TextTable::fmt(100 * jobStat(r, label, key), 1) + "%";
        };
        t.addRow({c, TextTable::fmt(timeRatio(r, label, base + "/" + wl), 2),
                  pct("busy_frac"), pct("l2_hit_stall_frac"),
                  pct("l2_miss_stall_frac"), pct("idle_frac")});
    }
    t.print(os);
}

/** Sum of every scalar named @p key anywhere in stat tree @p g. */
inline double
sumScalar(const JsonValue &g, const std::string &key)
{
    double sum = 0;
    if (const JsonValue *s = g.find("scalars"))
        if (const JsonValue *v = s->find(key))
            sum += v->asNumber();
    if (const JsonValue *c = g.find("children"))
        for (const JsonValue &child : c->items())
            sum += sumScalar(child, key);
    return sum;
}

// ---------------------------------------------------------------------
// Figure 5: single-chip Piranha (P8) vs the 1 GHz OOO, the INO and P1.

inline SweepSpec
sweepFig5()
{
    SweepSpec s("fig5");
    s.addConfig(configP1())
        .addConfig(configINO())
        .addConfig(configOOO())
        .addConfig(configP8())
        .addWorkload("OLTP", makeOltp, kOltpTotalTxns)
        .addWorkload("DSS", makeDss, kDssTotalChunks);
    return s;
}

inline void
renderFig5(const SweepReport &r, std::ostream &os)
{
    const std::vector<std::string> cfgs = {"P1", "INO", "OOO", "P8"};
    const char *paper[] = {"P1=2.33  INO=1.45  OOO=1.00  P8=0.35",
                           "P1=4.55  INO=2.33  OOO=1.00  P8=0.44"};
    const char *paperSpeedup[] = {"2.9x", "2.3x"};
    const char *wls[] = {"OLTP", "DSS"};
    for (int w = 0; w < 2; ++w) {
        std::string wl = wls[w];
        printBreakdown(r, os, cfgs, wl, "OOO");
        for (const std::string &c : cfgs) {
            MissShares m = missShares(r, c + "/" + wl);
            os << strFormat("  %-4s L1-miss service: L2 %.0f%%  fwd "
                            "%.0f%%  mem %.0f%% (remote %.0f%%)\n",
                            c.c_str(), m.l2, m.fwd, m.mem, m.remote);
        }
        os << "paper:    " << paper[w] << "\nmeasured: ";
        for (const std::string &c : cfgs)
            os << strFormat("%s=%.2f  ", c.c_str(),
                            timeRatio(r, c + "/" + wl, "OOO/" + wl));
        os << strFormat("\nP8 vs OOO speedup: %.2fx (paper: %s)\n\n",
                        timeRatio(r, "OOO/" + wl, "P8/" + wl),
                        paperSpeedup[w]);
    }
}

// ---------------------------------------------------------------------
// Figure 6: OLTP speedup with on-chip CPUs (a) and where L1 misses are
// served (b), from the same four P1..P8 runs.

inline SweepSpec
sweepFig6()
{
    SweepSpec s("fig6");
    for (unsigned n : {1u, 2u, 4u, 8u})
        s.addConfig(configPn(n));
    s.addConfig(configOOO());
    s.addWorkload("OLTP", makeOltp, kOltpTotalTxns);
    return s;
}

inline void
renderFig6(const SweepReport &r, std::ostream &os)
{
    os << "-- Figure 6(a): OLTP speedup vs on-chip CPUs --\n";
    TextTable a({"CPUs", "Speedup vs P1", "OOO reference"});
    TextTable b({"Config", "L2 Hit", "L2 Fwd", "L2 Miss (mem)"});
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        std::string label = strFormat("P%u/OLTP", n);
        a.addRow({strFormat("%u", n),
                  TextTable::fmt(timeRatio(r, "P1/OLTP", label), 2),
                  n == 1 ? TextTable::fmt(
                               timeRatio(r, "P1/OLTP", "OOO/OLTP"), 2)
                         : ""});
        MissShares m = missShares(r, label);
        b.addRow({strFormat("P%u", n), TextTable::fmt(m.l2, 1) + "%",
                  TextTable::fmt(m.fwd, 1) + "%",
                  TextTable::fmt(m.mem, 1) + "%"});
    }
    a.print(os);
    os << strFormat("P8 speedup over P1: %.2fx (paper: ~7x)\n\n",
                    timeRatio(r, "P1/OLTP", "P8/OLTP"));
    os << "-- Figure 6(b): L1-miss service breakdown (OLTP) --\n";
    b.print(os);
    os << "paper: P1 ~90% L2 hit; P8 <40% L2 hit with the L2-fwd share "
          "growing;\nmemory share bounded as CPUs are added "
          "(non-inclusive victim hierarchy).\n";
}

// ---------------------------------------------------------------------
// Figure 7: OLTP scaling over 1..4 chips, P4 chips vs single-CPU OOO
// chips, at a fixed total of 1920 transactions.

inline SweepSpec
sweepFig7()
{
    SweepSpec s("fig7");
    for (unsigned chips = 1; chips <= 4; ++chips) {
        for (SystemConfig cfg : {configPn(4, chips), configOOO(chips)}) {
            SweepPoint pt;
            pt.label = strFormat("%sx%u/OLTP", cfg.name.c_str(), chips);
            pt.config = std::move(cfg);
            pt.workload = WorkloadDecl{"OLTP", makeOltp, 1920};
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

inline void
renderFig7(const SweepReport &r, std::ostream &os)
{
    auto thr = [&r](const char *cfg, unsigned chips) {
        return jobStat(r, strFormat("%sx%u/OLTP", cfg, chips), "throughput");
    };
    TextTable t({"Chips", "Piranha(P4) speedup", "OOO speedup",
                 "P4/OOO perf"});
    for (unsigned chips = 1; chips <= 4; ++chips)
        t.addRow({strFormat("%u", chips),
                  TextTable::fmt(thr("P4", chips) / thr("P4", 1), 2),
                  TextTable::fmt(thr("OOO", chips) / thr("OOO", 1), 2),
                  TextTable::fmt(thr("P4", chips) / thr("OOO", chips), 2)});
    t.print(os);
    os << strFormat("at 4 chips: Piranha %.2fx vs OOO %.2fx (paper: 3.0 "
                    "vs 2.6)\n",
                    thr("P4", 4) / thr("P4", 1),
                    thr("OOO", 4) / thr("OOO", 1));
    os << "paper: single-chip P4 ~1.5x OOO.\n";
}

// ---------------------------------------------------------------------
// Figure 8: the full-custom P8F against the OOO and the ASIC P8.

inline SweepSpec
sweepFig8()
{
    SweepSpec s("fig8");
    s.addConfig(configOOO())
        .addConfig(configP8())
        .addConfig(configP8F())
        .addWorkload("OLTP", makeOltp, kOltpTotalTxns)
        .addWorkload("DSS", makeDss, kDssTotalChunks);
    return s;
}

inline void
renderFig8(const SweepReport &r, std::ostream &os)
{
    const char *paper[] = {"P8 ~2.9x, P8F ~5.0x", "P8 ~2.3x, P8F ~5.3x"};
    const char *wls[] = {"OLTP", "DSS"};
    for (int w = 0; w < 2; ++w) {
        std::string wl = wls[w];
        printBreakdown(r, os, {"OOO", "P8", "P8F"}, wl, "OOO");
        os << strFormat("speedup vs OOO: P8 %.2fx, P8F %.2fx (paper: "
                        "%s)\n\n",
                        timeRatio(r, "OOO/" + wl, "P8/" + wl),
                        timeRatio(r, "OOO/" + wl, "P8F/" + wl), paper[w]);
    }
}

// ---------------------------------------------------------------------
// §4 text: a TPC-C-like workload, and P8 with pessimistic parameters.

inline SweepSpec
sweepSens()
{
    SweepSpec s("sens");
    s.addConfig(configP8())
        .addConfig(configP8Pessimistic())
        .addConfig(configOOO())
        .addWorkload("OLTP", makeOltp, kOltpTotalTxns)
        .addWorkload(
            "OLTP-C",
            [] {
                return std::make_unique<OltpWorkload>(
                    OltpWorkload::tpccParams(), 1, "OLTP(TPC-C)");
            },
            800);
    return s;
}

inline void
renderSens(const SweepReport &r, std::ostream &os)
{
    os << strFormat("TPC-C-like: P8 vs OOO %.2fx (paper: >3x)\n",
                    timeRatio(r, "OOO/OLTP-C", "P8/OLTP-C"));
    os << strFormat("pessimistic P8 (400MHz, 32KB 1-way L1): +%.0f%% time "
                    "(paper: +29%%), still %.2fx over OOO (paper: "
                    "2.25x)\n",
                    100 * (timeRatio(r, "P8-pess/OLTP", "P8/OLTP") - 1),
                    timeRatio(r, "OOO/OLTP", "P8-pess/OLTP"));
}

// ---------------------------------------------------------------------
// §2.4: the RDRAM open-page window against the page hit rate.

inline constexpr double kKeepOpenNs[] = {0,    100,  250, 500,
                                         1000, 2000, 4000};

inline std::string
openPageConfig(double keep_ns)
{
    return strFormat("P8-open%.0f", keep_ns);
}

inline SweepSpec
sweepOpenPage()
{
    SweepSpec s("openpage");
    for (double keep : kKeepOpenNs) {
        SystemConfig cfg = configP8();
        cfg.name = openPageConfig(keep);
        cfg.chip.rdram.keepOpenNs = keep;
        s.addConfig(std::move(cfg));
    }
    s.addWorkload("OLTP", makeOltp, 1200).addWorkload("DSS", makeDss, 48);
    return s;
}

inline void
renderOpenPage(const SweepReport &r, std::ostream &os)
{
    TextTable t({"keep-open (ns)", "OLTP page hits", "DSS page hits"});
    for (double keep : kKeepOpenNs) {
        auto hits = [&](const char *wl) {
            double rate = jobStat(r, openPageConfig(keep) + "/" + wl,
                                  "rdram_page_hit_rate");
            return TextTable::fmt(100 * rate, 1) + "%";
        };
        t.addRow({TextTable::fmt(keep, 0), hits("OLTP"), hits("DSS")});
    }
    t.print(os);
    os << "paper: ~1us keep-open window -> >50% page hit rate on OLTP\n"
          "(their Oracle miss stream has block-level clustering; our "
          "synthetic tail\nis partly random, so OLTP hits are lower "
          "while the sequential DSS scan\nshows the policy's full "
          "effect).\n";
}

// ---------------------------------------------------------------------
// §2.3 ablation: the L2's partial directory shortcut on and off, 150
// OLTP transactions per CPU.

inline std::string
pdirConfig(unsigned nodes, bool shortcut)
{
    return strFormat("P8x%u-pdir-%s", nodes, shortcut ? "on" : "off");
}

inline SweepSpec
sweepPdir()
{
    SweepSpec s("pdir");
    for (unsigned nodes : {1u, 2u}) {
        for (bool shortcut : {true, false}) {
            SweepPoint pt;
            pt.config = configP8(nodes);
            pt.config.name = pdirConfig(nodes, shortcut);
            pt.config.chip.l2.pdirShortcut = shortcut;
            pt.label = pt.config.name + "/OLTP";
            pt.workload = WorkloadDecl{"OLTP", makeOltp, 150 * 8 * nodes};
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

inline void
renderPdir(const SweepReport &r, std::ostream &os)
{
    TextTable t({"Config", "pdir shortcut", "exec time (ms)",
                 "engine trips", "shortcut grants"});
    for (unsigned nodes : {1u, 2u}) {
        for (bool shortcut : {true, false}) {
            std::string label = pdirConfig(nodes, shortcut) + "/OLTP";
            const JsonValue &tree = r.job(label)->statTree;
            auto sum = [&tree](const char *key) {
                return tree.isNull() ? std::string("-")
                                     : TextTable::fmt(sumScalar(tree, key),
                                                      0);
            };
            t.addRow({strFormat("P8x%u/OLTP", nodes),
                      shortcut ? "on" : "off",
                      TextTable::fmt(ms(jobStat(r, label, "exec_time_ps")), 3),
                      sum("engine_trips"), sum("pdir_shortcut")});
        }
    }
    t.print(os);
    os << "paper: the partial info avoids protocol-engine communication "
          "for the\nmajority of local requests and often avoids the "
          "directory fetch entirely.\n";
}

// ---------------------------------------------------------------------
// §2.5.3: cruise-missile invalidations (CMI) of a line every node
// shares, as the CMI fanout varies. Fanout 1 is one serial chain; a
// large fanout approaches one message per sharer.

/**
 * Share one line among every node, then let the last node write it and
 * run until the whole invalidation settles. Reports the mean
 * write-to-settle latency over 40 rounds and the mean number of
 * invalidation chains the home engine planned per write, read from
 * the coherence trace's CmiPlan records.
 */
inline CustomResult
cmiInvalidate(unsigned nodes, unsigned fanout)
{
    CustomResult cr;
#if !PIRANHA_COHERENCE_TRACE
    cr.ok = false;
    cr.error = "built with PIRANHA_TRACE=OFF: no CmiPlan records to count";
    (void)nodes;
    (void)fanout;
#else
    CoherenceTracer tracer;
    SystemConfig cfg = configPn(1, nodes);
    cfg.chip.cmiFanout = fanout;
    cfg.chip.tracer = &tracer;
    PiranhaSystem sys(cfg);
    EventQueue &eq = sys.eventQueue();
    auto sync_op = [&](unsigned node, MemOp op) {
        bool done = false;
        MemReq req;
        req.op = op;
        req.addr = 0x7000000;
        req.size = 8;
        sys.chip(node).dl1(0).access(req,
                                     [&](const MemRsp &) { done = true; });
        while (!done && eq.step()) {
        }
    };

    const int rounds = 40;
    double total_ns = 0, chains = 0;
    for (int i = 0; i < rounds; ++i) {
        for (unsigned n = 0; n < nodes; ++n)
            sync_op(n, MemOp::Load);
        eq.run(eq.curTick() + 100 * ticksPerUs);
        tracer.clear();
        Tick start = eq.curTick();
        sync_op(nodes - 1, MemOp::Store);
        eq.run(eq.curTick() + 100 * ticksPerUs);
        total_ns += double(eq.curTick() - start) / ticksPerNs;
        unsigned plans = 0;
        for (const TraceEvent &e : tracer.events()) {
            if (e.kind == TraceKind::CmiPlan) {
                chains += e.aux;
                ++plans;
            }
        }
        if (plans != 1) {
            cr.ok = false;
            cr.error = strFormat("round %d: %u CMI plans, expected 1", i,
                                 plans);
        }
    }
    cr.stats["nodes"] = nodes;
    cr.stats["fanout"] = fanout;
    cr.stats["chains"] = chains / rounds;
    cr.stats["inval_settle_ns"] = total_ns / rounds;
#endif
    return cr;
}

inline SweepSpec
sweepCmi()
{
    SweepSpec s("cmi");
    for (unsigned nodes : {4u, 5u}) {
        for (unsigned fanout : {1u, 2u, 4u, 16u}) {
            SweepPoint pt;
            pt.label = strFormat("%unodes/fanout%u", nodes, fanout);
            pt.custom = [nodes, fanout] {
                return cmiInvalidate(nodes, fanout);
            };
            s.addPoint(std::move(pt));
        }
    }
    return s;
}

inline void
renderCmi(const SweepReport &r, std::ostream &os)
{
    TextTable t({"Nodes", "CMI fanout", "chains", "inval+settle ns"});
    for (const JobResult &j : r.jobs)
        t.addRow({TextTable::fmt(j.stats.at("nodes"), 0),
                  TextTable::fmt(j.stats.at("fanout"), 0),
                  TextTable::fmt(j.stats.at("chains"), 0),
                  TextTable::fmt(j.stats.at("inval_settle_ns"), 0)});
    t.print(os);
    os << "paper: CMI bounds injected invalidations to a handful\n"
          "(node buffering independent of system size) while a\n"
          "serial chain (fanout 1) pays higher latency and the\n"
          "one-message-per-sharer scheme injects the most traffic.\n";
}

// ---------------------------------------------------------------------

/** Small grid for smoke checks and harness demos. */
inline SweepSpec
sweepQuick()
{
    SweepSpec s("quick");
    for (unsigned n : {1u, 2u, 4u, 8u})
        s.addConfig(configPn(n));
    s.addWorkload("OLTP", makeOltp, 128).addWorkload("DSS", makeDss, 16);
    return s;
}

struct SweepEntry
{
    const char *name;
    const char *desc;
    SweepSpec (*make)();
    /** Prints the paper-comparison table of a fully Ok report; null
     *  when the sweep has none. */
    void (*render)(const SweepReport &, std::ostream &);
};

inline const SweepEntry kSweeps[] = {
    {"fig5", "Fig. 5: single-chip configs x {OLTP, DSS} (8 points)",
     sweepFig5, renderFig5},
    {"fig6", "Fig. 6a/6b: P1..P8 + OOO under OLTP (5 points)", sweepFig6,
     renderFig6},
    {"fig7", "Fig. 7: P4 and OOO x 1..4 chips under OLTP (8 points)",
     sweepFig7, renderFig7},
    {"fig8", "Fig. 8: full-custom potential x {OLTP, DSS} (6 points)",
     sweepFig8, renderFig8},
    {"sens", "§4: sensitivity configs x {TPC-B, TPC-C} (6 points)",
     sweepSens, renderSens},
    {"openpage", "§2.4: RDRAM keep-open window x {OLTP, DSS} (14 points)",
     sweepOpenPage, renderOpenPage},
    {"pdir", "§2.3: L2 partial-directory shortcut on/off (4 points)",
     sweepPdir, renderPdir},
    {"cmi", "§2.5.3: CMI fanout x {4, 5} nodes (8 custom points)",
     sweepCmi, renderCmi},
    {"quick", "reduced-work 8-point grid for smoke checks", sweepQuick,
     nullptr},
};

} // namespace piranha

#endif // PIRANHA_BENCH_SWEEPS_H
