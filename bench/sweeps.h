/**
 * @file
 * The named experiment sweeps that sweep_main runs (`sweep_main
 * --list`). Kept in a header so the behaviour fingerprint test
 * (tests/fingerprint_test.cc) pins exactly the grids the driver runs.
 */

#ifndef PIRANHA_BENCH_SWEEPS_H
#define PIRANHA_BENCH_SWEEPS_H

#include "bench_util.h"

namespace piranha {

inline SweepSpec
sweepFig5()
{
    SweepSpec s("fig5");
    s.addConfig(configP1())
        .addConfig(configINO())
        .addConfig(configOOO())
        .addConfig(configP8())
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            kOltpTotalTxns)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); },
            kDssTotalChunks);
    return s;
}

inline SweepSpec
sweepFig6a()
{
    SweepSpec s("fig6a");
    for (unsigned n : {1u, 2u, 4u, 8u})
        s.addConfig(configPn(n));
    s.addConfig(configOOO());
    s.addWorkload(
        "OLTP", [] { return std::make_unique<OltpWorkload>(); },
        kOltpTotalTxns);
    return s;
}

inline SweepSpec
sweepFig8()
{
    SweepSpec s("fig8");
    s.addConfig(configOOO())
        .addConfig(configP8())
        .addConfig(configP8F())
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            kOltpTotalTxns)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); },
            kDssTotalChunks);
    return s;
}

inline SweepSpec
sweepSens()
{
    SweepSpec s("sens");
    s.addConfig(configP8())
        .addConfig(configP8Pessimistic())
        .addConfig(configOOO())
        .addWorkload(
            "OLTP", [] { return std::make_unique<OltpWorkload>(); },
            kOltpTotalTxns)
        .addWorkload(
            "OLTP-C",
            [] {
                return std::make_unique<OltpWorkload>(
                    OltpWorkload::tpccParams(), 1, "OLTP(TPC-C)");
            },
            800);
    return s;
}

/** Small grid for smoke checks and harness demos. */
inline SweepSpec
sweepQuick()
{
    SweepSpec s("quick");
    for (unsigned n : {1u, 2u, 4u, 8u})
        s.addConfig(configPn(n));
    s.addWorkload(
        "OLTP", [] { return std::make_unique<OltpWorkload>(); }, 128)
        .addWorkload(
            "DSS", [] { return std::make_unique<DssWorkload>(); }, 16);
    return s;
}

struct SweepEntry
{
    const char *name;
    const char *desc;
    SweepSpec (*make)();
};

inline const SweepEntry kSweeps[] = {
    {"fig5", "single-chip configs x {OLTP, DSS} (8 points)", sweepFig5},
    {"fig6a", "P1..P8 + OOO under OLTP (5 points)", sweepFig6a},
    {"fig8", "full-custom potential x {OLTP, DSS} (6 points)",
     sweepFig8},
    {"sens", "sensitivity configs x {TPC-B, TPC-C} (6 points)",
     sweepSens},
    {"quick", "reduced-work 8-point grid for smoke checks", sweepQuick},
};

} // namespace piranha

#endif // PIRANHA_BENCH_SWEEPS_H
