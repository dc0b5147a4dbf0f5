/**
 * @file
 * Host wall-clock timing for trace_bench: a steady_clock read and the
 * seconds elapsed since one.
 */

#ifndef PIRANHA_BENCH_HOST_TIMER_H
#define PIRANHA_BENCH_HOST_TIMER_H

#include <chrono>

namespace piranha {
namespace bench {

using HostClock = std::chrono::steady_clock;

inline double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

} // namespace bench
} // namespace piranha

#endif // PIRANHA_BENCH_HOST_TIMER_H
