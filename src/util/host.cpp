#include "util/host.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace rtp {

unsigned
usableCpuCount()
{
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/** The count a live ForcedWorkerCount sets; 0 when none is alive. */
std::atomic<std::uint32_t> g_forcedWorkers{0};

/** procs_running from one read of /proc/stat, or 0 if unreadable. */
unsigned
readProcsRunning()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0;
    unsigned running = 0;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "procs_running %u", &running) == 1)
            break;
    }
    std::fclose(f);
    return running;
}

} // namespace

unsigned
runnableOtherThreads()
{
    // One read in 30 to 90 catches a short-lived spike on an idle
    // host; three reads make a false "busy" rare.
    unsigned fewest = ~0u;
    for (int attempt = 0; attempt < 3; ++attempt) {
        const unsigned running = readProcsRunning();
        if (running == 0)
            return 0; // unreadable: assume an idle host
        fewest = std::min(fewest, running);
    }
    return fewest - 1; // the caller itself is running
}

std::uint32_t
freeCpuWorkers(std::uint32_t wanted, std::uint32_t usable_cpus,
               std::uint32_t runnable_others)
{
    // A kernel waits for its slowest worker, and the event loop's
    // lock-stepped workers all stall when one of them shares a CPU
    // with a busy thread (docs/performance.md). Use only CPUs nobody
    // else is running on, and leave one of those to the rest of the
    // host.
    if (usable_cpus <= runnable_others + 1)
        return 1;
    const std::uint32_t workers =
        std::min(wanted, usable_cpus - runnable_others - 1);
    return workers >= 2 ? workers : 1;
}

std::uint32_t
freeCpuWorkers(std::uint32_t wanted)
{
    if (const std::uint32_t forced =
            g_forcedWorkers.load(std::memory_order_relaxed))
        return forced;
    if (wanted <= 1)
        return 1; // no probe: nothing to share out
    return freeCpuWorkers(wanted, usableCpuCount(), runnableOtherThreads());
}

ForcedWorkerCount::ForcedWorkerCount(std::uint32_t count)
    : saved_(g_forcedWorkers.exchange(std::max(1u, count)))
{
}

ForcedWorkerCount::~ForcedWorkerCount()
{
    g_forcedWorkers.store(saved_);
}

} // namespace rtp
