#include "util/host.hpp"

#include <algorithm>
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

} // namespace rtp
