#include "exp/parallel.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/host.hpp"

namespace rtp {

unsigned
parseThreadCountEnv(const char *name, unsigned fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    auto reject = [&](const char *why) {
        throw std::invalid_argument(
            std::string(name) + "=\"" + env + "\" is invalid: " + why +
            " (expected a plain positive decimal integer)");
    };
    if (*env == '\0')
        reject("empty value");
    // Strict: no leading whitespace or signs, no trailing junk — a typo
    // like "4x" or "abc" must not silently become some default.
    if (!std::isdigit(static_cast<unsigned char>(*env)))
        reject("not a decimal number");
    errno = 0;
    char *end = nullptr;
    unsigned long n = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0')
        reject("trailing non-digit characters");
    if (errno == ERANGE || n > 65536)
        reject("out of range (max 65536)");
    if (n == 0)
        reject("thread count must be >= 1");
    return static_cast<unsigned>(n);
}

unsigned
simThreadsForPool(unsigned pool)
{
    const unsigned unset = pool > 1 ? 1u : 0u;
    return parseThreadCountEnv("RTP_SIM_THREADS", unset);
}

ThreadBudget
threadBudgetFromEnv(unsigned hw)
{
    if (hw == 0)
        hw = usableCpuCount();
    const bool sweep_set = std::getenv("RTP_THREADS") != nullptr;
    const bool sim_set = std::getenv("RTP_SIM_THREADS") != nullptr;

    ThreadBudget b;
    if (sweep_set)
        b.sweepThreads = parseThreadCountEnv("RTP_THREADS", hw);
    else if (sim_set)
        b.sweepThreads =
            std::max(1u, hw / parseThreadCountEnv("RTP_SIM_THREADS", 1));
    else
        b.sweepThreads = hw;
    b.simThreads = simThreadsForPool(b.sweepThreads);
    return b;
}

unsigned
defaultThreadCount()
{
    return parseThreadCountEnv("RTP_THREADS", usableCpuCount());
}

void
reportSweepTiming(const char *label, const SweepTiming &timing)
{
    std::fprintf(stderr,
                 "[rtp-parallel] %s: %zu runs on %u threads, wall "
                 "%.2fs, serial-equivalent %.2fs, speedup %.2fx\n",
                 label, timing.runs, timing.threads,
                 timing.wallSeconds, timing.serialSeconds,
                 timing.speedup());
}

} // namespace rtp
