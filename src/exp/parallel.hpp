/**
 * @file
 * Parallel experiment harness: an ordered parallel map (runSweep) for
 * independent simulation runs, on the worker seam of util/host.hpp.
 *
 * Every figure/table reproduction in bench/ evaluates a scene x config
 * x sweep-point matrix whose points are independent `Simulation::run()`
 * calls (each run constructs all mutable state per call; see the
 * thread-safety contract in gpu/simulator.hpp). The natural parallelism
 * is therefore across runs, GPGPU-Sim-study style. runSweep executes
 * the points concurrently but returns results in submission order, so
 * every table printed from the results is byte-identical to a serial
 * run regardless of thread count.
 *
 * Thread count: RTP_THREADS environment variable, defaulting to the
 * CPUs this process may run on (usableCpuCount, util/host.hpp, which
 * honours taskset and cpusets). RTP_THREADS=1 recovers fully
 * serial execution on the calling thread, in item order.
 *
 * A second knob, RTP_SIM_THREADS, controls *intra*-simulation
 * parallelism (the sharded per-SM event loop, gpu/simulator.hpp). The
 * two compose through threadBudgetFromEnv() so the product of sweep
 * workers and per-simulation workers never oversubscribes the host
 * unless both are set explicitly. Unset, it is 1 under a pool of
 * several workers and "auto" (SimConfig::kAutoSimThreads: shard each
 * run across the CPUs that are free when it starts) under a pool of
 * one.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "util/host.hpp"

namespace rtp {

/**
 * Parse a thread-count environment variable strictly.
 *
 * @param name Variable name (e.g. "RTP_THREADS", "RTP_SIM_THREADS").
 * @param fallback Returned when the variable is unset.
 * @return The parsed count (>= 1), or @p fallback when unset.
 * @throws std::invalid_argument when the variable is set to anything
 *         that is not a plain positive decimal integer ("abc", "",
 *         "0", "-2", "4x", " 8"). Garbage used to be silently treated
 *         as a default thread count, which hid typos in CI scripts;
 *         now it fails loudly with the offending value in the message.
 */
unsigned parseThreadCountEnv(const char *name, unsigned fallback);

/**
 * The sweep's worker count: RTP_THREADS if set, otherwise
 * usableCpuCount() (>= 1).
 * @throws std::invalid_argument on a malformed RTP_THREADS.
 */
unsigned defaultThreadCount();

/**
 * The composed thread budget for a harness run: how many sweep points
 * run concurrently (runSweep workers) and how many worker threads each
 * simulation's sharded event loop may use (SimConfig::simThreads).
 */
struct ThreadBudget
{
    unsigned sweepThreads = 1; //!< runSweep workers
    unsigned simThreads = 0;   //!< per-simulation workers; 0 = auto
};

/**
 * Per-simulation event-loop workers for a pool running @p pool
 * simulations at once: RTP_SIM_THREADS when set; otherwise 1 when
 * @p pool > 1 (the pool already fills the host) and 0 (auto,
 * SimConfig::kAutoSimThreads) for a pool of one.
 * @throws std::invalid_argument on a malformed RTP_SIM_THREADS.
 */
unsigned simThreadsForPool(unsigned pool);

/**
 * Compose RTP_THREADS (sweep-level) and RTP_SIM_THREADS (per-simulation)
 * into one budget without oversubscribing the host:
 *
 * - both set: honoured verbatim (the user asked for the product);
 * - only RTP_SIM_THREADS: sweep threads = max(1, hw / simThreads), so
 *   sweep x sim stays within the core count;
 * - otherwise sweep threads = RTP_THREADS or hw, and simThreads comes
 *   from simThreadsForPool(sweep threads): 1 (sequential event loop)
 *   under a pool of several workers, auto under a pool of one.
 *
 * @param hw Hardware thread count; 0 means usableCpuCount().
 * @throws std::invalid_argument on malformed values (see
 *         parseThreadCountEnv).
 */
ThreadBudget threadBudgetFromEnv(unsigned hw = 0);

/** Wall-clock accounting for one runSweep call. */
struct SweepTiming
{
    std::size_t runs = 0;
    unsigned threads = 0;
    double wallSeconds = 0.0;   //!< elapsed time of the whole sweep
    double serialSeconds = 0.0; //!< sum of per-run wall times

    /** Observed parallel speedup over the serial-equivalent time. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? serialSeconds / wallSeconds : 1.0;
    }
};

/**
 * Print a one-line timing summary to stderr (stdout stays reserved for
 * the experiment tables, which must be byte-identical across thread
 * counts).
 */
void reportSweepTiming(const char *label, const SweepTiming &timing);

/**
 * Ordered parallel map: apply @p fn to every element of @p items and
 * return the results in submission order. min(threads, items) workers
 * (runWorkers, util/host.hpp) claim item indices from a shared cursor.
 * The first exception thrown by any item (in item order) is rethrown
 * after the sweep completes.
 *
 * @param items Sweep points; fn must be safe to run concurrently on
 *        distinct items (see Simulation's thread-safety contract).
 * @param fn Callable taking `const Item &` and returning the result.
 * @param label When non-null, a timing summary is printed to stderr
 *        and per-run wall times are accumulated.
 * @param timing_out Optional out-param receiving the timing summary.
 * @param threads Worker limit; 0 = defaultThreadCount(). The harness
 *        passes a ThreadBudget's sweepThreads here so sweep- and
 *        simulation-level parallelism compose.
 */
template <typename Item, typename Fn>
auto
runSweep(const std::vector<Item> &items, Fn fn,
         const char *label = nullptr, SweepTiming *timing_out = nullptr,
         unsigned threads = 0)
    -> std::vector<decltype(fn(std::declval<const Item &>()))>
{
    using Result = decltype(fn(std::declval<const Item &>()));
    using Clock = std::chrono::steady_clock;

    std::vector<Result> results(items.size());
    std::vector<std::exception_ptr> errors(items.size());
    std::vector<double> run_seconds(items.size(), 0.0);

    auto sweep_start = Clock::now();
    if (threads == 0)
        threads = defaultThreadCount();
    const auto workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(threads, items.size()));
    std::atomic<std::size_t> cursor{0};
    runWorkers(workers, [&](std::uint32_t) {
        for (std::size_t i; (i = cursor.fetch_add(1)) < items.size();) {
            auto run_start = Clock::now();
            try {
                results[i] = fn(items[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            run_seconds[i] =
                std::chrono::duration<double>(Clock::now() - run_start)
                    .count();
        }
    });

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    SweepTiming timing;
    timing.runs = items.size();
    timing.threads = workers;
    timing.wallSeconds =
        std::chrono::duration<double>(Clock::now() - sweep_start)
            .count();
    for (double s : run_seconds)
        timing.serialSeconds += s;
    if (label)
        reportSweepTiming(label, timing);
    if (timing_out)
        *timing_out = timing;
    return results;
}

} // namespace rtp
