/**
 * @file
 * Host CPU probes and the one worker seam of the simulator's parallel
 * host kernels (the sharded event loop, the BVH build and primary-ray
 * tracing in ray generation): how many CPUs this process may use, how
 * many of them other threads are already using, how many workers that
 * leaves, and how the workers are run. None of these values reaches
 * simulated output.
 */

#pragma once

#include <pthread.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <system_error>
#include <vector>

namespace rtp {

/**
 * CPUs this process may run on: the count of its sched_getaffinity
 * mask, so that taskset and cpusets are honoured, or
 * std::thread::hardware_concurrency() where the mask cannot be read;
 * at least 1.
 */
unsigned usableCpuCount();

/**
 * Threads runnable on the host besides the caller: procs_running − 1
 * from /proc/stat. The minimum of a few back-to-back reads is kept, so
 * that a momentary spike does not count as load; 0 when /proc/stat
 * cannot be read.
 */
unsigned runnableOtherThreads();

/**
 * The free-CPU rule: the workers a kernel that can keep @p wanted of
 * them busy gets on a host where @p usable_cpus CPUs are usable and
 * @p runnable_others other threads are runnable. That is
 * min(wanted, usable_cpus − runnable_others − 1), or 1 (run on the
 * caller) when that is below 2. One free CPU is left to the rest of
 * the host; a kernel started inside a busy pool so gets 1.
 */
std::uint32_t freeCpuWorkers(std::uint32_t wanted,
                             std::uint32_t usable_cpus,
                             std::uint32_t runnable_others);

/**
 * The free-CPU rule applied to this host now (usableCpuCount,
 * runnableOtherThreads), or the count a live ForcedWorkerCount sets.
 * Every caller produces the same output at any count.
 */
std::uint32_t freeCpuWorkers(std::uint32_t wanted);

/**
 * Test seam: while one is alive, freeCpuWorkers(wanted) returns
 * @p count whatever @p wanted and the host's load, so tests can run a
 * kernel at a chosen worker count. Process-wide; not for concurrent
 * use by several threads.
 */
class ForcedWorkerCount
{
  public:
    explicit ForcedWorkerCount(std::uint32_t count);
    ~ForcedWorkerCount();

    ForcedWorkerCount(const ForcedWorkerCount &) = delete;
    ForcedWorkerCount &operator=(const ForcedWorkerCount &) = delete;

  private:
    std::uint32_t saved_;
};

/**
 * Run fn(w) for w = 0 .. count-1 and return once every call has: on
 * the caller when @p count is 1, else on @p count POSIX threads, each
 * with its own copy of @p fn made before it starts.
 *
 * A worker that makes no heap allocation touches no malloc state at
 * all: its copy of @p fn, its error slot and its handle are allocated
 * here. (A std::thread frees its start state on the new thread, and
 * glibc gives every thread that calls free() an arena of its own.
 * Arenas of short-lived workers reshuffle which arena the event loop's
 * workers get later, which raised peak_rss_mb; docs/performance.md.)
 *
 * An exception a worker throws is kept, and once all are joined the
 * lowest worker's is rethrown; a worker that can make the others wait
 * must make them return itself. When a copy of @p fn or a start throws
 * (std::system_error once the host is out of threads), @p stop() is
 * called to make the started workers return, they are joined, and the
 * exception is rethrown.
 */
template <class Fn, class Stop>
void
runWorkers(std::uint32_t count, const Fn &fn, Stop &&stop)
{
    if (count <= 1) {
        fn(0u);
        return;
    }
    struct Slot
    {
        std::optional<Fn> fn;
        std::uint32_t index = 0;
        std::exception_ptr error;
        pthread_t thread{};
    };
    auto entry = [](void *arg) -> void * {
        Slot &s = *static_cast<Slot *>(arg);
        try {
            (*s.fn)(s.index);
        } catch (...) {
            s.error = std::current_exception();
        }
        return nullptr;
    };
    std::vector<Slot> slots(count);
    std::uint32_t started = 0;
    auto join_started = [&] {
        for (std::uint32_t w = 0; w < started; ++w)
            pthread_join(slots[w].thread, nullptr);
    };
    try {
        for (; started < count; ++started) {
            Slot &s = slots[started];
            s.fn.emplace(fn);
            s.index = started;
            const int rc = pthread_create(&s.thread, nullptr, entry, &s);
            if (rc != 0)
                throw std::system_error(rc, std::generic_category(),
                                        "runWorkers: pthread_create");
        }
    } catch (...) {
        stop();
        join_started();
        throw;
    }
    join_started();
    for (const Slot &s : slots)
        if (s.error)
            std::rethrow_exception(s.error);
}

/** runWorkers for workers that never wait on each other. */
template <class Fn>
void
runWorkers(std::uint32_t count, const Fn &fn)
{
    runWorkers(count, fn, [] {});
}

} // namespace rtp
