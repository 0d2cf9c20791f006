#include "gpu/shard.hpp"

#include <thread>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) ||      \
    defined(_M_IX86)
#include <immintrin.h>
#endif

namespace rtp {

namespace {

/**
 * Spins on one blocker before the waiter starts yielding. A pause is
 * about 10 to 140 cycles, so this covers a few to tens of
 * microseconds — most waits end sooner — while an oversubscribed host
 * still hands the core to the worker being waited on soon after.
 * docs/performance.md has the measurements behind the value.
 */
constexpr unsigned kSpinsBeforeYield = 1024;

/** A hint that this is a spin-wait loop; no-op where there is none. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) ||      \
    defined(_M_IX86)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/** @return true if SM @p t's published progress @p p is past (c, s). */
inline bool
pastKey(Cycle p, std::uint32_t t, Cycle c, std::uint32_t s)
{
    return p > c || (p == c && t > s);
}

} // namespace

void
ShardGate::waitTurn(std::uint32_t sm, Cycle c) const
{
    const std::uint32_t n = numSms();
    // Progress only grows, so an SM that is past the key stays past
    // it: visit each other SM once and spin only while it blocks. The
    // acquire load that lets it pass synchronises with every shared
    // mutation it made before that publish, as a full rescan would.
    for (std::uint32_t t = 0; t < n; ++t) {
        if (t == sm)
            continue;
        const std::atomic<Cycle> &slot = slots_[t].progress;
        for (unsigned spins = 0;; ++spins) {
            if (pastKey(slot.load(std::memory_order_acquire), t, c, sm))
                break;
            if (abort_.load(std::memory_order_acquire))
                throw ShardAbort{};
            if (spins < kSpinsBeforeYield)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }
}

bool
ShardGate::mayEnter(std::uint32_t sm, Cycle c) const
{
    const std::uint32_t n = numSms();
    for (std::uint32_t t = 0; t < n; ++t)
        if (t != sm &&
            !pastKey(slots_[t].progress.load(std::memory_order_acquire),
                     t, c, sm))
            return false;
    return true;
}

} // namespace rtp
