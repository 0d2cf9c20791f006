/**
 * @file
 * The shard gate: the ordering protocol that lets per-SM event loops
 * run on separate worker threads while the shared L2/DRAM still sees
 * every request in the exact (cycle, SM) order of the sequential loop.
 *
 * Design (docs/performance.md has the full writeup): every SM
 * publishes its *progress* — the smallest order key it may still
 * produce a shared access under — in a cache-line-padded atomic slot.
 * That is the cycle of its next pending (or currently executing)
 * event, or the key of its oldest deferred L1-miss fill if that is
 * smaller (MemorySystem: a fill that cannot return within the L1→L2
 * lookahead waits in a per-SM queue). Progress is monotone. Before
 * applying a shared access keyed (c, s) — an L1-miss fill issued by SM
 * s in its step at cycle c — a worker checks, without blocking in
 * mayEnter or spinning in waitTurn, that every other SM t satisfies
 *
 *     progress[t] > c  ||  (progress[t] == c && t > s)
 *
 * i.e. no other SM can still produce a shared access that the
 * sequential loop (earliest event first, ties to the lowest SM index)
 * would have ordered before this one. Progress only grows, so the
 * waiter checks each other SM once and spins only on the current
 * blocker (a CPU pause per spin, then a yield). The globally smallest
 * pending (cycle, sm) key always passes, so the protocol is
 * deadlock-free as long as each worker only ever waits on its own
 * smallest key, and the release store in setProgress / acquire load in
 * waitTurn give the happens-before edges that make every shared
 * L2/DRAM mutation data-race-free (ThreadSanitizer-clean).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "mem/cache.hpp" // Cycle

namespace rtp {

/**
 * Thrown inside waitTurn when another worker requested an abort (it
 * hit an error and can no longer advance its SMs past the waiter's
 * cycle). Internal to the sharded loop: workers catch it and return,
 * and the driver rethrows the original error.
 */
struct ShardAbort
{
};

/** The per-SM progress table plus the ordered-entry wait protocol. */
class ShardGate
{
  public:
    /** Progress value meaning "this SM has no further events". */
    static constexpr Cycle kDone = ~static_cast<Cycle>(0);

    explicit ShardGate(std::uint32_t num_sms) : slots_(num_sms)
    {
        for (auto &s : slots_)
            s.progress.store(0, std::memory_order_relaxed);
    }

    ShardGate(const ShardGate &) = delete;
    ShardGate &operator=(const ShardGate &) = delete;

    /**
     * Publish SM @p sm's next-event cycle (kDone when finished). The
     * release order makes every write the worker performed before the
     * publish — including shared L2/DRAM mutations of the step that
     * just completed — visible to any waiter that observes the new
     * value.
     */
    void
    setProgress(std::uint32_t sm, Cycle cycle)
    {
        slots_[sm].progress.store(cycle, std::memory_order_release);
    }

    Cycle
    progress(std::uint32_t sm) const
    {
        return slots_[sm].progress.load(std::memory_order_acquire);
    }

    /**
     * Block until the key (@p cycle, @p sm) is the globally smallest,
     * i.e. until the sequential loop would have reached this shared
     * access.
     * @throws ShardAbort when another worker requested an abort.
     */
    void waitTurn(std::uint32_t sm, Cycle cycle) const;

    /**
     * Non-blocking waitTurn: @return true if the key (@p cycle, @p sm)
     * is the globally smallest now. A true answer stays true (progress
     * only grows) and carries the same happens-before edges.
     */
    bool mayEnter(std::uint32_t sm, Cycle cycle) const;

    /** Ask every spinning waiter to bail out with ShardAbort. */
    void
    requestAbort()
    {
        abort_.store(true, std::memory_order_release);
    }

    bool
    aborted() const
    {
        return abort_.load(std::memory_order_acquire);
    }

    std::uint32_t
    numSms() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

  private:
    // One cache line per slot: workers publish progress on every step,
    // and false sharing between neighbouring SMs' slots would put that
    // store on the critical path of every other worker's spin.
    struct alignas(64) Slot
    {
        std::atomic<Cycle> progress{0};
    };

    std::vector<Slot> slots_;
    std::atomic<bool> abort_{false};
};

} // namespace rtp
