/**
 * @file
 * The RT unit's event queue: an indexed calendar (bucket) queue keyed on
 * cycle, with the GTO `order` tie-break.
 *
 * The simulator pops events in strictly non-decreasing cycle order and
 * pushes events at cycles >= the current one, which is the access
 * pattern calendar queues are built for: a ring of buckets indexed by
 * `cycle & (size-1)` plus an occupancy bitmap makes push O(1) and pop a
 * couple of bitmap word scans, where a binary heap pays O(log n)
 * compare-and-swap chains on every operation. Events beyond the ring's
 * horizon (or, defensively, before its base) go to a small overflow
 * vector that is migrated into the ring when the ring drains.
 *
 * Pop order is exactly a binary heap's: minimum (cycle, order). Within
 * one cycle every WarpStep event has a unique warp dispatch order, and
 * the only events that can tie exactly are duplicate CollectorFlush
 * entries, which are bitwise identical — so the queue's total order
 * (and thus the simulation it drives) matches a std::priority_queue
 * model exactly; tests/test_event_queue_equiv.cpp keeps that model as
 * the reference.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/cache.hpp" // Cycle

namespace rtp {

class ObserverPort;

/** What a popped RT unit event means. */
enum class RtEventKind : std::uint8_t
{
    WarpStep,       //!< advance one warp's traversal state machine
    CollectorFlush, //!< check the partial warp collector's timeout
};

/** One scheduled RT unit event. */
struct RtEvent
{
    Cycle cycle = 0;
    std::uint64_t order = 0; //!< tie-break: oldest warp first (GTO)
    RtEventKind kind = RtEventKind::WarpStep;
    std::uint32_t warp = 0;

    bool
    operator>(const RtEvent &o) const
    {
        if (cycle != o.cycle)
            return cycle > o.cycle;
        return order > o.order;
    }
};

/** Min-(cycle, order) event queue for one RT unit. */
class EventQueue
{
  public:
    /**
     * Size the event pool and the overflow store for @p events pending
     * events, so that a queue holding no more than that allocates
     * nothing.
     */
    void reserve(std::size_t events);

    bool
    empty() const
    {
        return size_ == 0;
    }

    std::size_t
    size() const
    {
        return size_;
    }

    /** Schedule @p ev. */
    void push(const RtEvent &ev);

    /**
     * @return Cycle of the earliest pending event. Undefined when
     * empty() — callers (RtUnit) guard.
     */
    Cycle nextCycle() const;

    /** Remove and return the minimum (cycle, order) event. */
    RtEvent pop();

    /**
     * Attach the owning SM's observer port (nullptr detaches). With a
     * checker attached the queue verifies on every pop that event
     * cycles never move backwards — the total-order guarantee the whole
     * simulation rests on.
     */
    void
    setObserver(ObserverPort *obs)
    {
        obs_ = obs;
    }

  private:
    /** Ring capacity; one simulated cycle per bucket. Power of two. */
    static constexpr std::size_t kBuckets = 1024;
    static constexpr std::uint64_t kMask = kBuckets - 1;
    static constexpr std::size_t kWords = kBuckets / 64;

    /** End of a list: node 0 is a sentinel that holds no event. */
    static constexpr std::uint32_t kNil = 0;

    /** A pooled event: on its bucket's list, or on the free list. */
    struct Node
    {
        RtEvent ev;
        std::uint32_t next;
    };

    std::size_t firstOccupiedFrom(std::size_t start_idx) const;
    /** Link @p ev at the head of bucket @p idx. */
    void pushToBucket(std::size_t idx, const RtEvent &ev);
    /** Unlink and return the bucket's minimum-order event. */
    RtEvent takeMinFrom(std::uint32_t &head);
    void migrateOverflow();
    void checkPop(const RtEvent &ev);

    std::size_t size_ = 0;
    ObserverPort *obs_ = nullptr;
    Cycle lastPopCycle_ = 0; //!< only maintained while observed

    // Bucket lists thread through one node pool: a bucket costs a head
    // index, and the queue allocates only when the pool grows.
    std::vector<Node> nodes_ = std::vector<Node>(1);
    std::uint32_t freeNodes_ = kNil;
    std::uint32_t heads_[kBuckets] = {};
    std::uint64_t occupied_[kWords] = {};
    Cycle base_ = 0; //!< lower bound on the minimum ring cycle
    // Events with cycle >= base_+kBuckets (or, defensively, < base_).
    std::vector<RtEvent> overflow_;
    Cycle overflowMin_ = ~0ull;
    mutable Cycle cachedMin_ = 0;
    mutable bool cacheValid_ = false;
};

} // namespace rtp
