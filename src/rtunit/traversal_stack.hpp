/**
 * @file
 * Per-ray traversal stack (Section 5.1.2).
 *
 * The hardware stack holds eight entries; deeper traversals spill the
 * oldest entries to thread-local memory and refill them later (Aila &
 * Laine). Spills and refills are surfaced to the RT unit so it can charge
 * the corresponding memory accesses.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace rtp {

/** A traversal stack with a fixed-size hardware window. */
class TraversalStack
{
  public:
    TraversalStack() = default;

    /**
     * @param hw_entries Size of the hardware window (paper: 8).
     * @param spill_chunk Entries moved per spill/refill transfer.
     */
    explicit TraversalStack(std::uint32_t hw_entries,
                            std::uint32_t spill_chunk = 4)
        : hwEntries_(hw_entries), spillChunk_(spill_chunk)
    {}

    /** Push a node index; may spill to local memory. */
    void
    push(std::uint32_t node)
    {
        entries_.push_back(node);
        std::uint32_t hw_count =
            static_cast<std::uint32_t>(entries_.size()) - spilledDepth_;
        if (hw_count > hwEntries_) {
            // Spill the oldest window entries to thread-local memory. A
            // window smaller than the chunk holds fewer spillable
            // entries than a full transfer; cap the chunk so the
            // just-pushed top stays resident and spilledDepth_ cannot
            // overrun the stack (uncapped, hwResident() underflows for
            // stackEntries < spillChunk_ and the spill statistics go
            // wild).
            std::uint32_t chunk =
                hw_count - 1 < spillChunk_ ? hw_count - 1 : spillChunk_;
            spilledDepth_ += chunk;
            pendingSpills_++;
            totalSpills_++;
        }
    }

    /** Pop the top node; may refill from local memory. */
    std::optional<std::uint32_t>
    pop()
    {
        if (entries_.empty())
            return std::nullopt;
        std::uint32_t hw_count =
            static_cast<std::uint32_t>(entries_.size()) - spilledDepth_;
        if (hw_count == 0) {
            // Refill a chunk from thread-local memory. Like push's
            // spill, the transfer is capped by the window size: a full
            // chunk would leave more entries resident than the hardware
            // holds when spillChunk_ > hwEntries_.
            std::uint32_t chunk =
                spilledDepth_ < spillChunk_ ? spilledDepth_ : spillChunk_;
            if (chunk > hwEntries_)
                chunk = hwEntries_;
            spilledDepth_ -= chunk;
            pendingRefills_++;
        }
        std::uint32_t top = entries_.back();
        entries_.pop_back();
        return top;
    }

    bool
    empty() const
    {
        return entries_.empty();
    }

    std::size_t
    size() const
    {
        return entries_.size();
    }

    void
    clear()
    {
        entries_.clear();
        spilledDepth_ = 0;
    }

    /**
     * Reconfigure and return to the pristine state, keeping the entry
     * vector's capacity. Lets RayBuffer::allocate reuse a slot's stack
     * without a heap round-trip per ray.
     */
    void
    reset(std::uint32_t hw_entries, std::uint32_t spill_chunk = 4)
    {
        hwEntries_ = hw_entries;
        spillChunk_ = spill_chunk;
        entries_.clear();
        spilledDepth_ = 0;
        pendingSpills_ = 0;
        pendingRefills_ = 0;
        totalSpills_ = 0;
    }

    /** Make room for @p entries nodes, spilled ones included. */
    void
    reserve(std::size_t entries)
    {
        entries_.reserve(entries);
    }

    /** Number of entries currently spilled to local memory. */
    std::uint32_t
    spilledDepth() const
    {
        return spilledDepth_;
    }

    /**
     * Entries currently resident in the hardware window. The invariant
     * checker asserts this never exceeds hwCapacity() — a violation
     * would mean the model forgot to spill and is simulating a larger
     * stack than the hardware has.
     */
    std::uint32_t
    hwResident() const
    {
        return static_cast<std::uint32_t>(entries_.size()) -
               spilledDepth_;
    }

    /** Size of the hardware window (paper: 8 entries). */
    std::uint32_t
    hwCapacity() const
    {
        return hwEntries_;
    }

    /**
     * Spill transfers since the last call (each is one local-memory
     * store the RT unit should charge).
     */
    std::uint32_t
    takeSpillEvents()
    {
        std::uint32_t s = pendingSpills_;
        pendingSpills_ = 0;
        return s;
    }

    /** Refill transfers since the last call. */
    std::uint32_t
    takeRefillEvents()
    {
        std::uint32_t r = pendingRefills_;
        pendingRefills_ = 0;
        return r;
    }

    std::uint64_t
    totalSpills() const
    {
        return totalSpills_;
    }

  private:
    std::uint32_t hwEntries_ = 8;
    std::uint32_t spillChunk_ = 4;
    std::vector<std::uint32_t> entries_;
    std::uint32_t spilledDepth_ = 0; //!< bottom entries_ held in memory
    std::uint32_t pendingSpills_ = 0;
    std::uint32_t pendingRefills_ = 0;
    std::uint64_t totalSpills_ = 0;
};

} // namespace rtp
