/**
 * @file
 * The set-associative predictor table (Section 4.1, Figure 5).
 *
 * Each entry holds a valid bit, a ray-hash tag, and one or more slots of
 * predicted BVH node indices (27 bits each in the paper, supporting trees
 * of up to 2^27 nodes). The default Table 3 configuration is 1024 entries,
 * 4-way set-associative, one node per entry, LRU placement — 5.5 KB per
 * SM. When entries hold multiple nodes a node-replacement policy (LRU,
 * LFU, or LRU-K, Section 6.1.3) selects the victim slot.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/stats.hpp"

namespace rtp {

/** Node-replacement policy within a multi-node entry (Section 6.1.3). */
enum class NodeReplacement : std::uint8_t
{
    LRU,
    LFU,
    LRUK, //!< LRU-K: evict the slot with the oldest K-th last reference
};

/** Predictor table geometry and policies (Table 3 defaults). */
struct PredictorTableConfig
{
    std::uint32_t numEntries = 1024; //!< total entries across all sets
    std::uint32_t ways = 4;          //!< 1 = direct-mapped (tag still used)
    std::uint32_t nodesPerEntry = 1;
    NodeReplacement nodeReplacement = NodeReplacement::LRU;
    std::uint32_t lruK = 2;          //!< K for LRU-K
    std::uint32_t nodeBits = 27;     //!< bits per stored node index
};

/** The predictor table: a tagged, set-associative store of node indices. */
class PredictorTable
{
  public:
    /**
     * @param config Table geometry.
     * @param tag_bits Width of the stored tag (the full ray hash width).
     */
    PredictorTable(const PredictorTableConfig &config, int tag_bits);

    /**
     * Look up a ray hash.
     *
     * Bumps only the entry's recency (for LRU placement across ways).
     * Per-slot recency/frequency/LRU-K history is credited by
     * confirm(), not here: a lookup returns every slot of the entry,
     * so charging them all would leave the slots with identical
     * histories and make intra-entry replacement degenerate.
     *
     * @param hash Full hash pattern (indexed by fold, compared by tag).
     * @return Predicted node indices, or nullopt on a table miss.
     */
    std::optional<std::vector<std::uint32_t>> lookup(std::uint32_t hash);

    /**
     * Allocation-free lookup: identical semantics and accounting to
     * lookup(), writing the predicted nodes into @p out (cleared first,
     * left empty on a miss). @return true on a table hit. The RT unit's
     * hot path uses this with a reused scratch vector.
     */
    bool lookupInto(std::uint32_t hash, std::vector<std::uint32_t> &out);

    /**
     * Credit the slot holding @p node in the entry for @p hash — called
     * when a specific predicted node is confirmed used (the ray's
     * verification traversal succeeded from it, or training re-stored
     * it). No-op if the entry or slot is gone. Counts as "confirms".
     */
    void confirm(std::uint32_t hash, std::uint32_t node);

    /**
     * Train the table: associate @p node with @p hash, allocating or
     * updating the entry (LRU placement across ways; the configured node
     * replacement policy within the entry).
     */
    void update(std::uint32_t hash, std::uint32_t node);

    /** @return Total capacity in bytes (Section 6.1.1 accounting). */
    double sizeBytes() const;

    /** @return Bits per entry: valid + tag + nodes. */
    std::uint32_t bitsPerEntry() const;

    /** @return Number of sets. */
    std::uint32_t
    numSets() const
    {
        return numSets_;
    }

    /** @return Index bits (log2 of sets). */
    int
    indexBits() const
    {
        return indexBits_;
    }

    const StatGroup &
    stats() const
    {
        return stats_;
    }

    void
    clearStats()
    {
        stats_.clear();
    }

    /** Invalidate all entries. */
    void reset();

    /** @return Number of valid (trained) entries across all sets. */
    std::size_t validEntries() const;

    /** @return Total entry capacity (sets x ways). */
    std::size_t
    capacity() const
    {
        return entries_.size();
    }

  private:
    struct NodeSlot
    {
        std::uint32_t node = 0;
        std::uint32_t historyLen = 0; //!< times held in its history
        std::uint64_t lastUse = 0;
        std::uint64_t useCount = 0;
    };

    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint64_t lastUse = 0;
        std::uint32_t used = 0; //!< slots holding a node
    };

    /** The ways of set @p set. */
    std::span<Entry> ways(std::uint32_t set);

    /** The slots of @p e that hold a node. */
    std::span<NodeSlot> slots(const Entry &e);

    /** @p slot's last reference times, oldest first. */
    std::uint64_t *history(const NodeSlot &slot);

    /** Append @p tick to @p slot's history, dropping the oldest. */
    void record(NodeSlot &slot);

    Entry *findEntry(std::uint32_t set, std::uint32_t tag);

    /** Per-slot use accounting (recency, frequency, LRU-K history). */
    void touchSlot(NodeSlot &slot);

    PredictorTableConfig config_;
    int tagBits_;
    int indexBits_;
    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::uint32_t historyCap_; //!< max(1, lruK) times a slot keeps
    // Flat storage, built once: training and replacement allocate
    // nothing. Entries are set-major; entry i owns slots
    // [i * nodesPerEntry, ...), and slot k owns history
    // [k * historyCap_, ...).
    std::vector<Entry> entries_;
    std::vector<NodeSlot> slots_;
    std::vector<std::uint64_t> history_;
    std::uint64_t tick_ = 0;
    StatGroup stats_;
};

} // namespace rtp
