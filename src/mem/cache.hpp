/**
 * @file
 * Timed set-associative LRU cache model with MSHR-style fill merging.
 *
 * Models the paper's L1 (64 KB, 128 B lines, fully associative LRU) and L2
 * (1 MB, 128 B lines, 16-way LRU) from Table 2. Timing is ready-cycle
 * based: an access returns the cycle its data is available; misses that
 * land on an in-flight fill merge into it (MSHR behaviour) instead of
 * issuing a duplicate downstream request.
 *
 * Lookup is O(1) regardless of associativity. Lines live in cache-wide
 * contiguous arrays indexed by slot = set * ways + way, and one flat
 * open-addressed index per cache maps a full line address to its slot
 * (LineIndex below). Each set keeps an intrusive doubly-linked LRU list
 * over its slots, so the fully associative L1 (512 ways) costs the same
 * per access as a small set-associative cache. Victim selection walks
 * the list from the LRU end exactly as the original list-based model
 * did, preserving replacement decisions bit-for-bit. After construction
 * an access allocates nothing.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/stats.hpp"

namespace rtp {

class InvariantChecker;
class ObserverPort;
enum class TraceEventKind : std::uint8_t;

/** Cycle count type used by all timing models. */
using Cycle = std::uint64_t;

/** Configuration of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 128;
    std::uint32_t ways = 0;      //!< 0 = fully associative
    Cycle hitLatency = 1;        //!< cycles from access to data on a hit
    std::string name = "cache";
};

/** Result of a timed cache access. */
struct CacheAccess
{
    bool hit = false;        //!< line present and filled
    bool merged = false;     //!< miss merged into an in-flight fill
    Cycle readyCycle = 0;    //!< cycle the data is available
};

/**
 * Non-owning reference to a fill callable (context pointer + function
 * pointer). CacheModel::access runs millions of times per simulated
 * frame; a std::function parameter pays manager/allocation overhead on
 * every call, while FillRef binds any callable for free. The referenced
 * callable must outlive the access() call (always true for the
 * MemorySystem lambdas and test fixtures that use it).
 */
class FillRef
{
  public:
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<F>>,
                  FillRef>>>
    FillRef(const F &f)
        : ctx_(const_cast<void *>(static_cast<const void *>(&f))),
          fn_([](void *ctx, std::uint64_t line_addr, Cycle cycle) {
              return (*static_cast<const F *>(ctx))(line_addr, cycle);
          })
    {}

    Cycle
    operator()(std::uint64_t line_addr, Cycle cycle) const
    {
        return fn_(ctx_, line_addr, cycle);
    }

  private:
    void *ctx_;
    Cycle (*fn_)(void *, std::uint64_t, Cycle);
};

/**
 * One cache level. The downstream level is abstracted as a callback that
 * returns the fill-complete cycle for a missing line.
 */
class CacheModel
{
  public:
    /**
     * Owning fill-callback type; kept for callers that store a fill
     * function. access() itself takes a FillRef, which any FillFn (or
     * plain lambda) converts to implicitly.
     */
    using FillFn = std::function<Cycle(std::uint64_t line_addr,
                                       Cycle cycle)>;

    /**
     * @param level Hierarchy level (1 or 2): the aux field of this
     *        cache's trace events. An L1 reports as its requesting SM's
     *        unit, an L2 as unit 0.
     */
    explicit CacheModel(CacheConfig config, std::uint16_t level = 1);

    /**
     * Access one address at @p cycle.
     * @param addr Byte address (any offset within a line).
     * @param cycle Current cycle.
     * @param fill Invoked on a true miss to obtain the fill-ready cycle.
     * @param obs The requesting SM's observer port, or nullptr. It sees
     *        the hit/miss event, and with a checker attached every
     *        access verifies that it is never both a hit and an MSHR
     *        merge and that data is never ready before it was issued.
     */
    CacheAccess access(std::uint64_t addr, Cycle cycle, FillRef fill,
                       ObserverPort *obs = nullptr);

    /** @return true if the line holding @p addr is resident (untimed). */
    bool contains(std::uint64_t addr) const;

    /**
     * Statistics: hits, misses, mshr_merges, evictions,
     * inflight_victim_skips (victim selection passed over >= 1 line
     * whose fill was still in flight), inflight_bypasses (every way in
     * flight; the access was served downstream without allocating).
     * Histogram: miss_latency (fill cycles per true miss).
     */
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

    /**
     * Telemetry probe: copy the cumulative hit/miss/MSHR-merge counters
     * (three enum-indexed array reads — cheap enough for interval
     * sampling, see util/telemetry.hpp). Pure observer.
     */
    void
    snapshotInto(std::uint64_t &hits, std::uint64_t &misses,
                 std::uint64_t &mshr_merges) const
    {
        hits = stats_.get(StatId::Hits);
        misses = stats_.get(StatId::Misses);
        mshr_merges = stats_.get(StatId::MshrMerges);
    }

    const CacheConfig &
    config() const
    {
        return config_;
    }

    /** Empty the cache (keeps statistics). */
    void reset();

    /**
     * End-of-run sweep: every access must be accounted exactly once as
     * a hit, an MSHR merge, or a miss, and secondary counters must stay
     * within their parents (bypasses and evictions are kinds of miss).
     */
    void checkFinalState(InvariantChecker &check) const;

  private:
    /** Sentinel for "no slot" in the LRU links and the line index. */
    static constexpr std::uint32_t kNoSlot = ~0u;

    /**
     * Flat open-addressed map from full line address to slot, holding
     * valid lines only. Power-of-two capacity of at least twice the
     * slot count (load <= 0.5), multiplicative hashing, linear probing,
     * and backward-shift deletion, so erasing leaves no tombstones and
     * probe chains stay short under eviction churn. Emptiness is marked
     * in the slot field, so every 64-bit line address is a valid key.
     */
    class LineIndex
    {
      public:
        LineIndex() = default;
        explicit LineIndex(std::uint32_t slots);

        /** @return the slot holding @p line, or kNoSlot. */
        std::uint32_t
        find(std::uint64_t line) const
        {
            for (std::size_t i = home(line);; i = (i + 1) & mask_) {
                const Entry &e = table_[i];
                if (e.slot == kNoSlot)
                    return kNoSlot;
                if (e.line == line)
                    return e.slot;
            }
        }

        /** Insert @p line (must be absent) at @p slot. */
        void insert(std::uint64_t line, std::uint32_t slot);

        /** Remove @p line (must be present). */
        void erase(std::uint64_t line);

        void clear();

      private:
        struct Entry
        {
            std::uint64_t line = 0;
            std::uint32_t slot = kNoSlot;
        };

        std::size_t
        home(std::uint64_t line) const
        {
            return static_cast<std::size_t>(
                (line * 0x9E3779B97F4A7C15ull) >> shift_);
        }

        std::vector<Entry> table_;
        std::size_t mask_ = 0;
        unsigned shift_ = 64;
    };

    struct Line
    {
        std::uint64_t tag = 0; //!< full line address
        Cycle readyAt = 0; //!< fill-complete cycle (in-flight if > now)
        bool valid = false;
    };

    /** Intrusive LRU list of one set over its slots. */
    struct LruEnds
    {
        std::uint32_t head = kNoSlot; //!< MRU slot
        std::uint32_t tail = kNoSlot; //!< LRU slot
    };

    void unlink(LruEnds &set, std::uint32_t slot);
    void moveToFront(LruEnds &set, std::uint32_t slot);

    std::uint64_t
    lineAddr(std::uint64_t addr) const
    {
        return addr / config_.lineBytes;
    }

    CacheConfig config_;
    std::uint32_t numSets_ = 1;
    std::uint32_t waysPerSet_ = 1;
    // Cache-wide per-slot arrays (slot = set * waysPerSet_ + way).
    std::vector<Line> lines_;
    std::vector<std::uint32_t> prev_, next_;
    std::vector<LruEnds> sets_;
    LineIndex index_;
    /** Report one access event (and its checks) to @p obs. */
    void observe(ObserverPort &obs, TraceEventKind kind, Cycle cycle,
                 std::uint64_t addr, std::uint64_t arg,
                 const CacheAccess &res);

    StatGroup stats_;
    std::uint16_t level_;
    std::uint64_t accessesChecked_ = 0; //!< only counted while checking
};

} // namespace rtp
