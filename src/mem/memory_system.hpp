/**
 * @file
 * The full memory hierarchy: one L1 per SM, a shared L2, banked DRAM
 * (Table 2 configuration). The RT unit is multiplexed onto the L1 like the
 * LDST unit (Section 5.1.4).
 *
 * Under the sharded event loop a true L1 miss is the only access that
 * reaches the shared L2/DRAM, and those levels must see the misses in
 * the sequential loop's (cycle, SM) order (docs/performance.md,
 * "Conservative lookahead"). No fill returns sooner than
 * MemoryConfig::minL1FillCycles after its miss, so a miss need not
 * wait for its turn: with a FillSettler attached the L1 allocates the
 * line in flight, queues the fill per SM and answers with a lower
 * bound on the ready cycle plus the fill's sequence number. The fill
 * reaches the L2/DRAM later, in that order, through applyOldestFill.
 * The sequential loop attaches no settler and applies every fill at
 * issue through the same path: a lookahead of zero.
 */

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace rtp {

class ObserverPort;

/** Where a request was ultimately served from. */
enum class MemLevel : std::uint8_t
{
    L1,
    L2,
    Dram,
};

/** Result of a timed hierarchy access. */
struct MemAccess
{
    /** Sentinel for `fill`: the ready cycle is exact. */
    static constexpr std::uint64_t kNoFill = ~0ull;

    Cycle readyCycle = 0;
    MemLevel servedBy = MemLevel::L1;
    bool l1MshrMerged = false;
    /**
     * Sequence number (per SM) of the deferred L1 fill the data waits
     * on, or kNoFill. When set, readyCycle is a lower bound and the
     * exact cycle is FillDone::readyCycle of that fill; servedBy is
     * unknown.
     */
    std::uint64_t fill = kNoFill;
};

/** A deferred L1 fill after MemorySystem::applyOldestFill. */
struct FillDone
{
    std::uint64_t seq = 0;  //!< the fill's sequence number
    Cycle readyCycle = 0;   //!< cycle its data is ready at the requester
};

/**
 * The sharded loop's side of fill deferral: MemorySystem calls it
 * before an L1 access whose cycle a deferred fill of the same SM could
 * already have reached.
 */
class FillSettler
{
  public:
    /**
     * Apply, in gate order, every deferred fill of SM @p sm that
     * MemorySystem::fillDue reports for @p cycle.
     */
    virtual void settleDue(std::uint32_t sm, Cycle cycle) = 0;

  protected:
    ~FillSettler() = default;
};

/** Memory hierarchy configuration. */
struct MemoryConfig
{
    /**
     * L1 hit latency: Section 5.1.5's one-cycle L1 access plus the
     * request-queue, tag, and ray-buffer-return pipeline around it.
     * Issue-slot occupancy is charged separately by the RT unit's
     * port model.
     */
    CacheConfig l1{64 * 1024, 128, 0, 6, "l1"};   //!< fully assoc LRU
    CacheConfig l2{1024 * 1024, 128, 16, 1, "l2"}; //!< 16-way LRU
    Cycle l1ToL2Latency = 90;   //!< interconnect + L2 pipeline
    Cycle l2ToDramLatency = 100; //!< off-chip command latency
    DramConfig dram;
    bool l2Enabled = true;

    /**
     * The fewest cycles from a true L1 miss's issue to its line being
     * filled, on every path of the model: the L2's hit latency after
     * the interconnect, or without the L2 the fastest DRAM access after
     * both hops. The requester sees the data l1.hitLatency later. This
     * is the sharded loop's lookahead.
     */
    Cycle
    minL1FillCycles() const
    {
        if (l2Enabled)
            return l1ToL2Latency + l2.hitLatency;
        return l1ToL2Latency + l2ToDramLatency +
               std::min(dram.rowHitLatency, dram.rowMissLatency);
    }
};

/** Per-SM L1s in front of a shared L2 and DRAM. */
class MemorySystem
{
  public:
    MemorySystem(const MemoryConfig &config, std::uint32_t num_sms);

    /**
     * Timed access from one SM's RT unit. With a FillSettler attached a
     * true miss, or a merge onto a line whose fill is still queued,
     * comes back with MemAccess::fill set.
     * @param sm Index of the issuing SM.
     * @param addr Byte address.
     * @param cycle Issue cycle.
     */
    MemAccess access(std::uint32_t sm, std::uint64_t addr, Cycle cycle);

    CacheModel &
    l1(std::uint32_t sm)
    {
        return *l1s_[sm];
    }

    CacheModel &
    l2()
    {
        return *l2_;
    }

    DramModel &
    dram()
    {
        return dram_;
    }

    const MemoryConfig &
    config() const
    {
        return config_;
    }

    /**
     * Attach the run's per-SM observer ports (an array indexed by SM;
     * nullptr detaches). Each access then reports through the issuing
     * SM's port: the level that served it (the profiler's L1/L2/DRAM
     * stall classification) and, from inside the caches and DRAM, their
     * hit/miss and bank events. The shared L2 and DRAM emit with their
     * own unit ids but through the requesting SM's port. Only the
     * sequential loop runs with ports attached: deferred fills report
     * nothing.
     */
    void
    setObserver(ObserverPort *ports)
    {
        ports_ = ports;
    }

    /**
     * Attach the sharded event loop's FillSettler (nullptr detaches and
     * drops any queued fill). With it, true L1 misses are deferred (see
     * the file comment): the caller keys them with beginStep, applies
     * them with applyOldestFill in the sequential loop's (cycle, sm)
     * order, and @p settler is called before any access that fillDue
     * reports. Per-SM L1 state needs no lock: each L1 is only ever
     * touched by the worker owning its SM.
     */
    void setFillSettler(FillSettler *settler);

    /** Key the deferred misses SM @p sm issues from now on with the
     *  cycle of the event it is about to step. */
    void
    beginStep(std::uint32_t sm, Cycle cycle)
    {
        lanes_[sm].stepCycle = cycle;
    }

    /** @return true if SM @p sm holds a deferred fill. */
    bool
    hasDeferredFills(std::uint32_t sm) const
    {
        return lanes_[sm].size != 0;
    }

    /**
     * @return true if SM @p sm's oldest deferred fill could be ready
     * at @p cycle: it must be applied before the SM steps an event or
     * accesses its L1 at that cycle. Fills of one SM fall due in queue
     * order, so none is due while the oldest is not.
     */
    bool
    fillDue(std::uint32_t sm, Cycle cycle) const
    {
        const FillLane &lane = lanes_[sm];
        return lane.size != 0 && lane.ring[lane.head].due <= cycle;
    }

    /** @return the gate key of SM @p sm's oldest deferred fill, or
     *  ~0 when it holds none. */
    Cycle
    oldestFillKey(std::uint32_t sm) const
    {
        const FillLane &lane = lanes_[sm];
        return lane.size != 0 ? lane.ring[lane.head].key : ~Cycle{0};
    }

    /**
     * Send SM @p sm's oldest deferred fill to the L2/DRAM and complete
     * its L1 line. The caller applies it only at its turn in the
     * sequential loop's order.
     * @throws std::logic_error if the fill is ready before the bound
     *         its miss promised (the model broke minL1FillCycles).
     */
    FillDone applyOldestFill(std::uint32_t sm);

    /** End-of-run sweep over every L1 and the L2 (when enabled). */
    void checkFinalState(InvariantChecker &check) const;

    /** Aggregate counters and histograms across all levels into one
     *  group under "l1." / "l2." / "dram." prefixes. */
    StatGroup aggregateStats() const;

    void clearStats();

  private:
    /** An L1 miss whose fill has not reached the L2/DRAM yet. */
    struct PendingFill
    {
        std::uint64_t line = 0; //!< line byte address
        Cycle issued = 0;       //!< L1 access cycle
        Cycle due = 0;          //!< earliest cycle the line can fill
        Cycle key = 0;          //!< gate key: the issuing step's cycle
        std::uint32_t slot = 0; //!< L1 slot of the line (~0u: bypass)
    };

    /**
     * One SM's deferred fills: a FIFO ring whose storage is reused, so
     * a miss allocates only while the ring grows to its high-water
     * mark. Written only by the worker owning the SM; padded so that
     * neighbouring SMs' lanes share no cache line.
     */
    struct alignas(64) FillLane
    {
        std::vector<PendingFill> ring; //!< power-of-two capacity
        std::size_t head = 0;
        std::size_t size = 0;
        std::uint64_t nextSeq = 0; //!< sequence number of the next fill
        Cycle stepCycle = 0;
        /** L1 slot -> sequence number of the fill in flight there. */
        std::vector<std::uint64_t> slotFill;

        const PendingFill &
        bySeq(std::uint64_t seq) const
        {
            return ring[(head + (seq - (nextSeq - size))) &
                        (ring.size() - 1)];
        }
    };

    /** The L2/DRAM half of a true L1 miss: @return the line's fill
     *  cycle, with @p served set to the level that provided it. */
    Cycle fillLine(std::uint64_t line_addr, Cycle issued,
                   MemLevel &served, ObserverPort *obs);

    /** The deferring half of access(). */
    MemAccess accessDeferred(std::uint32_t sm, std::uint64_t addr,
                             Cycle cycle);

    MemoryConfig config_;
    std::vector<std::unique_ptr<CacheModel>> l1s_;
    std::unique_ptr<CacheModel> l2_;
    DramModel dram_;
    FillSettler *settler_ = nullptr;   //!< set: misses are deferred
    ObserverPort *ports_ = nullptr;    //!< per-SM observer ports
    std::vector<FillLane> lanes_;
};

} // namespace rtp
