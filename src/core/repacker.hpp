/**
 * @file
 * Warp repacking: the partial warp collector (Section 4.4, Figure 10).
 *
 * After predictor lookups, predicted rays are pulled out of their warp
 * and queued in this collector, which only stores ray IDs. When 32 IDs
 * have accumulated, or a short timeout expires, they are emitted as a new
 * repacked warp. The structure holds up to 64 IDs so a freshly arriving
 * warp's predictions can overflow past a full batch of 32.
 *
 * The collector allocates only when constructed: pending IDs live in a
 * ring of `capacity` entries, and formed warps are written into a
 * vector the caller owns and reuses.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/cache.hpp" // Cycle
#include "util/stats.hpp"

namespace rtp {

class InvariantChecker;
class ObserverPort;

/** Collector configuration. */
struct RepackerConfig
{
    std::uint32_t warpSize = 32;
    std::uint32_t capacity = 64; //!< max buffered ray IDs
    Cycle timeout = 16;          //!< cycles before a partial warp flushes
};

/** The partial warp collector. */
class PartialWarpCollector
{
  public:
    explicit PartialWarpCollector(const RepackerConfig &config = {})
        : config_(config), ring_(config.capacity)
    {}

    /**
     * Add predicted ray IDs at @p cycle. @p warps is cleared, then
     * receives the full warps ready to dispatch immediately, oldest
     * first, back to back: exactly warpSize IDs each.
     */
    void add(const std::vector<std::uint32_t> &ray_ids, Cycle cycle,
             std::vector<std::uint32_t> &warps);

    /**
     * Flush a partial warp if the timeout has expired by @p cycle.
     * @p warp is cleared, then receives the flushed (possibly partial)
     * warp; it stays empty when nothing expired.
     */
    void flushIfExpired(Cycle cycle, std::vector<std::uint32_t> &warp);

    /** Flush whatever is pending into @p warp (cleared first)
     *  regardless of timeout (drain at end). */
    void flushAll(std::vector<std::uint32_t> &warp);

    /** @return Cycle at which the current contents time out, or 0. */
    Cycle
    deadline() const
    {
        return size_ == 0 ? 0 : ring_[head_].addedAt + config_.timeout;
    }

    /**
     * @return Insertion cycle of the oldest remaining pending ray
     *         (the cycle anchoring the flush timeout), or 0 if empty.
     * The timeout must follow each ray's own insertion cycle: anchoring
     * it to the cycle of the latest warp formation would restart the
     * timer for leftover rays and let an unlucky ray wait far beyond
     * config_.timeout.
     */
    Cycle
    oldestPendingCycle() const
    {
        return size_ == 0 ? 0 : ring_[head_].addedAt;
    }

    std::size_t
    pendingCount() const
    {
        return size_;
    }

    /**
     * Attach the owning SM's observer port (nullptr detaches). Every
     * collect and emitted warp (full, timeout, or drain) is then
     * reported, and with a checker attached every add/flush re-verifies
     * ray conservation: IDs in == IDs out + IDs pending, i.e. the
     * repacker neither drops nor duplicates rays.
     */
    void
    setObserver(ObserverPort *obs)
    {
        obs_ = obs;
    }

    /**
     * End-of-run sweep: the collector must be empty (with zero rays
     * remaining, pending IDs could never complete) and must never have
     * dropped an ID on overflow (a dropped ID is a ray that hangs the
     * simulation when capacity is tight).
     */
    void checkFinalState(InvariantChecker &check) const;

    const StatGroup &
    stats() const
    {
        return stats_;
    }

  private:
    /** One buffered ray ID plus the cycle it entered the collector. */
    struct Pending
    {
        std::uint32_t id;
        Cycle addedAt;
    };

    void checkConservation(const char *site) const;

    /** Move the @p count oldest pending IDs to the end of @p out. */
    void take(std::size_t count, std::vector<std::uint32_t> &out);

    RepackerConfig config_;
    std::vector<Pending> ring_; //!< FIFO of pending IDs, `capacity` long
    std::size_t head_ = 0;      //!< oldest pending entry
    std::size_t size_ = 0;      //!< pending entries
    StatGroup stats_;
    ObserverPort *obs_ = nullptr;
    // Conservation ledger: plain members, not StatGroup counters, so
    // the stats JSON stays byte-identical with checking off (the
    // zero-perturbation contract). Cheap enough to maintain always.
    std::uint64_t collectedIds_ = 0; //!< IDs accepted into the ring
    std::uint64_t emittedIds_ = 0;   //!< IDs handed out in warps
    std::uint64_t droppedIds_ = 0;   //!< IDs lost to overflow
};

} // namespace rtp
