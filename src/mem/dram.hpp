/**
 * @file
 * Banked DRAM timing model.
 *
 * Models row-buffer hits/conflicts and bank-level parallelism. Figure 15's
 * discussion attributes part of the warp-repacking gain to a 41 % increase
 * in DRAM bank parallelism; this model exposes that statistic.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/cache.hpp" // for Cycle
#include "util/stats.hpp"

namespace rtp {

class ObserverPort;

/** DRAM timing configuration (cycles in the memory clock domain are
 *  approximated in core cycles for simplicity). */
struct DramConfig
{
    std::uint32_t numBanks = 16;
    std::uint32_t rowBytes = 2048;
    Cycle rowHitLatency = 40;   //!< CAS-only access
    Cycle rowMissLatency = 100; //!< precharge + activate + CAS
    Cycle burstOccupancy = 8;   //!< bank busy time per access
    std::uint32_t queueCapacity = 64; //!< per Table 2 request queue
    Cycle queuePenalty = 4;     //!< extra cycles per queued request ahead
};

/** Banked DRAM with per-bank busy tracking. */
class DramModel
{
  public:
    explicit DramModel(DramConfig config = {});

    /**
     * Service a line fill.
     * @param addr Byte address of the line.
     * @param cycle Cycle the request arrives at DRAM.
     * @param obs The requesting SM's observer port, or nullptr. Its
     *        event carries the bank index as unit and the arrival-time
     *        busy-bank count.
     * @return Cycle the data has been read.
     */
    Cycle access(std::uint64_t addr, Cycle cycle,
                 ObserverPort *obs = nullptr);

    /**
     * Average number of banks busy when requests arrive — the bank-level
     * parallelism proxy reported with Figure 15.
     */
    double avgBusyBanks() const;

    const StatGroup &
    stats() const
    {
        return stats_;
    }

    void
    clearStats()
    {
        stats_.clear();
        busySamples_ = 0;
        busyAccum_ = 0;
    }

  private:
    struct Bank
    {
        Cycle busyUntil = 0;
        std::uint64_t openRow = ~0ull;
    };

    DramConfig config_;
    std::vector<Bank> banks_;
    StatGroup stats_;
    std::uint64_t busySamples_ = 0;
    std::uint64_t busyAccum_ = 0;
};

} // namespace rtp
