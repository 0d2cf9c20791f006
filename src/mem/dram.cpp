#include "mem/dram.hpp"

#include <algorithm>

#include "util/observer.hpp"
#include "util/telemetry.hpp"

namespace rtp {

DramModel::DramModel(DramConfig config) : config_(config)
{
    banks_.resize(std::max(1u, config_.numBanks));
}

Cycle
DramModel::access(std::uint64_t addr, Cycle cycle, ObserverPort *obs)
{
    // Interleave consecutive rows across banks.
    std::uint64_t row = addr / config_.rowBytes;
    std::uint32_t bank_idx =
        static_cast<std::uint32_t>(row % banks_.size());
    Bank &bank = banks_[bank_idx];

    // Sample bank-level parallelism at arrival time.
    std::uint32_t busy = 0;
    for (const Bank &b : banks_) {
        if (b.busyUntil > cycle)
            busy++;
    }
    busyAccum_ += busy;
    busySamples_++;

    Cycle start = std::max(cycle, bank.busyUntil);
    // Crude queueing penalty when the bank is backed up.
    if (bank.busyUntil > cycle) {
        stats_.inc(StatId::BankConflicts);
        start += config_.queuePenalty;
    }

    bool row_hit = bank.openRow == row;
    Cycle latency =
        row_hit ? config_.rowHitLatency : config_.rowMissLatency;
    stats_.inc(row_hit ? StatId::RowHits : StatId::RowMisses);
    stats_.inc(StatId::Accesses);

    bank.openRow = row;
    bank.busyUntil = start + config_.burstOccupancy;
    Cycle done = start + latency;
    stats_.addSample(HistId::Latency, done - cycle);
    if (obs)
        obs->sharedEvent({cycle, done - cycle, TraceEventKind::DramAccess,
                          static_cast<std::uint16_t>(bank_idx),
                          static_cast<std::uint16_t>(row_hit ? 1 : 0),
                          addr, busy});
    return done;
}

void
DramModel::snapshotInto(TelemetryGlobalSample &out, Cycle at) const
{
    out.dram_accesses = stats_.get(StatId::Accesses);
    out.dram_row_hits = stats_.get(StatId::RowHits);
    out.dram_row_misses = stats_.get(StatId::RowMisses);
    out.dram_busy_accum = busyAccum_;
    out.dram_busy_samples = busySamples_;
    std::uint32_t busy = 0;
    for (const Bank &b : banks_) {
        if (b.busyUntil > at)
            busy++;
    }
    out.dram_banks_busy_now = busy;
    out.dram_num_banks = banks_.size();
}

double
DramModel::avgBusyBanks() const
{
    return busySamples_ == 0
               ? 0.0
               : static_cast<double>(busyAccum_) / busySamples_;
}

} // namespace rtp
