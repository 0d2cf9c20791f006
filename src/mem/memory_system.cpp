#include "mem/memory_system.hpp"

#include "gpu/shard.hpp"
#include "util/observer.hpp"
#include "util/telemetry.hpp"

namespace rtp {

MemorySystem::MemorySystem(const MemoryConfig &config,
                           std::uint32_t num_sms)
    : config_(config), dram_(config.dram)
{
    for (std::uint32_t i = 0; i < num_sms; ++i)
        l1s_.push_back(std::make_unique<CacheModel>(config.l1));
    l2_ = std::make_unique<CacheModel>(config.l2, 2);
}

MemAccess
MemorySystem::access(std::uint32_t sm, std::uint64_t addr, Cycle cycle)
{
    MemAccess result;
    result.servedBy = MemLevel::L1;
    ObserverPort *obs = ports_ ? ports_ + sm : nullptr;

    auto l2_fill = [&](std::uint64_t line_addr, Cycle c) -> Cycle {
        result.servedBy = MemLevel::Dram;
        return dram_.access(line_addr, c + config_.l2ToDramLatency,
                            obs);
    };

    auto l1_fill = [&](std::uint64_t line_addr, Cycle c) -> Cycle {
        // Sharded loop: a true L1 miss is the only path into the
        // shared L2/DRAM, so this is where cross-SM ordering is
        // enforced. waitTurn returns once the sequential loop would
        // have reached this access; until the owning worker publishes
        // progress past this step, no other SM's later access can
        // enter, so the whole fill (L2 lookup + DRAM) is exclusive.
        if (gate_)
            gate_->waitTurn(sm);
        if (!config_.l2Enabled) {
            result.servedBy = MemLevel::Dram;
            return dram_.access(line_addr,
                                c + config_.l1ToL2Latency +
                                    config_.l2ToDramLatency,
                                obs);
        }
        result.servedBy = MemLevel::L2;
        CacheAccess l2_res = l2_->access(
            line_addr, c + config_.l1ToL2Latency, l2_fill, obs);
        return l2_res.readyCycle;
    };

    CacheAccess l1_res = l1s_[sm]->access(addr, cycle, l1_fill, obs);
    result.readyCycle = l1_res.readyCycle;
    result.l1MshrMerged = l1_res.merged;
    if (l1_res.merged)
        result.servedBy = MemLevel::L1;
    if (obs)
        obs->noteMemLevel(result.servedBy == MemLevel::Dram
                              ? 3
                              : (result.servedBy == MemLevel::L2 ? 2
                                                                 : 1));
    return result;
}

void
MemorySystem::checkFinalState(InvariantChecker &check) const
{
    for (const auto &l1 : l1s_)
        l1->checkFinalState(check);
    if (config_.l2Enabled)
        l2_->checkFinalState(check);
}

void
MemorySystem::snapshotInto(TelemetryGlobalSample &out, Cycle at) const
{
    l2_->snapshotInto(out.l2_hits, out.l2_misses, out.l2_mshr_merges);
    dram_.snapshotInto(out, at);
}

StatGroup
MemorySystem::aggregateStats() const
{
    StatGroup g;
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        for (const auto &kv : l1s_[i]->stats().counters())
            g.inc("l1." + kv.first, kv.second);
        for (const auto &kv : l1s_[i]->stats().histograms())
            g.mergeHistogram("l1." + kv.first, kv.second);
    }
    for (const auto &kv : l2_->stats().counters())
        g.inc("l2." + kv.first, kv.second);
    for (const auto &kv : l2_->stats().histograms())
        g.mergeHistogram("l2." + kv.first, kv.second);
    for (const auto &kv : dram_.stats().counters())
        g.inc("dram." + kv.first, kv.second);
    for (const auto &kv : dram_.stats().histograms())
        g.mergeHistogram("dram." + kv.first, kv.second);
    // One shared DRAM: merging several aggregates must not double the
    // utilisation figure, so the scalar carries a Max policy.
    g.set("dram.avg_busy_banks", dram_.avgBusyBanks(),
          ScalarMerge::Max);
    return g;
}

void
MemorySystem::clearStats()
{
    for (auto &l1 : l1s_)
        l1->clearStats();
    l2_->clearStats();
    dram_.clearStats();
}

} // namespace rtp
