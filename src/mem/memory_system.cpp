#include "mem/memory_system.hpp"

#include "util/observer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace rtp {

MemorySystem::MemorySystem(const MemoryConfig &config,
                           std::uint32_t num_sms)
    : config_(config), dram_(config.dram), lanes_(num_sms)
{
    for (std::uint32_t i = 0; i < num_sms; ++i)
        l1s_.push_back(std::make_unique<CacheModel>(config.l1));
    l2_ = std::make_unique<CacheModel>(config.l2, 2);
}

void
MemorySystem::setFillSettler(FillSettler *settler)
{
    settler_ = settler;
    for (std::size_t sm = 0; sm < lanes_.size(); ++sm) {
        // Only a run that threw leaves fills behind; its state is gone.
        FillLane &lane = lanes_[sm];
        lane.head = 0;
        lane.size = 0;
        lane.nextSeq = 0;
        if (settler_ && lane.slotFill.empty()) {
            const std::size_t slots = l1s_[sm]->numSlots();
            lane.slotFill.assign(slots, 0);
            // Every fill but a bypass holds an L1 slot while it waits,
            // so a ring of one entry a slot rarely has to grow on the
            // worker that owns the lane.
            lane.ring.resize(
                std::bit_ceil(std::max<std::size_t>(16, slots)));
        }
    }
}

Cycle
MemorySystem::fillLine(std::uint64_t line_addr, Cycle issued,
                       MemLevel &served, ObserverPort *obs)
{
    if (!config_.l2Enabled) {
        served = MemLevel::Dram;
        return dram_.access(line_addr,
                            issued + config_.l1ToL2Latency +
                                config_.l2ToDramLatency,
                            obs);
    }
    served = MemLevel::L2;
    auto l2_fill = [&](std::uint64_t l2_line, Cycle c) -> Cycle {
        served = MemLevel::Dram;
        return dram_.access(l2_line, c + config_.l2ToDramLatency, obs);
    };
    return l2_
        ->access(line_addr, issued + config_.l1ToL2Latency, l2_fill, obs)
        .readyCycle;
}

MemAccess
MemorySystem::access(std::uint32_t sm, std::uint64_t addr, Cycle cycle)
{
    if (settler_)
        return accessDeferred(sm, addr, cycle);
    MemAccess result;
    result.servedBy = MemLevel::L1;
    ObserverPort *obs = ports_ ? ports_ + sm : nullptr;

    auto l1_fill = [&](std::uint64_t line_addr, Cycle c) -> Cycle {
        return fillLine(line_addr, c, result.servedBy, obs);
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

MemAccess
MemorySystem::accessDeferred(std::uint32_t sm, std::uint64_t addr,
                             Cycle cycle)
{
    if (fillDue(sm, cycle))
        settler_->settleDue(sm, cycle);
    FillLane &lane = lanes_[sm];
    std::uint64_t miss_line = 0;
    auto defer = [&](std::uint64_t line_addr, Cycle) -> Cycle {
        miss_line = line_addr;
        return CacheModel::kFillDeferred;
    };
    CacheAccess l1_res = l1s_[sm]->access(addr, cycle, defer);

    MemAccess result;
    result.readyCycle = l1_res.readyCycle;
    result.l1MshrMerged = l1_res.merged;
    if (!l1_res.deferred)
        return result;
    if (l1_res.merged) {
        // Merged onto a line whose own fill is still queued.
        result.fill = lane.slotFill[l1_res.slot];
        result.readyCycle =
            lane.bySeq(result.fill).due + config_.l1.hitLatency;
        return result;
    }

    if (lane.size == lane.ring.size()) {
        // Grow to the next power of two, unrolling the FIFO.
        std::vector<PendingFill> grown(
            std::max<std::size_t>(16, 2 * lane.ring.size()));
        for (std::size_t i = 0; i < lane.size; ++i)
            grown[i] = lane.ring[(lane.head + i) & (lane.ring.size() - 1)];
        lane.ring = std::move(grown);
        lane.head = 0;
    }
    PendingFill &f =
        lane.ring[(lane.head + lane.size) & (lane.ring.size() - 1)];
    f.line = miss_line;
    f.issued = cycle;
    f.due = cycle + config_.minL1FillCycles();
    f.key = lane.stepCycle;
    f.slot = l1_res.slot;
    lane.size++;
    result.fill = lane.nextSeq++;
    if (f.slot != ~0u)
        lane.slotFill[f.slot] = result.fill;
    result.readyCycle = f.due + config_.l1.hitLatency;
    return result;
}

FillDone
MemorySystem::applyOldestFill(std::uint32_t sm)
{
    FillLane &lane = lanes_[sm];
    if (lane.size == 0)
        throw std::logic_error(
            "MemorySystem::applyOldestFill: SM " + std::to_string(sm) +
            " holds no deferred fill");
    const PendingFill f = lane.ring[lane.head];
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    lane.size--;
    MemLevel served;
    const Cycle ready = fillLine(f.line, f.issued, served, nullptr);
    if (ready < f.due)
        throw std::logic_error(
            "MemorySystem::applyOldestFill: SM " + std::to_string(sm) +
            " line " + std::to_string(f.line) + " missed at cycle " +
            std::to_string(f.issued) + " filled at " +
            std::to_string(ready) + ", before its bound " +
            std::to_string(f.due));
    l1s_[sm]->settleFill(f.slot, f.issued, ready);
    return {lane.nextSeq - lane.size - 1,
            ready + config_.l1.hitLatency};
}

void
MemorySystem::checkFinalState(InvariantChecker &check) const
{
    for (const auto &l1 : l1s_)
        l1->checkFinalState(check);
    if (config_.l2Enabled)
        l2_->checkFinalState(check);
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
