#include "core/repacker.hpp"

#include <string>

#include "util/check.hpp"
#include "util/observer.hpp"

namespace rtp {

void
PartialWarpCollector::checkConservation(const char *site) const
{
    obs_->require(
        collectedIds_ ==
            emittedIds_ + droppedIds_ + size_,
        "PartialWarpCollector", site, [&] {
            return "collected " + std::to_string(collectedIds_) +
                   " != emitted " + std::to_string(emittedIds_) +
                   " + dropped " + std::to_string(droppedIds_) +
                   " + pending " + std::to_string(size_);
        });
}

void
PartialWarpCollector::checkFinalState(InvariantChecker &check) const
{
    check.require(size_ == 0, "PartialWarpCollector",
                  "collector drains fully by end of run", [&] {
                      return std::to_string(size_) +
                             " ray IDs still pending after the last "
                             "ray completed";
                  });
    check.require(droppedIds_ == 0, "PartialWarpCollector",
                  "no ray ID is ever dropped on overflow", [&] {
                      return std::to_string(droppedIds_) +
                             " IDs dropped (capacity " +
                             std::to_string(config_.capacity) +
                             ", warp size " +
                             std::to_string(config_.warpSize) + ")";
                  });
}

void
PartialWarpCollector::take(std::size_t count,
                           std::vector<std::uint32_t> &out)
{
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(ring_[head_].id);
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    }
    size_ -= count;
    emittedIds_ += count;
}

void
PartialWarpCollector::add(const std::vector<std::uint32_t> &ray_ids,
                          Cycle cycle, std::vector<std::uint32_t> &warps)
{
    for (std::uint32_t id : ray_ids) {
        // The collector capacity (64) exceeds what a single warp can add
        // past a full batch, so overflow beyond capacity cannot occur;
        // guard anyway to keep the invariant explicit.
        if (size_ < ring_.size()) {
            std::size_t tail = head_ + size_;
            ring_[tail < ring_.size() ? tail : tail - ring_.size()] =
                Pending{id, cycle};
            size_++;
            collectedIds_++;
        } else {
            stats_.inc(StatId::OverflowDrops);
            collectedIds_++;
            droppedIds_++;
        }
    }
    stats_.inc(StatId::RaysCollected, ray_ids.size());
    if (obs_ && !ray_ids.empty())
        obs_->event(TraceEventKind::RepackCollect, cycle, 0, 0, 0,
                    ray_ids.size());

    // Forming a full warp consumes the oldest IDs only; the timeout of
    // every leftover ray stays anchored to its own insertion cycle
    // (stored per entry), so warp formation can never restart the
    // flush timer for rays still waiting.
    warps.clear();
    while (size_ >= config_.warpSize) {
        take(config_.warpSize, warps);
        stats_.inc(StatId::FullWarpsFormed);
        if (obs_)
            obs_->event(TraceEventKind::RepackFlush, cycle, 0, 0, 0,
                        config_.warpSize);
    }
    if (obs_)
        checkConservation("add() conserves ray IDs");
}

void
PartialWarpCollector::flushIfExpired(Cycle cycle,
                                     std::vector<std::uint32_t> &warp)
{
    warp.clear();
    if (size_ == 0 || cycle < deadline())
        return;
    take(size_, warp);
    stats_.inc(StatId::TimeoutFlushes);
    if (obs_) {
        obs_->event(TraceEventKind::RepackFlush, cycle, 0, 1, 0,
                    warp.size());
        checkConservation("flushIfExpired() conserves ray IDs");
    }
}

void
PartialWarpCollector::flushAll(std::vector<std::uint32_t> &warp)
{
    // flushAll() drains at end-of-run and has no caller cycle; anchor
    // the event to the oldest pending ray's insertion cycle.
    Cycle at = oldestPendingCycle();
    warp.clear();
    take(size_, warp);
    if (!warp.empty()) {
        stats_.inc(StatId::DrainFlushes);
        if (obs_)
            obs_->event(TraceEventKind::RepackFlush, at, 0, 2, 0,
                        warp.size());
    }
    if (obs_)
        checkConservation("flushAll() conserves ray IDs");
}

} // namespace rtp
