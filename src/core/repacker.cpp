#include "core/repacker.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"
#include "util/observer.hpp"
#include "util/telemetry.hpp"

namespace rtp {

void
PartialWarpCollector::checkConservation(const char *site) const
{
    obs_->require(
        collectedIds_ ==
            emittedIds_ + droppedIds_ + pending_.size(),
        "PartialWarpCollector", site, [&] {
            return "collected " + std::to_string(collectedIds_) +
                   " != emitted " + std::to_string(emittedIds_) +
                   " + dropped " + std::to_string(droppedIds_) +
                   " + pending " + std::to_string(pending_.size());
        });
}

void
PartialWarpCollector::checkFinalState(InvariantChecker &check) const
{
    check.require(pending_.empty(), "PartialWarpCollector",
                  "collector drains fully by end of run", [&] {
                      return std::to_string(pending_.size()) +
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
PartialWarpCollector::snapshotInto(TelemetrySmSample &out) const
{
    out.repack_queue_depth = pending_.size();
}

std::vector<std::vector<std::uint32_t>>
PartialWarpCollector::add(const std::vector<std::uint32_t> &ray_ids,
                          Cycle cycle)
{
    for (std::uint32_t id : ray_ids) {
        // The collector capacity (64) exceeds what a single warp can add
        // past a full batch, so overflow beyond capacity cannot occur;
        // guard anyway to keep the invariant explicit.
        if (pending_.size() <
            static_cast<std::size_t>(config_.capacity)) {
            pending_.push_back(Pending{id, cycle});
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
    std::vector<std::vector<std::uint32_t>> warps;
    while (pending_.size() >= config_.warpSize) {
        std::vector<std::uint32_t> warp;
        warp.reserve(config_.warpSize);
        for (std::uint32_t i = 0; i < config_.warpSize; ++i)
            warp.push_back(pending_[i].id);
        pending_.erase(pending_.begin(),
                       pending_.begin() + config_.warpSize);
        emittedIds_ += config_.warpSize;
        warps.push_back(std::move(warp));
        stats_.inc(StatId::FullWarpsFormed);
        if (obs_)
            obs_->event(TraceEventKind::RepackFlush, cycle, 0, 0, 0,
                        config_.warpSize);
    }
    if (obs_)
        checkConservation("add() conserves ray IDs");
    return warps;
}

std::vector<std::uint32_t>
PartialWarpCollector::flushIfExpired(Cycle cycle)
{
    if (pending_.empty() || cycle < deadline())
        return {};
    std::vector<std::uint32_t> warp;
    warp.reserve(pending_.size());
    for (const Pending &p : pending_)
        warp.push_back(p.id);
    pending_.clear();
    emittedIds_ += warp.size();
    stats_.inc(StatId::TimeoutFlushes);
    if (obs_) {
        obs_->event(TraceEventKind::RepackFlush, cycle, 0, 1, 0,
                    warp.size());
        checkConservation("flushIfExpired() conserves ray IDs");
    }
    return warp;
}

std::vector<std::uint32_t>
PartialWarpCollector::flushAll()
{
    // flushAll() drains at end-of-run and has no caller cycle; anchor
    // the event to the oldest pending ray's insertion cycle.
    Cycle at = oldestPendingCycle();
    std::vector<std::uint32_t> warp;
    warp.reserve(pending_.size());
    for (const Pending &p : pending_)
        warp.push_back(p.id);
    pending_.clear();
    emittedIds_ += warp.size();
    if (!warp.empty()) {
        stats_.inc(StatId::DrainFlushes);
        if (obs_)
            obs_->event(TraceEventKind::RepackFlush, at, 0, 2, 0,
                        warp.size());
    }
    if (obs_)
        checkConservation("flushAll() conserves ray IDs");
    return warp;
}

} // namespace rtp
