#include "core/predictor.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"
#include "util/observer.hpp"
#include "util/telemetry.hpp"

namespace rtp {

void
RayPredictor::checkFinalState(InvariantChecker &check) const
{
    std::uint64_t lookups = stats_.get(StatId::Lookups);
    std::uint64_t predicted = stats_.get(StatId::Predicted);
    std::uint64_t table_hits = table_.stats().get(StatId::LookupHits);
    std::uint64_t table_misses =
        table_.stats().get(StatId::LookupMisses);
    check.require(lookups == table_hits + table_misses, "RayPredictor",
                  "every lookup is exactly one table hit or miss", [&] {
                      return "lookups " + std::to_string(lookups) +
                             " != table hits " +
                             std::to_string(table_hits) + " + misses " +
                             std::to_string(table_misses);
                  });
    check.require(predicted == table_hits, "RayPredictor",
                  "every prediction came from a table hit", [&] {
                      return "predicted " + std::to_string(predicted) +
                             " != table hits " +
                             std::to_string(table_hits);
                  });
}

void
RayPredictor::snapshotInto(TelemetrySmSample &out) const
{
    out.pred_lookups = stats_.get(StatId::Lookups);
    out.pred_hits = stats_.get(StatId::Predicted);
    out.pred_trains = stats_.get(StatId::Trained);
}

RayPredictor::RayPredictor(const PredictorConfig &config, const Bvh &bvh)
    : config_(config), bvh_(&bvh),
      hasher_(config.hash, bvh.sceneBounds()),
      table_(config.table, hasher_.hashBits()),
      lookupPorts_(std::max(1u, config.accessPorts), 0),
      updatePorts_(std::max(1u, config.accessPorts), 0)
{
}

void
RayPredictor::rebind(const Bvh &bvh)
{
    bvh_ = &bvh;
    hasher_ = RayHasher(config_.hash, bvh.sceneBounds());
    // Port busy-times are cycle-stamped; a new frame restarts its clock
    // at zero, so stale stamps would serialise the new frame's lookups.
    std::fill(lookupPorts_.begin(), lookupPorts_.end(), 0);
    std::fill(updatePorts_.begin(), updatePorts_.end(), 0);
}

void
RayPredictor::resetTable()
{
    table_.reset();
}

Cycle
RayPredictor::schedulePort(std::vector<Cycle> &ports, Cycle cycle)
{
    // Pick the earliest-free port; an access occupies it for one cycle.
    auto it = std::min_element(ports.begin(), ports.end());
    Cycle start = std::max(cycle, *it);
    *it = start + 1;
    return start + config_.accessLatency;
}

bool
RayPredictor::lookupInto(const Ray &ray, Cycle cycle,
                         Cycle &ready_cycle,
                         std::vector<std::uint32_t> &nodes)
{
    nodes.clear();
    if (!config_.enabled) {
        ready_cycle = cycle;
        return false;
    }
    ready_cycle = schedulePort(lookupPorts_, cycle);
    if (obs_)
        obs_->require(
            ready_cycle >= cycle, "RayPredictor",
            "a lookup result is never ready before it was issued",
            [&] {
                return "issued at cycle " + std::to_string(cycle) +
                       ", ready at " + std::to_string(ready_cycle);
            });
    stats_.inc(StatId::Lookups);

    std::uint32_t h = hasher_.hash(ray);
    bool hit = table_.lookupInto(h, nodes);
    if (obs_)
        obs_->event(TraceEventKind::PredictorLookup, cycle, 0,
                    static_cast<std::uint16_t>(hit ? 1 : 0), h,
                    nodes.size());
    if (!hit)
        return false;
    stats_.inc(StatId::Predicted);
    return true;
}

std::optional<Prediction>
RayPredictor::lookup(const Ray &ray, Cycle cycle, Cycle &ready_cycle)
{
    Prediction p;
    if (!lookupInto(ray, cycle, ready_cycle, p.nodes))
        return std::nullopt;
    p.hash = hasher_.hash(ray);
    return p;
}

void
RayPredictor::update(const Ray &ray, std::uint32_t hit_leaf, Cycle cycle)
{
    if (!config_.enabled)
        return;
    schedulePort(updatePorts_, cycle);
    stats_.inc(StatId::Trained);
    std::uint32_t node = bvh_->ancestorOf(hit_leaf, config_.goUpLevel);
    std::uint32_t h = hasher_.hash(ray);
    table_.update(h, node);
    if (obs_)
        obs_->event(TraceEventKind::PredictorTrain, cycle, 0, 0, h, node);
}

} // namespace rtp
