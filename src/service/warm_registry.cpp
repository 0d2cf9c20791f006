#include "service/warm_registry.hpp"

namespace rtp {

bool
WarmStateRegistry::tryAcquire(const std::string &key,
                              const PredictorConfig &config,
                              std::uint32_t num_sms, const Bvh &bvh,
                              WarmLease &out)
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        auto entry = std::make_unique<Entry>();
        it = entries_.emplace(key, std::move(entry)).first;
        stats_.misses++;
        out.warmHit = false;
    } else if (it->second->leased) {
        stats_.busy++;
        return false;
    } else {
        stats_.hits++;
        out.warmHit = true;
    }

    Entry &e = *it->second;
    // bind() is the canonical cross-frame step: first call builds cold
    // predictors, later calls rebind the hasher and clear per-run stats
    // while preserving the trained tables — so a job run through the
    // registry is byte-identical to a sequential bind();run() sequence.
    e.set.bind(config, num_sms, bvh, /*preserve_state=*/true);
    e.leased = true;
    e.uses++;
    out.set = &e.set;
    out.uses = e.uses;
    out.warmth = e.set.snapshotStats();
    return true;
}

void
WarmStateRegistry::release(const std::string &key, bool keep_state)
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    if (!keep_state) {
        entries_.erase(it);
        return;
    }
    it->second->leased = false;
}

bool
WarmStateRegistry::evict(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    if (it->second->leased) {
        stats_.evictRefused++;
        return false;
    }
    entries_.erase(it);
    stats_.evictions++;
    return true;
}

std::size_t
WarmStateRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.size();
}

WarmRegistryStats
WarmStateRegistry::stats() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return stats_;
}

} // namespace rtp
