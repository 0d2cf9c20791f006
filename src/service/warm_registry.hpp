/**
 * @file
 * Keyed registry of warm cross-request predictor state.
 *
 * The paper's Section 8 cross-frame experiment shows a trained
 * PredictorSet carried between frames keeps its hit rate; a long-running
 * service exploits exactly that as a cache: requests against the same
 * (scene, config) key share one resident PredictorSet whose tables stay
 * trained across jobs. The registry makes the sharing safe and
 * observable:
 *
 *  - acquire/release leases are EXCLUSIVE per key. Predictor tables are
 *    mutated during a run, so two concurrent jobs must never see the
 *    same set; the scheduler (service/sim_service.hpp) skips work whose
 *    key is leased rather than blocking a worker.
 *  - tryAcquire() rebinds the set to the job's BVH with preserved
 *    tables (PredictorSet::bind, preserve_state = true) and snapshots
 *    the table occupancy — the "predictor warmth" reported in the job's
 *    result envelope.
 *  - evict() drops a key's state; it refuses while the key is leased
 *    (the running job owns the tables), and a queued job whose key was
 *    evicted simply re-creates cold state at dispatch.
 *
 * Keys are caller-composed strings; the service uses
 * `sceneKey + "\n" + configToJson(config)` so any simulated-knob change
 * gets its own predictor state (configToJson excludes host-only knobs
 * like simThreads, which must NOT split the cache).
 *
 * All methods are thread-safe behind one internal mutex.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "gpu/simulator.hpp"

namespace rtp {

/** A granted exclusive lease on one key's warm state. */
struct WarmLease
{
    PredictorSet *set = nullptr; //!< bound, ready for Simulation
    bool warmHit = false;        //!< entry existed (tables preserved)
    std::uint64_t uses = 0;      //!< jobs served by this entry so far
    PredictorSetStats warmth;    //!< occupancy right after (re)bind
};

/** Cumulative registry counters (for service stats / loadgen JSON). */
struct WarmRegistryStats
{
    std::uint64_t hits = 0;      //!< acquires that found trained state
    std::uint64_t misses = 0;    //!< acquires that created cold state
    std::uint64_t busy = 0;      //!< tryAcquire refusals (key leased)
    std::uint64_t evictions = 0; //!< successful evict() calls
    std::uint64_t evictRefused = 0; //!< evict() refused (key leased)
};

class WarmStateRegistry
{
  public:
    WarmStateRegistry() = default;

    WarmStateRegistry(const WarmStateRegistry &) = delete;
    WarmStateRegistry &operator=(const WarmStateRegistry &) = delete;

    /**
     * Try to lease @p key's predictor state exclusively. On a miss a
     * fresh entry is created; either way the set is bound to @p bvh
     * (trained tables preserved, per-run stats cleared) before the
     * lease is returned.
     *
     * @return false when the key is currently leased by another job —
     *         the caller should reschedule, not wait. @p out is only
     *         written on success.
     */
    bool tryAcquire(const std::string &key,
                    const PredictorConfig &config,
                    std::uint32_t num_sms, const Bvh &bvh,
                    WarmLease &out);

    /**
     * Return a leased key. The trained tables stay resident for the
     * next acquire. @p keep_state = false drops the entry instead
     * (used when a job failed mid-run and may have left the tables in
     * a state no later job should inherit).
     */
    void release(const std::string &key, bool keep_state = true);

    /**
     * Drop @p key's warm state.
     * @return true when the entry was removed; false when the key is
     *         unknown or currently leased (leased state is owned by
     *         the running job and must not vanish under it).
     */
    bool evict(const std::string &key);

    /** @return Number of resident entries (leased or not). */
    std::size_t size() const;

    WarmRegistryStats stats() const;

  private:
    struct Entry
    {
        PredictorSet set;
        bool leased = false;
        std::uint64_t uses = 0;
    };

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Entry>> entries_;
    WarmRegistryStats stats_;
};

} // namespace rtp
