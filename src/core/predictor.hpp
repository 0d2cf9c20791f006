/**
 * @file
 * The per-SM ray intersection predictor unit (Sections 3 and 4).
 *
 * Wraps the hash scheme and the predictor table with the timed access
 * machinery of Section 4.1: FIFO lookup and update queues served by a
 * small number of access ports (4 by default), a fixed access latency,
 * and the Go Up Level training rule of Section 4.3 (store the k-th
 * ancestor of the intersected leaf rather than the leaf itself).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bvh/bvh.hpp"
#include "core/hash.hpp"
#include "core/predictor_table.hpp"
#include "mem/cache.hpp" // Cycle
#include "util/stats.hpp"

namespace rtp {

struct TelemetrySmSample;
class InvariantChecker;
class ObserverPort;

/** Predictor unit configuration (Table 3 defaults). */
struct PredictorConfig
{
    bool enabled = true;
    HashConfig hash;
    PredictorTableConfig table;
    std::uint32_t goUpLevel = 3;    //!< ancestor level stored on update
    std::uint32_t accessPorts = 4;  //!< accesses per cycle
    Cycle accessLatency = 1;        //!< cycles per table access
};

/** A prediction returned by the lookup queue. */
struct Prediction
{
    std::vector<std::uint32_t> nodes; //!< predicted BVH node indices
    std::uint32_t hash = 0;           //!< hash that produced the entry
};

/** The timed predictor unit attached to one SM's RT unit. */
class RayPredictor
{
  public:
    RayPredictor(const PredictorConfig &config, const Bvh &bvh);

    /**
     * Timed lookup.
     * @param ray The new ray.
     * @param cycle Cycle the lookup is enqueued.
     * @param ready_cycle Out: cycle the lookup result is available
     *        (includes port queueing and access latency).
     * @return The prediction, or nullopt if the table misses.
     */
    std::optional<Prediction> lookup(const Ray &ray, Cycle cycle,
                                     Cycle &ready_cycle);

    /**
     * Allocation-free timed lookup: identical semantics, timing, and
     * accounting to lookup(), writing the predicted nodes into
     * @p nodes (cleared first, left empty on a miss). @return true on a
     * table hit. The RT unit's hot path uses this with a reused
     * scratch vector.
     */
    bool lookupInto(const Ray &ray, Cycle cycle, Cycle &ready_cycle,
                    std::vector<std::uint32_t> &nodes);

    /**
     * Timed training update: stores the Go-Up-Level ancestor of
     * @p hit_leaf under the ray's hash. Fire-and-forget for the ray's
     * own latency, but occupies an update port.
     */
    void update(const Ray &ray, std::uint32_t hit_leaf, Cycle cycle);

    /**
     * Attach the owning SM's observer port (nullptr detaches). Every
     * lookup and training update is then reported, and with a checker
     * attached lookups verify that timed results never become ready
     * before they were issued (port scheduling can delay, never
     * time-travel).
     */
    void
    setObserver(ObserverPort *obs)
    {
        obs_ = obs;
    }

    /**
     * Telemetry probe: copy the cumulative lookup/hit/train counters
     * into the owning SM's sample row (see util/telemetry.hpp). Pure
     * observer.
     */
    void snapshotInto(TelemetrySmSample &out) const;

    /**
     * Rebind to a new frame's BVH while keeping the trained table
     * (dynamic scenes, Section 8 future work). Valid when the BVH was
     * refit — node indices must still identify the same subtrees.
     * Also refreshes the hasher against the (possibly grown) scene
     * bounds.
     */
    void rebind(const Bvh &bvh);

    /** Invalidate all trained state (e.g., after a full BVH rebuild). */
    void resetTable();

    const PredictorTable &
    table() const
    {
        return table_;
    }

    /**
     * End-of-run sweep: the unit's counters and the table's must tell
     * one story — every lookup is exactly one table hit or miss, and
     * every prediction came from a table hit.
     */
    void checkFinalState(InvariantChecker &check) const;

    const PredictorConfig &
    config() const
    {
        return config_;
    }

    const StatGroup &
    stats() const
    {
        return stats_;
    }

    void
    clearStats()
    {
        stats_.clear();
        table_.clearStats();
    }

  private:
    /** Schedule one access on the port array; returns completion cycle. */
    Cycle schedulePort(std::vector<Cycle> &ports, Cycle cycle);

    PredictorConfig config_;
    const Bvh *bvh_;
    RayHasher hasher_;
    PredictorTable table_;
    std::vector<Cycle> lookupPorts_;
    std::vector<Cycle> updatePorts_;
    StatGroup stats_;
    ObserverPort *obs_ = nullptr;
};

} // namespace rtp
