/**
 * @file
 * Multi-SM simulation driver.
 *
 * Shares a ray batch across SMs in warp-sized chunks, round-robin, then
 * runs a global event loop that advances whichever SM has the earliest
 * pending event so the shared L2 / DRAM timing state is exercised in
 * (approximate) global cycle order. The RT units read their chunks from
 * the caller's batch and write each ray's result in place, into
 * SimResult::rayResults: a run holds no per-SM copy of rays or results.
 *
 * Two interchangeable event-loop implementations sit behind the facade,
 * selected by SimConfig::eventLoopWorkers() (simThreads, or
 * RTP_SIM_THREADS in the harness): the sequential reference loop (one
 * worker) and a sharded loop that runs each SM's events on one of
 * several worker threads (the default for 2 or more SMs when the host
 * has CPUs free), synchronising at the shared L2/DRAM seam through the
 * ShardGate protocol (gpu/shard.hpp). The two are byte-identical in
 * every output — SimResult JSON, trace, profile, and checker
 * behaviour — at any thread count; tests/test_sharded_equiv and the CI
 * determinism steps lock this in. Every SM owns a distinct predictor,
 * which is the per-SM-private state the shard protocol rests on.
 *
 * The one entry point is the Simulation facade: construct it from a
 * SimConfig and a scene (BVH + triangles), optionally with a
 * PredictorSet for cross-frame predictor state, then call run(rays) as
 * many times as needed.
 */

#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bvh/bvh.hpp"
#include "core/predictor.hpp"
#include "gpu/config.hpp"
#include "rtunit/rt_unit.hpp"

namespace rtp {

/** Aggregated outcome of one simulation run. */
struct SimResult
{
    Cycle cycles = 0;          //!< completion cycle of the last ray
    std::vector<RayResult> rayResults; //!< indexed by submitted ray order
    StatGroup stats;           //!< merged RT unit + predictor counters
    StatGroup memStats;        //!< merged cache/DRAM counters
    double simtEfficiency = 0.0;
    double avgBusyBanks = 0.0;

    /** Fraction helpers over completed rays. */
    double predictedRate() const;
    double verifiedRate() const;
    double hitRate() const;

    /**
     * Total node + triangle fetches performed by rays (pre-merge, the
     * accounting used by Figure 13 / Equation 1): each BVH node or leaf
     * primitive-block fetch of each ray counts once.
     */
    std::uint64_t totalMemAccesses() const;

    /** Requests that reached the L1 after intra-warp merging. */
    std::uint64_t postMergeAccesses() const;

    /**
     * Serialize the run outcome (cycles, rates, stat groups — not the
     * per-ray results) as one JSON object. Key order and number
     * formatting are deterministic, so two byte-identical runs produce
     * byte-identical JSON regardless of harness thread count.
     */
    void toJson(std::ostream &os) const;

    /** @return toJson output as a string. */
    std::string toJson() const;
};

/**
 * Per-SM predictor state that outlives individual runs (the paper's
 * Section 8 cross-frame experiment). Bind the set to each frame's BVH
 * before handing it to a Simulation; trained tables survive rebinds
 * unless @p preserve_state is false (or resetTables() is called).
 */
class PredictorSet
{
  public:
    PredictorSet() = default;

    PredictorSet(PredictorSet &&) = default;
    PredictorSet &operator=(PredictorSet &&) = default;

    /**
     * Create (first call) or rebind (later calls) one predictor per SM.
     * A rebind refreshes the hasher against the new BVH's bounds,
     * clears per-run statistics, and — when @p preserve_state is
     * false — drops the trained tables so every frame starts cold.
     * Node indices of a refit BVH must still identify the same
     * subtrees for preserved state to be meaningful.
     */
    void bind(const PredictorConfig &config, std::uint32_t num_sms,
              const Bvh &bvh, bool preserve_state = true);

    /** Invalidate all trained tables (e.g., after a full rebuild). */
    void resetTables();

    bool
    empty() const
    {
        return predictors_.empty();
    }

    std::size_t
    size() const
    {
        return predictors_.size();
    }

    /** Non-owning per-SM pointers (index = SM id). */
    std::vector<RayPredictor *> pointers() const;

  private:
    std::vector<std::unique_ptr<RayPredictor>> predictors_;
};

/**
 * One configured GPU bound to one scene. run(rays) executes a complete
 * simulation: every piece of mutable timing state (RtUnits, caches,
 * DRAM, ray buffers — and, by default, predictors) is constructed fresh
 * inside the call, so repeated runs are independent and repeatable.
 *
 * Predictor state (only when config.predictor.enabled):
 * - Default: predictors are owned and start cold each run.
 * - PredictorSet constructor: predictors live in the caller's set and
 *   carry trained state across runs/frames. bind() the set for
 *   config.numSms SMs before run(); run() throws std::invalid_argument
 *   when the set's size differs. With the predictor disabled the set is
 *   ignored, so an empty set is fine.
 *
 * Thread-safety: concurrent run() calls on DIFFERENT Simulation objects
 * sharing one scene are safe in the default mode (the scene is only
 * read): every piece of mutable timing state is constructed per call,
 * which the parallel sweep harness (exp/parallel.hpp) relies on. Runs
 * that share a PredictorSet mutate it and must not overlap.
 *
 * The constructor validates the configuration against the scene
 * (SimConfig::validate) and throws std::invalid_argument on
 * inconsistent settings.
 */
class Simulation
{
  public:
    /** Self-contained mode: predictors (if enabled) owned per run. */
    Simulation(const SimConfig &config, const Bvh &bvh,
               const std::vector<Triangle> &triangles);

    /** Cross-frame mode: predictor state lives in @p predictors. */
    Simulation(const SimConfig &config, const Bvh &bvh,
               const std::vector<Triangle> &triangles,
               PredictorSet &predictors);

    /** Simulate one ray workload; see the class contract above. */
    SimResult run(const std::vector<Ray> &rays);

    const SimConfig &
    config() const
    {
        return config_;
    }

  private:
    SimConfig config_;
    const Bvh *bvh_;
    const std::vector<Triangle> *triangles_;
    PredictorSet *externalSet_ = nullptr; //!< cross-frame mode
};

} // namespace rtp
