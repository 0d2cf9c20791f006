/**
 * @file
 * Per-bounce path-tracing driver: the full path-tracing pass of the
 * incoherent-workload study (ROADMAP item 1).
 *
 * Unlike generateGiRays — which builds one flat batch by *reference*
 * traversal on the host — this driver emits every bounce into the
 * simulator: wave 0 is the camera rays, each later wave is built from
 * the previous wave's *simulated* hit results (RayResult), so the
 * predictor sees the closest-hit chain in the order and grouping real
 * hardware would, and its trained state persists across waves through
 * a PredictorSet (warm across bounces, cold at wave 0).
 *
 * Determinism: simulated results are byte-identical at any
 * RTP_SIM_THREADS setting (the repo's standing contract), bounce
 * sampling consumes one PCG32 stream in submission
 * order, and stat merging is order-fixed — so the outcome is
 * byte-identical across hosts and thread counts.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "exp/workload.hpp"
#include "gpu/simulator.hpp"

namespace rtp {

/** Outcome of one multi-wave path-tracing pass. */
struct PathTraceOutcome
{
    /**
     * Merged across waves: cycles sum (waves are sequential frames),
     * stat groups merge, the efficiency/bank doubles are
     * cycle-weighted means, rayResults concatenate in wave order.
     */
    SimResult total;
    std::vector<std::size_t> waveRays; //!< rays submitted per wave
    std::uint64_t totalRays = 0;
};

/**
 * Run the full path-tracing pass over @p w: camera rays, then
 * config.raygen-seeded diffuse bounces up to @p raygen.pathBounces
 * deep, each wave simulated under @p config. Empty waves end the pass
 * early.
 */
PathTraceOutcome runPathTrace(const Workload &w, const SimConfig &config,
                              const RayGenConfig &raygen);

} // namespace rtp
