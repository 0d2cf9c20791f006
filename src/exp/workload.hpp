/**
 * @file
 * Experiment workload builder: caches built scenes/BVHs/ray batches so a
 * bench binary sweeping many configurations only pays for scene
 * construction once per scene.
 */

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "bvh/builder.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"

namespace rtp {

/** Everything a simulation run needs for one scene. */
struct Workload
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;        //!< unsorted AO rays
    RayBatch aoSorted;  //!< Morton-sorted copies of the same rays
};

/** Workload-building knobs shared by all experiments. */
struct WorkloadConfig
{
    float detail = 0.12f;  //!< scene tessellation scale
    RayGenConfig raygen;   //!< viewport / spp / AO lengths

    /**
     * Reads the RTP_SCALE environment variable (a small integer) and
     * scales detail and viewport accordingly: scale 1 is the fast
     * default, larger values approach the paper's setup.
     */
    static WorkloadConfig fromEnvironment();
};

/**
 * Builds and caches workloads per scene.
 *
 * The cache itself is NOT thread-safe: call get()/prebuild()/getAll()
 * from one thread only. prebuild() internally constructs the missing
 * workloads concurrently (scene generation, BVH build, and ray
 * generation are pure), then inserts them serially; the returned
 * Workload references are immutable afterwards and safe to share
 * read-only across sweep worker threads.
 */
class WorkloadCache
{
  public:
    explicit WorkloadCache(const WorkloadConfig &config = {})
        : config_(config)
    {}

    /** Build (or fetch) the workload for @p id. */
    const Workload &get(SceneId id);

    /** Build every missing workload in @p ids through runSweep. */
    void prebuild(const std::vector<SceneId> &ids);

    /** prebuild() + collect pointers, preserving @p ids order. */
    std::vector<const Workload *> getAll(const std::vector<SceneId> &ids);

    const WorkloadConfig &
    config() const
    {
        return config_;
    }

  private:
    WorkloadConfig config_;
    std::map<SceneId, std::unique_ptr<Workload>> cache_;
};

/** @return Geometric mean of @p values (empty -> 1.0). */
double geomean(const std::vector<double> &values);

} // namespace rtp
