/**
 * @file
 * Heap contracts of Simulation::run. The RT units read the caller's ray
 * batch in place and write each result straight to its slot of the run's
 * result array, so a run makes no allocation that grows with the batch
 * except that array. Every RT unit pool is sized when the unit is built,
 * on the driver thread, so the sharded loop's workers make no heap call.
 * Shares the counting executable (alloc_count.hpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_count.hpp"
#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

struct Frame
{
    Scene scene = makeScene(SceneId::Sibenik, 0.12f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    std::vector<Ray> rays;

    Frame()
    {
        RayGenConfig config;
        config.width = 96;
        config.height = 96;
        config.samplesPerPixel = 2;
        config.viewportFraction = 0.3f;
        rays = generateAoRays(scene, bvh, config).rays;
    }
};

const Frame &
frame()
{
    static const Frame f;
    return f;
}

TEST(SimAlloc, ShardedWorkersMakeNoHeapCalls)
{
    // Warp slot lists, traversal stacks, the event queue's nodes and the
    // pending-fetch pools are all sized when each RT unit is built.
    const Frame &f = frame();
    for (SimConfig config : {SimConfig::baseline(), SimConfig::proposed()}) {
        config.numSms = 4;
        config.simThreads = 2;
        Simulation sim(config, f.bvh, f.scene.mesh.triangles());
        const std::uint64_t before = workerHeapCalls();
        const SimResult r = sim.run(f.rays);
        EXPECT_EQ(workerHeapCalls() - before, 0u) << describe(config);
        EXPECT_EQ(r.stats.get("rays_completed"), f.rays.size());
    }
}

TEST(SimAlloc, NoAllocationLargerThanTheResults)
{
    // Two SMs: a per-SM copy of the rays (18 B a ray each) would be
    // larger than the 16 B a ray result array, so this pins that the
    // units read the caller's batch in place at 1 and 2 workers.
    const Frame &f = frame();
    const std::size_t results = f.rays.size() * sizeof(RayResult);
    for (std::uint32_t threads : {1u, 2u}) {
        SimConfig config = SimConfig::proposed();
        config.numSms = 2;
        config.simThreads = threads;
        Simulation sim(config, f.bvh, f.scene.mesh.triangles());
        resetLargestAllocation();
        const SimResult r = sim.run(f.rays);
        EXPECT_LE(largestAllocation(), results) << threads << " workers";
        EXPECT_EQ(r.rayResults.size(), f.rays.size());
    }
}

TEST(RtUnit, WritesOnlyItsShareOfResults)
{
    // One SM's chunks of a large frame: the unit writes exactly those
    // chunks' result slots, leaves every other slot alone, and keeps no
    // storage sized by the frame.
    const Frame &f = frame();
    const auto &tris = f.scene.mesh.triangles();
    constexpr std::size_t kFrame = 1u << 16;
    constexpr std::uint32_t kFirst = 3, kStride = 512;
    std::vector<Ray> rays(kFrame);
    for (std::size_t i = 0; i < kFrame; ++i)
        rays[i] = f.rays[i % f.rays.size()];
    RayResult sentinel;
    sentinel.t = -1.0f;
    sentinel.prim = 0xdeadbeef;
    std::vector<RayResult> results(kFrame, sentinel);

    RtUnitConfig config;
    MemorySystem mem(MemoryConfig{}, 1);
    RtUnit rt(config, f.bvh, tris, mem, 0, nullptr);
    resetLargestAllocation();
    rt.submit(rays, kFirst, kStride, results);
    while (!rt.finished())
        rt.step();
    // The smallest per-frame array a unit could keep: a 4 B id a ray.
    EXPECT_LT(largestAllocation(), kFrame * sizeof(std::uint32_t));

    BvhTraversal trav(f.bvh, tris);
    std::size_t mine = 0;
    for (std::size_t i = 0; i < kFrame; ++i) {
        if ((i / config.warpSize) % kStride == kFirst) {
            ++mine;
            EXPECT_EQ(results[i].hit, trav.anyHit(rays[i]).hit) << i;
            EXPECT_NE(results[i].t, sentinel.t) << i;
            EXPECT_NE(results[i].prim, sentinel.prim) << i;
        } else {
            EXPECT_EQ(results[i].t, sentinel.t) << i;
            EXPECT_EQ(results[i].prim, sentinel.prim) << i;
        }
    }
    EXPECT_EQ(mine, 4u * config.warpSize);
    EXPECT_EQ(rt.stats().get("rays_completed"), mine);
}

} // namespace
} // namespace rtp
