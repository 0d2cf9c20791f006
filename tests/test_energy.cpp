/** @file Energy model tests (Table 4 accounting). */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "energy/energy_model.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

SimResult
syntheticResult()
{
    SimResult r;
    r.cycles = 1000;
    r.stats.inc("rays_completed", 100);
    r.stats.inc("lookups", 100);
    r.stats.inc("trained", 60);
    r.stats.inc("rays_predicted", 80);
    r.stats.inc("rays_collected", 80);
    r.stats.inc("ray_node_fetches", 2000);
    r.stats.inc("ray_tri_fetches", 500);
    r.stats.inc("box_tests", 4000);
    r.stats.inc("tri_tests", 900);
    r.memStats.inc("l1.hits", 1500);
    r.memStats.inc("l1.misses", 300);
    r.memStats.inc("l2.hits", 250);
    r.memStats.inc("l2.misses", 50);
    r.memStats.inc("dram.accesses", 50);
    return r;
}

TEST(Energy, ZeroRaysGivesZero)
{
    SimResult r;
    EnergyBreakdown b = computeEnergy(r, 2);
    EXPECT_EQ(b.total(), 0.0);
}

TEST(Energy, ComponentsArePositive)
{
    EnergyBreakdown b = computeEnergy(syntheticResult(), 2);
    EXPECT_GT(b.baseGpu, 0.0);
    EXPECT_GT(b.predictorTable, 0.0);
    EXPECT_GT(b.warpRepacking, 0.0);
    EXPECT_GT(b.traversalStack, 0.0);
    EXPECT_GT(b.rayBuffer, 0.0);
    EXPECT_GT(b.rayIntersections, 0.0);
    EXPECT_NEAR(b.total(),
                b.baseGpu + b.predictorTable + b.warpRepacking +
                    b.traversalStack + b.rayBuffer + b.rayIntersections,
                1e-9);
}

TEST(Energy, BaseGpuDominates)
{
    // Table 4's key shape: the base GPU (DRAM + core) dominates and the
    // predictor structures are tiny in comparison.
    EnergyBreakdown b = computeEnergy(syntheticResult(), 2);
    EXPECT_GT(b.baseGpu, 10.0 * b.predictorTable);
    EXPECT_GT(b.baseGpu, 10.0 * b.warpRepacking);
}

TEST(Energy, ScalesWithEvents)
{
    SimResult small = syntheticResult();
    SimResult big = syntheticResult();
    big.memStats.inc("dram.accesses", 500); // 10x more DRAM
    EnergyBreakdown bs = computeEnergy(small, 2);
    EnergyBreakdown bb = computeEnergy(big, 2);
    EXPECT_GT(bb.baseGpu, bs.baseGpu);
}

TEST(Energy, CustomParamsRespected)
{
    EnergyParams params;
    params.dramAccess = 0.0;
    params.coreCyclePerSm = 0.0;
    params.l1Access = 0.0;
    params.l2Access = 0.0;
    EnergyBreakdown b = computeEnergy(syntheticResult(), 2, params);
    EXPECT_EQ(b.baseGpu, 0.0);
    EXPECT_GT(b.rayIntersections, 0.0);
}

TEST(Energy, PerRayNormalisation)
{
    // Doubling rays with the same totals halves per-ray energy.
    SimResult r = syntheticResult();
    EnergyBreakdown one = computeEnergy(r, 2);
    r.stats.inc("rays_completed", 100); // now 200 rays
    EnergyBreakdown two = computeEnergy(r, 2);
    EXPECT_NEAR(two.baseGpu, one.baseGpu / 2.0, one.baseGpu * 0.01);
}

TEST(Energy, RealPredictorRunChargesEveryComponent)
{
    // Regression: computeEnergy used to read counters through raw
    // string literals; a renamed counter left the stale string silently
    // returning 0, zeroing that component in every published breakdown.
    // A real predictor-enabled run must charge all six components.
    Scene scene = makeScene(SceneId::FireplaceRoom, 0.05f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    RayGenConfig cfg;
    cfg.width = 24;
    cfg.height = 24;
    cfg.samplesPerPixel = 1;
    cfg.viewportFraction = 0.3f;
    RayBatch ao = generateAoRays(scene, bvh, cfg);
    SimConfig sim = SimConfig::proposed();
    SimResult r =
        Simulation(sim, bvh, scene.mesh.triangles()).run(ao.rays);
    EnergyBreakdown b = computeEnergy(r, sim.numSms);
    EXPECT_GT(b.baseGpu, 0.0);
    EXPECT_GT(b.predictorTable, 0.0);
    EXPECT_GT(b.warpRepacking, 0.0);
    EXPECT_GT(b.traversalStack, 0.0);
    EXPECT_GT(b.rayBuffer, 0.0);
    EXPECT_GT(b.rayIntersections, 0.0);
}

} // namespace
} // namespace rtp
