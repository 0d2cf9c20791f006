/**
 * @file
 * Per-bounce path-tracing driver tests (exp/path_driver.hpp): wave
 * shape, determinism, and the visibility contract across predictor
 * configurations — every wave's contents derive from simulated hits,
 * which no predictor may change.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "exp/path_driver.hpp"

namespace rtp {
namespace {

const Workload &
workload()
{
    static WorkloadCache cache = [] {
        WorkloadConfig wc;
        wc.detail = 0.05f;
        wc.raygen.width = 12;
        wc.raygen.height = 12;
        wc.raygen.pathBounces = 3;
        return WorkloadCache(wc);
    }();
    return cache.get(SceneId::FireplaceRoom);
}

RayGenConfig
raygen()
{
    RayGenConfig rg;
    rg.width = 12;
    rg.height = 12;
    rg.pathBounces = 3;
    return rg;
}

TEST(PathDriver, WaveShapeAndTotals)
{
    PathTraceOutcome out =
        runPathTrace(workload(), SimConfig::baseline(), raygen());
    ASSERT_FALSE(out.waveRays.empty());
    EXPECT_LE(out.waveRays.size(),
              static_cast<std::size_t>(raygen().pathBounces) + 1);
    EXPECT_EQ(out.waveRays[0], 144u); // camera wave: one per pixel
    std::size_t sum = std::accumulate(out.waveRays.begin(),
                                      out.waveRays.end(),
                                      std::size_t{0});
    EXPECT_EQ(out.totalRays, sum);
    EXPECT_EQ(out.total.rayResults.size(), sum);
    EXPECT_GT(out.total.cycles, 0u);
    // Each wave emits at most one bounce per surviving segment.
    for (std::size_t i = 1; i < out.waveRays.size(); ++i)
        EXPECT_LE(out.waveRays[i], out.waveRays[i - 1]);
}

TEST(PathDriver, DeterministicAcrossRuns)
{
    PathTraceOutcome a =
        runPathTrace(workload(), SimConfig::proposed(), raygen());
    PathTraceOutcome b =
        runPathTrace(workload(), SimConfig::proposed(), raygen());
    EXPECT_EQ(a.total.cycles, b.total.cycles);
    EXPECT_EQ(a.waveRays, b.waveRays);
    EXPECT_EQ(a.total.toJson(), b.total.toJson());
}

/**
 * Predictors change timing, never visibility — so the bounce chains,
 * wave sizes, and per-ray hit results are identical across baseline
 * and predictor runs of the same pass.
 */
TEST(PathDriver, VisibilityInvariantAcrossPredictorConfigs)
{
    PathTraceOutcome base =
        runPathTrace(workload(), SimConfig::baseline(), raygen());
    PathTraceOutcome hash =
        runPathTrace(workload(), SimConfig::proposed(), raygen());

    EXPECT_EQ(hash.waveRays, base.waveRays);
    ASSERT_EQ(hash.total.rayResults.size(), base.total.rayResults.size());
    for (std::size_t i = 0; i < base.total.rayResults.size(); ++i) {
        const RayResult &x = base.total.rayResults[i];
        const RayResult &y = hash.total.rayResults[i];
        ASSERT_EQ(x.hit, y.hit) << "ray " << i;
        if (x.hit) {
            std::uint32_t bx, by;
            std::memcpy(&bx, &x.t, sizeof bx);
            std::memcpy(&by, &y.t, sizeof by);
            ASSERT_EQ(bx, by) << "ray " << i;
            ASSERT_EQ(x.prim, y.prim) << "ray " << i;
        }
    }

    // The warm predictor actually worked across waves: some rays
    // beyond the camera wave were predicted.
    EXPECT_GT(hash.total.stats.get("rays_predicted"), 0u);
}

TEST(PathDriver, BouncesKnobBoundsWaves)
{
    RayGenConfig rg = raygen();
    rg.pathBounces = 0; // camera wave only
    PathTraceOutcome out =
        runPathTrace(workload(), SimConfig::baseline(), rg);
    EXPECT_EQ(out.waveRays.size(), 1u);
    EXPECT_EQ(out.totalRays, 144u);

    rg.pathBounces = 1;
    PathTraceOutcome two =
        runPathTrace(workload(), SimConfig::baseline(), rg);
    EXPECT_LE(two.waveRays.size(), 2u);
    EXPECT_GE(two.totalRays, out.totalRays);
}

} // namespace
} // namespace rtp
