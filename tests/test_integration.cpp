/** @file End-to-end integration tests: the paper's headline behaviours. */

#include <gtest/gtest.h>

#include "energy/energy_model.hpp"
#include "exp/harness.hpp"

namespace rtp {
namespace {

WorkloadCache &
cache()
{
    // Match the bench default scale: the predictor's gains depend on
    // ray-population locality, so the integration thresholds are
    // asserted at the same workload the benches report.
    static WorkloadCache c(WorkloadConfig::fromEnvironment());
    return c;
}

/** Baseline vs @p treatment over one scene's AO rays, via the harness. */
RunOutcome
aoPair(const Workload &w, const SimConfig &treatment,
       bool sorted = false)
{
    return runPairsParallel({&w}, SimConfig::baseline(), treatment,
                            sorted, nullptr)
        .front();
}

TEST(Integration, PredictorSpeedsUpAoWorkload)
{
    // Figure 12's headline: the proposed predictor (with repacking)
    // beats the baseline RT unit on unsorted AO rays.
    const Workload &w = cache().get(SceneId::Sibenik);
    RunOutcome out = aoPair(w, SimConfig::proposed());
    EXPECT_GT(out.speedup(), 1.05) << "predictor should win clearly";
}

TEST(Integration, PredictorReducesMemoryFetches)
{
    // Figure 13: net per-ray fetch reduction despite mispredictions.
    const Workload &w = cache().get(SceneId::CrytekSponza);
    RunOutcome out = aoPair(w, SimConfig::proposed());
    EXPECT_LT(out.memAccessDelta(), -0.02);
}

TEST(Integration, SortedRaysBenefitLess)
{
    const Workload &w = cache().get(SceneId::Sibenik);
    RunOutcome unsorted = aoPair(w, SimConfig::proposed(), false);
    RunOutcome sorted = aoPair(w, SimConfig::proposed(), true);
    EXPECT_LT(sorted.speedup(), unsorted.speedup() * 1.02)
        << "sorting pre-extracts the coherence the predictor exploits";
}

TEST(Integration, RepackingRecoversMispredictionTail)
{
    // Figure 15: repacking must improve on the predictor without it.
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    SimConfig no_repack = SimConfig::proposed();
    no_repack.rt.repackEnabled = false;
    SimConfig repack = SimConfig::proposed();
    std::vector<SimResult> r = runSimPoints(
        {makePoint(w, no_repack), makePoint(w, repack)}, nullptr);
    EXPECT_LT(r[1].cycles, r[0].cycles);
}

TEST(Integration, Equation1EstimateTracksMeasurement)
{
    // Table 5: nodes-skipped estimate v*n - p*k*m should be within a
    // factor of ~2 of the measured fetch reduction.
    const Workload &w = cache().get(SceneId::Sibenik);
    RunOutcome out = aoPair(w, SimConfig::proposed());
    double rays = static_cast<double>(
        out.treatment.stats.get("rays_completed"));
    double n = static_cast<double>(out.baseline.totalMemAccesses()) /
               rays;
    double p = out.treatment.predictedRate();
    double v = out.treatment.verifiedRate();
    double predicted_rays = static_cast<double>(
        out.treatment.stats.get("rays_predicted"));
    double km = predicted_rays == 0
                    ? 0
                    : static_cast<double>(out.treatment.stats.get(
                          "ray_pred_phase_fetches")) /
                          predicted_rays;
    double estimated = v * n - p * km;
    double actual =
        n - static_cast<double>(out.treatment.totalMemAccesses()) / rays;
    EXPECT_GT(estimated, 0.0);
    EXPECT_GT(actual, 0.0);
    EXPECT_NEAR(estimated, actual, std::max(estimated, actual));
}

TEST(Integration, EnergyDropsWithPredictor)
{
    // Table 4: overall energy per ray decreases; the predictor table
    // itself adds only a tiny amount.
    const Workload &w = cache().get(SceneId::Sibenik);
    RunOutcome out = aoPair(w, SimConfig::proposed());
    EnergyBreakdown base = computeEnergy(out.baseline, 2);
    EnergyBreakdown pred = computeEnergy(out.treatment, 2);
    EXPECT_LT(pred.total(), base.total());
    EXPECT_LT(pred.predictorTable, 0.05 * pred.total());
    EXPECT_EQ(base.predictorTable, 0.0);
}

TEST(Integration, GoUpLevelRaisesVerifiedRate)
{
    // Figure 14's monotone trend between Go Up 0 and 4.
    const Workload &w = cache().get(SceneId::Sibenik);
    SimConfig lo = SimConfig::proposed();
    lo.predictor.goUpLevel = 0;
    SimConfig hi = SimConfig::proposed();
    hi.predictor.goUpLevel = 4;
    std::vector<SimResult> r =
        runSimPoints({makePoint(w, lo), makePoint(w, hi)}, nullptr);
    EXPECT_GT(r[1].verifiedRate(), r[0].verifiedRate());
}

TEST(Integration, MoreSmsReduceSavings)
{
    // Section 6.2.5: per-SM predictor tables see fewer rays as SM count
    // grows, reducing the predictor's fetch savings.
    const Workload &w = cache().get(SceneId::Sibenik);
    auto savings = [&](std::uint32_t sms) {
        SimConfig base = SimConfig::baseline();
        base.numSms = sms;
        SimConfig pred = SimConfig::proposed();
        pred.numSms = sms;
        RunOutcome out = runPairsParallel({&w}, base, pred, false,
                                          nullptr)
                             .front();
        return -out.memAccessDelta();
    };
    double s2 = savings(2);
    double s8 = savings(8);
    EXPECT_GT(s2, 0.0);
    EXPECT_GE(s2, s8 * 0.95);
}

TEST(Integration, GiPredictionTrimsWithoutChangingResults)
{
    // Section 6.4: closest-hit GI rays still produce correct results
    // with the predictor (tMax trimming is semantically transparent).
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    RayGenConfig rg = cache().config().raygen;
    rg.width = 24;
    rg.height = 24;
    RayBatch gi = generateGiRays(w.scene, w.bvh, rg);
    const auto &tris = w.scene.mesh.triangles();
    SimResult base =
        Simulation(SimConfig::baseline(), w.bvh, tris).run(gi.rays);
    SimResult pred =
        Simulation(SimConfig::proposed(), w.bvh, tris).run(gi.rays);
    ASSERT_EQ(base.rayResults.size(), pred.rayResults.size());
    for (std::size_t i = 0; i < base.rayResults.size(); ++i) {
        EXPECT_EQ(base.rayResults[i].hit, pred.rayResults[i].hit);
        if (base.rayResults[i].hit) {
            EXPECT_NEAR(base.rayResults[i].t, pred.rayResults[i].t,
                        1e-3f);
        }
    }
}

} // namespace
} // namespace rtp
