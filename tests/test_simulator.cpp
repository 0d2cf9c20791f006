/** @file Multi-SM simulation driver tests. */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/trace.hpp"

namespace rtp {
namespace {

struct Rig
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;

    Rig()
        : scene(makeScene(SceneId::FireplaceRoom, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig cfg;
        cfg.width = 32;
        cfg.height = 32;
        cfg.samplesPerPixel = 2;
        cfg.viewportFraction = 0.3f;
        ao = generateAoRays(scene, bvh, cfg);
    }
};

Rig &
rig()
{
    static Rig r;
    return r;
}

/** Run @p cfg over the rig's AO rays. */
SimResult
runRig(const SimConfig &cfg)
{
    return Simulation(cfg, rig().bvh, rig().scene.mesh.triangles())
        .run(rig().ao.rays);
}

TEST(Simulator, AllRaysComplete)
{
    SimResult r = runRig(SimConfig::baseline());
    EXPECT_EQ(r.stats.get("rays_completed"), rig().ao.rays.size());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.rayResults.size(), rig().ao.rays.size());
}

TEST(Simulator, ResultsMatchReferenceBothConfigs)
{
    for (const SimConfig &cfg :
         {SimConfig::baseline(), SimConfig::proposed()}) {
        SimResult r = runRig(cfg);
        BvhTraversal trav(rig().bvh, rig().scene.mesh.triangles());
        for (std::size_t i = 0; i < rig().ao.rays.size(); ++i) {
            bool ref = trav.anyHit(rig().ao.rays[i]).hit;
            ASSERT_EQ(ref, r.rayResults[i].hit) << "ray " << i;
        }
    }
}

TEST(Simulator, DeterministicRepeatRuns)
{
    SimConfig cfg = SimConfig::proposed();
    SimResult a = runRig(cfg);
    SimResult b = runRig(cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.get("rays_verified"), b.stats.get("rays_verified"));
    EXPECT_EQ(a.totalMemAccesses(), b.totalMemAccesses());
}

TEST(Simulator, TracingDoesNotPerturbSimulation)
{
    // Acceptance contract of the observability layer: enabling a trace
    // sink must not change simulated cycles, statistics, or per-ray
    // results — emission is a pure observer.
    for (const SimConfig &base :
         {SimConfig::baseline(), SimConfig::proposed()}) {
        SimResult plain = runRig(base);
        SimConfig traced_cfg = base;
        TraceSink sink;
        traced_cfg.trace = &sink;
        SimResult traced = runRig(traced_cfg);
        EXPECT_GT(sink.size(), 0u);
        EXPECT_EQ(plain.cycles, traced.cycles);
        EXPECT_EQ(plain.toJson(), traced.toJson());
        for (std::size_t i = 0; i < rig().ao.rays.size(); ++i) {
            ASSERT_EQ(plain.rayResults[i].hit, traced.rayResults[i].hit)
                << "ray " << i;
        }
    }
}

TEST(Simulator, TraceCoversComponentTaxonomy)
{
    SimConfig cfg = SimConfig::proposed();
    TraceSink sink;
    cfg.trace = &sink;
    runRig(cfg);
    std::uint64_t warps = 0, fetches = 0, cache = 0, lookups = 0;
    for (const TraceEvent &ev : sink.snapshot()) {
        switch (ev.kind) {
        case TraceEventKind::WarpDispatch:
        case TraceEventKind::WarpComplete: warps++; break;
        case TraceEventKind::NodeFetchIssue:
        case TraceEventKind::NodeFetchReady: fetches++; break;
        case TraceEventKind::CacheHit:
        case TraceEventKind::CacheMiss: cache++; break;
        case TraceEventKind::PredictorLookup: lookups++; break;
        default: break;
        }
    }
    EXPECT_GT(warps, 0u);
    EXPECT_GT(fetches, 0u);
    EXPECT_GT(cache, 0u);
    EXPECT_GT(lookups, 0u);
}

TEST(Simulator, MultiSmDistributesWork)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.numSms = 4;
    SimResult r = runRig(cfg);
    EXPECT_EQ(r.stats.get("rays_completed"), rig().ao.rays.size());
    // More SMs -> fewer cycles for the same workload (more parallelism).
    SimConfig one = cfg;
    one.numSms = 1;
    SimResult r1 = runRig(one);
    EXPECT_LT(r.cycles, r1.cycles);
}

TEST(Simulator, RateHelpersInRange)
{
    SimResult r = runRig(SimConfig::proposed());
    EXPECT_GE(r.predictedRate(), 0.0);
    EXPECT_LE(r.predictedRate(), 1.0);
    EXPECT_GE(r.verifiedRate(), 0.0);
    EXPECT_LE(r.verifiedRate(), r.predictedRate());
    EXPECT_GE(r.hitRate(), 0.0);
    EXPECT_LE(r.hitRate(), 1.0);
    // Verified rays are a subset of hit rays.
    EXPECT_LE(r.verifiedRate(), r.hitRate() + 1e-9);
}

TEST(Simulator, BaselineHasNoPredictorActivity)
{
    SimResult r = runRig(SimConfig::baseline());
    EXPECT_EQ(r.stats.get("rays_predicted"), 0u);
    EXPECT_EQ(r.stats.get("lookups"), 0u);
    EXPECT_EQ(r.predictedRate(), 0.0);
}

TEST(Simulator, MemStatsPopulated)
{
    SimResult r = runRig(SimConfig::baseline());
    EXPECT_GT(r.memStats.get("l1.hits") + r.memStats.get("l1.misses"),
              0u);
    EXPECT_GT(r.postMergeAccesses(), 0u);
    EXPECT_LE(r.postMergeAccesses(), r.totalMemAccesses() * 3);
}

TEST(Simulator, DistinctPredictorStatsStillSum)
{
    // Each SM owns one predictor of the set; the result carries the
    // sum of their counters.
    SimConfig cfg = SimConfig::proposed();
    cfg.numSms = 2;
    PredictorSet set;
    set.bind(cfg.predictor, cfg.numSms, rig().bvh);
    SimResult r =
        Simulation(cfg, rig().bvh, rig().scene.mesh.triangles(), set)
            .run(rig().ao.rays);
    std::vector<RayPredictor *> preds = set.pointers();
    ASSERT_GT(preds[0]->stats().get("lookups"), 0u);
    ASSERT_GT(preds[1]->stats().get("lookups"), 0u);
    EXPECT_EQ(r.stats.get("lookups"),
              preds[0]->stats().get("lookups") +
                  preds[1]->stats().get("lookups"));
}

TEST(Simulator, EmptyWorkload)
{
    SimResult r =
        Simulation(SimConfig::baseline(), rig().bvh,
                   rig().scene.mesh.triangles())
            .run({});
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.stats.get("rays_completed"), 0u);
}

} // namespace
} // namespace rtp
