/** @file Multi-SM simulation driver tests. */

#include <gtest/gtest.h>

#include <sstream>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/telemetry.hpp"
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

TEST(Simulator, TelemetryDoesNotPerturbSimulation)
{
    // Same contract as tracing: an attached TelemetrySampler must not
    // change cycles, statistics, or per-ray results. Byte-compare the
    // stats JSON so even counter bookkeeping perturbation is caught.
    for (const SimConfig &base :
         {SimConfig::baseline(), SimConfig::proposed()}) {
        SimResult plain = runRig(base);
        SimConfig sampled_cfg = base;
        TelemetrySampler sampler(64);
        sampled_cfg.telemetry = &sampler;
        SimResult sampled = runRig(sampled_cfg);
        EXPECT_GT(sampler.records().size(), 2u);
        EXPECT_EQ(plain.cycles, sampled.cycles);
        EXPECT_EQ(plain.toJson(), sampled.toJson());
        for (std::size_t i = 0; i < rig().ao.rays.size(); ++i) {
            ASSERT_EQ(plain.rayResults[i].hit,
                      sampled.rayResults[i].hit)
                << "ray " << i;
        }
    }
}

TEST(Simulator, TelemetryTimelineIsMonotoneAndPopulated)
{
    // Samples are taken every `period` cycles in order, cumulative
    // counters never decrease, and the final finish() record lands at
    // the end-of-run cycle.
    SimConfig cfg = SimConfig::proposed();
    TelemetrySampler sampler(128);
    cfg.telemetry = &sampler;
    SimResult r = runRig(cfg);
    const auto &recs = sampler.records();
    ASSERT_GT(recs.size(), 2u);
    EXPECT_EQ(sampler.droppedRecords(), 0u);
    EXPECT_EQ(recs.back().cycle, r.cycles);
    std::uint64_t prev_cycle = 0;
    std::uint64_t prev_completed = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(recs[i].cycle, prev_cycle) << "record " << i;
        }
        prev_cycle = recs[i].cycle;
        ASSERT_EQ(recs[i].sms.size(), cfg.numSms);
        std::uint64_t completed = 0;
        for (const TelemetrySmSample &sm : recs[i].sms)
            completed += sm.rays_completed;
        EXPECT_GE(completed, prev_completed) << "record " << i;
        prev_completed = completed;
    }
    // By the final record every ray has been counted as completed.
    EXPECT_EQ(prev_completed, rig().ao.rays.size());
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

TEST(Simulator, TelemetryHeaderReportsSmCountWithoutRecords)
{
    // Regression: the JSON header used to derive num_sms from the
    // captured records (falling back to the probe list, which finish()
    // clears), so a run too short to record any sample — or one whose
    // record store was full — reported "num_sms":0.
    TelemetrySampler sampler(64, /*max_records=*/0);
    SimConfig cfg = SimConfig::proposed();
    cfg.telemetry = &sampler;
    runRig(cfg);
    EXPECT_TRUE(sampler.records().empty());
    EXPECT_GT(sampler.droppedRecords(), 0u);
    std::ostringstream os;
    sampler.writeJson(os);
    EXPECT_NE(os.str().find("\"num_sms\":" +
                            std::to_string(cfg.numSms)),
              std::string::npos);
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
