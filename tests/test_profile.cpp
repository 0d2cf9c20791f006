/**
 * @file
 * Cycle-attribution profiler integration tests (util/profile.hpp,
 * docs/observability.md): the conservation law (every SM's category
 * counts sum to the elapsed cycles) on every bundled scene, byte-equal
 * profile JSON between the sequential and sharded event loops, and the
 * zero-perturbation contract — simulated output identical with the
 * profiler attached or absent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "exp/workload.hpp"
#include "gpu/simulator.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/trace.hpp"

namespace rtp {
namespace {

/** Small shared workload set: every bundled scene at low detail. */
WorkloadCache &
cache()
{
    static WorkloadCache *c = [] {
        WorkloadConfig wc;
        wc.detail = 0.05f;
        wc.raygen.width = 24;
        wc.raygen.height = 24;
        wc.raygen.samplesPerPixel = 1;
        wc.raygen.viewportFraction = 0.3f;
        return new WorkloadCache(wc);
    }();
    return *c;
}

/**
 * Run @p w under @p config at @p sim_threads with the given observers
 * attached (either may be nullptr) and return the SimResult JSON.
 */
std::string
runWith(const Workload &w, SimConfig config, std::uint32_t sim_threads,
        CycleProfiler *profile, InvariantChecker *check)
{
    config.simThreads = sim_threads;
    config.profile = profile;
    config.check = check;
    return Simulation(config, w.bvh, w.scene.mesh.triangles())
        .run(w.ao.rays)
        .toJson();
}

/** Sum of totalFor over every category. */
std::uint64_t
grandTotal(const CycleProfiler &profile)
{
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < kCycleCatCount; ++c)
        total += profile.totalFor(static_cast<CycleCat>(c));
    return total;
}

TEST(Profile, ConservationHoldsOnEveryScene)
{
    // The headline law on the paper-style configuration: for every
    // bundled scene, every SM's category counts sum exactly to the
    // run's elapsed cycles. The simulator itself re-asserts this
    // through the attached InvariantChecker (violations throw).
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    for (SceneId id : allSceneIds()) {
        const Workload &w = cache().get(id);
        CycleProfiler profile;
        InvariantChecker check;
        runWith(w, config, 1, &profile, &check);
        EXPECT_EQ(profile.runs(), 1u) << w.scene.shortName;
        ASSERT_EQ(profile.numSms(), config.numSms) << w.scene.shortName;
        EXPECT_GT(profile.elapsed(), 0u) << w.scene.shortName;
        for (std::uint32_t sm = 0; sm < profile.numSms(); ++sm)
            EXPECT_EQ(profile.smTotal(sm), profile.elapsed())
                << w.scene.shortName << " sm=" << sm;
        EXPECT_EQ(grandTotal(profile),
                  profile.elapsed() * profile.numSms())
            << w.scene.shortName;
        EXPECT_GT(check.checksRun(), 0u) << w.scene.shortName;
    }
}

TEST(Profile, ConservationHoldsOnBaselineConfig)
{
    // Predictor-off baseline: a different event mix (no predictor, no
    // repacker) must still conserve, and the predictor-specific
    // categories must stay exactly zero.
    SimConfig config = SimConfig::baseline();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    CycleProfiler profile;
    InvariantChecker check;
    runWith(w, config, 1, &profile, &check);
    for (std::uint32_t sm = 0; sm < profile.numSms(); ++sm)
        EXPECT_EQ(profile.smTotal(sm), profile.elapsed()) << "sm=" << sm;
    EXPECT_EQ(profile.totalFor(CycleCat::PredLookup), 0u);
    EXPECT_EQ(profile.totalFor(CycleCat::PredVerify), 0u);
    EXPECT_EQ(profile.totalFor(CycleCat::MispredictRestart), 0u);
    EXPECT_GT(profile.totalFor(CycleCat::BoxTest), 0u);
    EXPECT_GT(profile.totalFor(CycleCat::TriTest), 0u);
}

TEST(Profile, ProposedConfigPopulatesPredictorCategories)
{
    // The proposed configuration must light up the predictor-path
    // categories and the meta tallies the cost/benefit report reads.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::Sibenik);
    CycleProfiler profile;
    runWith(w, config, 1, &profile, nullptr);
    EXPECT_GT(profile.totalFor(CycleCat::PredLookup), 0u);
    EXPECT_GT(profile.totalFor(CycleCat::BoxTest), 0u);
    EXPECT_GT(profile.totalFor(CycleCat::TriTest), 0u);
    EXPECT_GT(profile.totalFor(CycleCat::IdleDrain), 0u);
    const std::uint64_t stalls = profile.totalFor(CycleCat::L1Stall) +
                                 profile.totalFor(CycleCat::L2Stall) +
                                 profile.totalFor(CycleCat::DramStall);
    EXPECT_GT(stalls, 0u);
    std::uint64_t lookups = 0;
    std::uint64_t l1 = 0;
    for (std::uint32_t sm = 0; sm < profile.numSms(); ++sm) {
        lookups += profile.slice(sm).predLookups;
        l1 += profile.slice(sm).l1Hits + profile.slice(sm).l1Misses;
    }
    EXPECT_GT(lookups, 0u);
    EXPECT_GT(l1, 0u);
}

TEST(Profile, ShardedProfileByteIdenticalAcrossWorkerCounts)
{
    // The profile JSON — not just the simulated result — must be
    // byte-identical at any worker count: per-SM slices are only
    // touched by the owning worker and shared-seam tallies only inside
    // the gated section, so no merge step exists to get wrong.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    for (SceneId id : {SceneId::Sibenik, SceneId::CrytekSponza}) {
        const Workload &w = cache().get(id);
        CycleProfiler seq;
        const std::string seq_result = runWith(w, config, 1, &seq, nullptr);
        const std::string seq_json = seq.toJson();
        for (std::uint32_t threads : {2u, 4u}) {
            CycleProfiler sharded;
            const std::string result =
                runWith(w, config, threads, &sharded, nullptr);
            EXPECT_EQ(seq_result, result)
                << w.scene.shortName << " @ simThreads=" << threads;
            EXPECT_EQ(seq_json, sharded.toJson())
                << w.scene.shortName << " @ simThreads=" << threads;
        }
    }
}

TEST(Profile, ZeroPerturbationByteCompare)
{
    // Attaching the profiler must not move a single simulated byte:
    // SimResult JSON and trace bytes both match a profiler-free run,
    // sequential and sharded.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::Sibenik);
    for (std::uint32_t threads : {1u, 4u}) {
        std::string result[2];
        std::string trace[2];
        for (int with_profiler = 0; with_profiler < 2; ++with_profiler) {
            SimConfig observed = config;
            observed.simThreads = threads;
            TraceSink sink(1u << 16);
            CycleProfiler profile;
            observed.trace = &sink;
            observed.profile = with_profiler ? &profile : nullptr;
            result[with_profiler] =
                Simulation(observed, w.bvh, w.scene.mesh.triangles())
                    .run(w.ao.rays)
                    .toJson();
            std::ostringstream trace_os;
            sink.writeChromeTrace(trace_os);
            trace[with_profiler] = trace_os.str();
        }
        EXPECT_EQ(result[0], result[1]) << "simThreads=" << threads;
        EXPECT_EQ(trace[0], trace[1]) << "simThreads=" << threads;
    }
}

TEST(Profile, MultiRunAccumulationKeepsConserving)
{
    // One profiler observing two runs: counts and elapsed accumulate,
    // and the conservation law holds for the aggregate (this is the
    // shape simfuzz's runDifferential exercises).
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    config.simThreads = 1;
    const Workload &w = cache().get(SceneId::Sibenik);
    CycleProfiler profile;
    InvariantChecker check;
    config.profile = &profile;
    config.check = &check;
    Simulation sim(config, w.bvh, w.scene.mesh.triangles());
    sim.run(w.ao.rays);
    const std::uint64_t once = profile.elapsed();
    sim.run(w.ao.rays);
    EXPECT_EQ(profile.runs(), 2u);
    EXPECT_EQ(profile.elapsed(), 2 * once);
    for (std::uint32_t sm = 0; sm < profile.numSms(); ++sm)
        EXPECT_EQ(profile.smTotal(sm), profile.elapsed()) << "sm=" << sm;

    // clear() really resets the aggregate.
    profile.clear();
    EXPECT_EQ(profile.elapsed(), 0u);
    EXPECT_EQ(profile.runs(), 0u);
    EXPECT_EQ(profile.numSms(), 0u);
}

TEST(Profile, JsonCarriesSchemaAndCatalogue)
{
    SimConfig config = SimConfig::proposed();
    config.numSms = 2;
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    CycleProfiler profile;
    runWith(w, config, 1, &profile, nullptr);
    const std::string json = profile.toJson();
    EXPECT_EQ(json.rfind("{\"schema_version\":", 0), 0u) << json;
    EXPECT_NE(json.find("\"profile\":{"), std::string::npos);
    for (std::size_t c = 0; c < kCycleCatCount; ++c)
        EXPECT_NE(json.find(cycleCatName(static_cast<CycleCat>(c))),
                  std::string::npos)
            << cycleCatName(static_cast<CycleCat>(c));
    for (std::size_t t = 0; t < kProfRayTypeCount; ++t)
        EXPECT_NE(json.find(profRayTypeName(static_cast<ProfRayType>(t))),
                  std::string::npos)
            << profRayTypeName(static_cast<ProfRayType>(t));
}

} // namespace
} // namespace rtp
