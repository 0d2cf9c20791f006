/**
 * @file
 * Sharded event-loop equivalence tests (gpu/shard.hpp,
 * docs/performance.md): the sharded loop must be byte-identical to the
 * sequential reference loop in every observable output — SimResult
 * JSON, Chrome-trace bytes (including ring-wrap drop accounting),
 * telemetry timelines, cycle-attribution profiles, and invariant-checker
 * behaviour — at any worker count, on every bundled scene.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exp/workload.hpp"
#include "gpu/simulator.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/telemetry.hpp"
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

/** Everything one observed run produces, as comparable bytes. */
struct RunOutputs
{
    std::string resultJson;
    std::string traceJson;
    std::uint64_t traceDropped = 0;
    std::string telemetryJson;
    std::string profileJson;
    std::uint64_t checksRun = 0;
};

/**
 * Run @p w under @p config at @p sim_threads with every observer
 * attached: a trace sink of @p trace_capacity events, a telemetry
 * sampler at @p telemetry_period, the cycle profiler, and the invariant
 * checker.
 */
RunOutputs
runObserved(const Workload &w, SimConfig config,
            std::uint32_t sim_threads, std::size_t trace_capacity,
            Cycle telemetry_period)
{
    config.simThreads = sim_threads;
    TraceSink sink(trace_capacity);
    TelemetrySampler sampler(telemetry_period);
    CycleProfiler profile;
    InvariantChecker check;
    config.trace = &sink;
    config.telemetry = &sampler;
    config.profile = &profile;
    config.check = &check;

    RunOutputs out;
    out.resultJson = Simulation(config, w.bvh,
                                w.scene.mesh.triangles())
                         .run(w.ao.rays)
                         .toJson();
    std::ostringstream trace_os;
    sink.writeChromeTrace(trace_os);
    out.traceJson = trace_os.str();
    out.traceDropped = sink.dropped();
    std::ostringstream telemetry_os;
    sampler.writeJson(telemetry_os);
    out.telemetryJson = telemetry_os.str();
    out.profileJson = profile.toJson();
    out.checksRun = check.checksRun();
    return out;
}

/** Bare run (no observers): just the SimResult JSON. */
std::string
runPlain(const Workload &w, SimConfig config, std::uint32_t sim_threads)
{
    config.simThreads = sim_threads;
    return Simulation(config, w.bvh, w.scene.mesh.triangles())
        .run(w.ao.rays)
        .toJson();
}

TEST(ShardedEquiv, EverySceneByteIdenticalAcrossWorkerCounts)
{
    // The headline contract on the paper-style configuration: every
    // bundled scene, sequential vs 2 and 4 workers, observers off.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    for (SceneId id : allSceneIds()) {
        const Workload &w = cache().get(id);
        const std::string seq = runPlain(w, config, 1);
        for (std::uint32_t threads : {2u, 4u})
            EXPECT_EQ(seq, runPlain(w, config, threads))
                << w.scene.shortName << " @ simThreads=" << threads;
    }
}

TEST(ShardedEquiv, BaselineConfigIdenticalAcrossWorkerCounts)
{
    // Predictor-off baseline exercises a different event mix (no
    // repacker, no predictor verify traffic) through the same seam.
    SimConfig config = SimConfig::baseline();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    const std::string seq = runPlain(w, config, 1);
    for (std::uint32_t threads : {2u, 4u})
        EXPECT_EQ(seq, runPlain(w, config, threads));
}

TEST(ShardedEquiv, ObserversByteIdenticalAcrossWorkerCounts)
{
    // Every observer attached at once: trace, telemetry, and profile
    // must match the sequential bytes exactly, the checker must run the
    // same number of probes, and the result must match an unobserved
    // run at every worker count.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::Sibenik);
    const RunOutputs seq = runObserved(w, config, 1, 1u << 16, 128);
    for (std::uint32_t threads : {1u, 2u, 4u})
        EXPECT_EQ(runPlain(w, config, threads), seq.resultJson)
            << "simThreads=" << threads;
    for (std::uint32_t threads : {2u, 4u}) {
        const RunOutputs sharded =
            runObserved(w, config, threads, 1u << 16, 128);
        EXPECT_EQ(seq.resultJson, sharded.resultJson)
            << "simThreads=" << threads;
        EXPECT_EQ(seq.traceJson, sharded.traceJson)
            << "simThreads=" << threads;
        EXPECT_EQ(seq.telemetryJson, sharded.telemetryJson)
            << "simThreads=" << threads;
        EXPECT_EQ(seq.profileJson, sharded.profileJson)
            << "simThreads=" << threads;
        EXPECT_EQ(seq.checksRun, sharded.checksRun)
            << "simThreads=" << threads;
    }
}

TEST(ShardedEquiv, TraceRingWrapAndDropsIdentical)
{
    // A deliberately tiny ring forces wrap-around and drops; the merge
    // into the real sink must reproduce the sequential loop's exact
    // retention window and drop count, not just the event multiset.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::CrytekSponza);
    const RunOutputs seq = runObserved(w, config, 1, 64, 256);
    ASSERT_GT(seq.traceDropped, 0u)
        << "capacity 64 was expected to overflow; grow the workload";
    for (std::uint32_t threads : {2u, 4u}) {
        const RunOutputs sharded =
            runObserved(w, config, threads, 64, 256);
        EXPECT_EQ(seq.traceJson, sharded.traceJson)
            << "simThreads=" << threads;
        EXPECT_EQ(seq.traceDropped, sharded.traceDropped)
            << "simThreads=" << threads;
    }
}

TEST(ShardedEquiv, DirectDramPathIdentical)
{
    // l2Enabled=false routes L1 misses straight to DRAM — the other
    // branch of the shared-seam gate.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    config.memory.l2Enabled = false;
    const Workload &w = cache().get(SceneId::Sibenik);
    const std::string seq = runPlain(w, config, 1);
    for (std::uint32_t threads : {2u, 4u})
        EXPECT_EQ(seq, runPlain(w, config, threads));
}

TEST(ShardedEquiv, WorkerCountClampsToNumSms)
{
    // More workers than SMs must clamp (numSms=2 -> 2 workers) and a
    // single-SM config must fall back to the sequential loop; both stay
    // byte-identical.
    SimConfig two = SimConfig::proposed();
    two.numSms = 2;
    SimConfig one = SimConfig::proposed();
    one.numSms = 1;
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    EXPECT_EQ(runPlain(w, two, 1), runPlain(w, two, 8));
    EXPECT_EQ(runPlain(w, one, 1), runPlain(w, one, 8));
}

TEST(ShardedEquiv, RepeatedRunsOnOneSimulationStayIdentical)
{
    // run() must leave no residue: a sharded run sandwiched between
    // sequential runs on the same Simulation object changes nothing.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::Sibenik);
    config.simThreads = 1;
    Simulation seq(config, w.bvh, w.scene.mesh.triangles());
    config.simThreads = 4;
    Simulation sharded(config, w.bvh, w.scene.mesh.triangles());
    const std::string a = seq.run(w.ao.rays).toJson();
    const std::string b = sharded.run(w.ao.rays).toJson();
    const std::string c = seq.run(w.ao.rays).toJson();
    const std::string d = sharded.run(w.ao.rays).toJson();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_EQ(a, d);
}

} // namespace
} // namespace rtp
