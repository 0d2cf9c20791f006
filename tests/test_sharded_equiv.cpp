/**
 * @file
 * Sharded event-loop equivalence tests (gpu/shard.hpp,
 * docs/performance.md): the sharded loop must be byte-identical to the
 * sequential reference loop in every observable output — SimResult
 * JSON, Chrome-trace bytes (including ring-wrap drop accounting),
 * cycle-attribution profiles, and invariant-checker behaviour — at any
 * worker count, on every bundled scene, and across the warm
 * PredictorSet of multi-wave and multi-frame drivers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/path_driver.hpp"
#include "exp/workload.hpp"
#include "gpu/frame_simulator.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
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

/** Everything one observed run produces, as comparable bytes. */
struct RunOutputs
{
    std::string resultJson;
    std::string traceJson;
    std::uint64_t traceDropped = 0;
    std::string profileJson;
    std::uint64_t checksRun = 0;
};

/**
 * Run @p w under @p config at @p sim_threads with every observer
 * attached: a trace sink of @p trace_capacity events, the cycle
 * profiler, and the invariant checker.
 */
RunOutputs
runObserved(const Workload &w, SimConfig config,
            std::uint32_t sim_threads, std::size_t trace_capacity)
{
    config.simThreads = sim_threads;
    TraceSink sink(trace_capacity);
    CycleProfiler profile;
    InvariantChecker check;
    config.trace = &sink;
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
    // Every observer attached at once: trace and profile
    // must match the sequential bytes exactly, the checker must run the
    // same number of probes, and the result must match an unobserved
    // run at every worker count.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::Sibenik);
    const RunOutputs seq = runObserved(w, config, 1, 1u << 16);
    for (std::uint32_t threads : {1u, 2u, 4u})
        EXPECT_EQ(runPlain(w, config, threads), seq.resultJson)
            << "simThreads=" << threads;
    for (std::uint32_t threads : {2u, 4u}) {
        const RunOutputs sharded =
            runObserved(w, config, threads, 1u << 16);
        EXPECT_EQ(seq.resultJson, sharded.resultJson)
            << "simThreads=" << threads;
        EXPECT_EQ(seq.traceJson, sharded.traceJson)
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
    const RunOutputs seq = runObserved(w, config, 1, 64);
    ASSERT_GT(seq.traceDropped, 0u)
        << "capacity 64 was expected to overflow; grow the workload";
    for (std::uint32_t threads : {2u, 4u}) {
        const RunOutputs sharded =
            runObserved(w, config, threads, 64);
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

TEST(ShardedEquiv, OversubscribedRunMatchesSequential)
{
    // One worker per SM at 8 SMs — more workers than most hosts have
    // cores — so waiters must yield to the blockers they wait on.
    // Every observer output stays byte-identical.
    SimConfig config = SimConfig::proposed();
    config.numSms = 8;
    const Workload &w = cache().get(SceneId::Sibenik);
    const RunOutputs seq = runObserved(w, config, 1, 1u << 16);
    const RunOutputs over = runObserved(w, config, 8, 1u << 16);
    EXPECT_EQ(seq.resultJson, over.resultJson);
    EXPECT_EQ(seq.traceJson, over.traceJson);
    EXPECT_EQ(seq.profileJson, over.profileJson);
    EXPECT_EQ(seq.checksRun, over.checksRun);
    EXPECT_EQ(seq.resultJson, runPlain(w, config, 8));
}

TEST(ShardedEquiv, AutoDefaultMatchesSequential)
{
    // The default simThreads (auto) shards the paper's 2-SM runs and
    // an 8-SM run across the CPUs free at run start; whatever it
    // picks, the output is the sequential loop's.
    SimConfig config = SimConfig::proposed();
    ASSERT_EQ(config.simThreads, SimConfig::kAutoSimThreads);
    ASSERT_EQ(config.numSms, 2u);
    for (SceneId id : allSceneIds()) {
        const Workload &w = cache().get(id);
        EXPECT_EQ(runPlain(w, config, 1),
                  runPlain(w, config, SimConfig::kAutoSimThreads))
            << w.scene.shortName << " @ 2 SMs";
    }
    config.numSms = 8;
    for (SceneId id : {SceneId::CrytekSponza, SceneId::FireplaceRoom}) {
        const Workload &w = cache().get(id);
        EXPECT_EQ(runPlain(w, config, 1),
                  runPlain(w, config, SimConfig::kAutoSimThreads))
            << w.scene.shortName << " @ 8 SMs";
    }
}

TEST(ShardedEquiv, PathTraceWavesMatchSequential)
{
    // Multi-run drivers keep one PredictorSet warm across runs, so a
    // sharded run must leave the tables exactly as the sequential loop
    // does: the path-trace waves and a multi-frame run both match.
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    RayGenConfig rg;
    rg.width = 16;
    rg.height = 16;
    rg.pathBounces = 3;
    for (SimConfig config : {SimConfig::baseline(), SimConfig::proposed()}) {
        const std::string preset =
            config.predictor.enabled ? "proposed" : "baseline";
        config.simThreads = 1;
        const PathTraceOutcome seq = runPathTrace(w, config, rg);
        config.simThreads = 2;
        const PathTraceOutcome sharded = runPathTrace(w, config, rg);
        EXPECT_GT(seq.waveRays.size(), 1u) << preset;
        EXPECT_EQ(seq.waveRays, sharded.waveRays) << preset;
        EXPECT_EQ(seq.total.toJson(), sharded.total.toJson()) << preset;

        config.simThreads = 1;
        FrameSimulator seq_frames(config);
        config.simThreads = 2;
        FrameSimulator sharded_frames(config);
        for (int frame = 0; frame < 3; ++frame) {
            const auto &tris = w.scene.mesh.triangles();
            EXPECT_EQ(seq_frames.runFrame(w.bvh, tris, w.ao.rays).toJson(),
                      sharded_frames.runFrame(w.bvh, tris, w.ao.rays)
                          .toJson())
                << preset << " frame " << frame;
        }
    }
}

TEST(ShardedEquiv, NarrowLookaheadWindowIdentical)
{
    // l1ToL2Latency = 10 leaves an 11-cycle window between a miss and
    // the earliest cycle its fill could land, so deferred fills fall
    // due within a few steps and most are applied by a blocking wait.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    config.memory.l1ToL2Latency = 10;
    ASSERT_EQ(config.memory.minL1FillCycles(), 11u);
    for (SceneId id : {SceneId::Sibenik, SceneId::FireplaceRoom}) {
        const Workload &w = cache().get(id);
        const std::string seq = runPlain(w, config, 1);
        for (std::uint32_t threads : {2u, 4u})
            EXPECT_EQ(seq, runPlain(w, config, threads))
                << w.scene.shortName << " @ simThreads=" << threads;
    }
}

TEST(ShardedEquiv, SmWithEveryWarpParkedOnFillsIsNotStuck)
{
    // One resident warp per SM and no repacking: after each miss the
    // warp's only rays wait on a deferred fill, so the SM has no event
    // queued at all until the fill is applied. It must not be reported
    // as a stuck unit, and the result must match the sequential loop.
    SimConfig config = SimConfig::baseline();
    config.numSms = 4;
    config.rt.maxWarps = 1;
    config.rt.warpSize = 4;
    const Workload &w = cache().get(SceneId::FireplaceRoom);
    const std::string seq = runPlain(w, config, 1);
    for (std::uint32_t threads : {2u, 4u}) {
        std::string sharded;
        EXPECT_NO_THROW(sharded = runPlain(w, config, threads))
            << threads;
        EXPECT_EQ(seq, sharded) << threads;
    }
}

TEST(ShardedEquiv, WorkerErrorIsRethrownWithoutHanging)
{
    // With warm tables most rays are predicted and leave for the
    // collector, and a one-entry collector drops all but one of them.
    // Their SM then runs out of events with rays outstanding and the
    // worker that owns it throws the stuck-unit error. The other
    // workers must bail out instead of waiting on that SM, and run()
    // must rethrow the error, at any worker count.
    SimConfig config = SimConfig::proposed();
    config.numSms = 4;
    const Workload &w = cache().get(SceneId::Sibenik);
    const auto &tris = w.scene.mesh.triangles();
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        SimConfig c = config;
        c.simThreads = threads;
        PredictorSet set;
        set.bind(c.predictor, c.numSms, w.bvh, true);
        Simulation(c, w.bvh, tris, set).run(w.ao.rays);
        c.rt.repacker.capacity = 1;
        try {
            Simulation(c, w.bvh, tris, set).run(w.ao.rays);
            ADD_FAILURE() << "no error at simThreads=" << threads;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("is stuck"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ShardedEquiv, MergesOntoPendingFillsIdentical)
{
    // Every ray repeated warpSize times: all threads of a warp request
    // the same nodes (intra-warp merges onto one pending fetch), and
    // consecutive warps of one SM request them again while the first
    // miss is still in flight (L1 MSHR merges onto a deferred line).
    SimConfig config = SimConfig::proposed();
    config.numSms = 2;
    const Workload &w = cache().get(SceneId::Sibenik);
    std::vector<Ray> rays;
    for (std::size_t i = 0; i < w.ao.rays.size() && rays.size() < 4096;
         i += 7)
        for (std::uint32_t k = 0; k < config.rt.warpSize; ++k)
            rays.push_back(w.ao.rays[i]);
    auto run_at = [&](std::uint32_t threads) {
        SimConfig c = config;
        c.simThreads = threads;
        return Simulation(c, w.bvh, w.scene.mesh.triangles()).run(rays);
    };
    const SimResult seq = run_at(1);
    ASSERT_GT(seq.stats.get("warp_merged_requests"), 0u);
    ASSERT_GT(seq.memStats.get("l1.mshr_merges"), 0u);
    EXPECT_EQ(seq.toJson(), run_at(2).toJson());
}

/**
 * `simfuzz --sharded` seed 5's derived configuration, as its
 * `--repro-out` reproducer records it.
 */
SimConfig
fuzzSeed5Config()
{
    SimConfig c;
    c.numSms = 3;
    c.rt.warpSize = 16;
    c.rt.maxWarps = 8;
    c.rt.additionalWarps = 1;
    c.rt.stackEntries = 4;
    c.rt.l1PortsPerCycle = 2;
    c.rt.queueLatency = 2;
    c.rt.isect.boxTestLatency = 4;
    c.rt.isect.triTestLatency = 1;
    c.rt.repackEnabled = true;
    c.rt.repacker = {16, 33, 32};
    c.predictor.enabled = true;
    c.predictor.goUpLevel = 3;
    c.predictor.accessPorts = 1;
    c.predictor.accessLatency = 1;
    c.predictor.hash.function = HashFunction::TwoPoint;
    c.predictor.hash.originBits = 6;
    c.predictor.hash.directionBits = 5;
    c.predictor.hash.lengthRatio = 0.129012f;
    c.predictor.table.numEntries = 16;
    c.predictor.table.ways = 4;
    c.predictor.table.nodesPerEntry = 4;
    c.predictor.table.nodeReplacement = NodeReplacement::LFU;
    c.predictor.table.lruK = 3;
    c.memory.l1.sizeBytes = 4096;
    c.memory.l1.lineBytes = 32;
    c.memory.l1.ways = 4;
    c.memory.l1.hitLatency = 3;
    c.memory.l2.sizeBytes = 1024 * 1024;
    c.memory.l2.lineBytes = 32;
    c.memory.l2.ways = 16;
    c.memory.l2.hitLatency = 4;
    c.memory.l1ToL2Latency = 40;
    c.memory.l2ToDramLatency = 21;
    c.memory.l2Enabled = false;
    c.memory.dram.numBanks = 4;
    return c;
}

TEST(ShardedEquiv, FuzzSeed5MidStepFillIdentical)
{
    // A 4 KiB L1 with no L2 behind it misses often, and two L1 ports
    // queue a step's requests past its cycle, so a deferred fill of
    // the stepping SM can fall due, and be applied, in the middle of a
    // warp step. It turns a waiting ray's lower bound, which the step
    // may already have read, into the exact ready cycle. A step that
    // then scheduled its warp from the stale bound diverged from the
    // sequential loop or parked the warp for good; ctest's TIMEOUT on
    // this test turns such a hang into a failure. Whether a fill lands
    // mid-step depends on how the workers interleave, so repeat.
    const SimConfig config = fuzzSeed5Config();
    const Workload &w = cache().get(SceneId::Sibenik);
    // simfuzz's ray mix: AO plus closest-hit primary and GI rays.
    RayGenConfig rg;
    rg.width = 24;
    rg.height = 24;
    rg.samplesPerPixel = 1;
    rg.viewportFraction = 0.4f;
    std::vector<Ray> rays = generateAoRays(w.scene, w.bvh, rg).rays;
    for (const Ray &r : generatePrimaryRays(w.scene, rg).rays)
        rays.push_back(r);
    for (const Ray &r : generateGiRays(w.scene, w.bvh, rg).rays)
        rays.push_back(r);
    auto run_at = [&](std::uint32_t threads) {
        SimConfig c = config;
        c.simThreads = threads;
        return Simulation(c, w.bvh, w.scene.mesh.triangles())
            .run(rays)
            .toJson();
    };
    const std::string seq = run_at(1);
    for (int rep = 0; rep < 8; ++rep)
        for (std::uint32_t threads : {2u, 3u})
            ASSERT_EQ(seq, run_at(threads))
                << "simThreads=" << threads << ", repetition " << rep;
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
