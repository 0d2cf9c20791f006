/**
 * @file
 * Tests for the Simulation facade, PredictorSet, and
 * SimConfig::validate().
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bvh/builder.hpp"
#include "gpu/frame_simulator.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"
#include "util/profile.hpp"
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

// --- Facade behaviour ----------------------------------------------------

TEST(Simulation, FacadeMatchesFreeFunction)
{
    for (const SimConfig &cfg :
         {SimConfig::baseline(), SimConfig::proposed()}) {
        SimResult direct =
            Simulation(cfg, rig().bvh, rig().scene.mesh.triangles())
                .run(rig().ao.rays);
        SimResult wrapped = simulate(
            rig().bvh, rig().scene.mesh.triangles(), rig().ao.rays, cfg);
        EXPECT_EQ(direct.toJson(), wrapped.toJson());
    }
}

TEST(Simulation, RepeatedRunsAreIndependent)
{
    // Self-contained mode: every run starts from cold state, including
    // owned predictors, so run N is byte-identical to run 1.
    Simulation sim(SimConfig::proposed(), rig().bvh,
                   rig().scene.mesh.triangles());
    SimResult a = sim.run(rig().ao.rays);
    SimResult b = sim.run(rig().ao.rays);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(Simulation, PredictorSetMatchesFrameSimulator)
{
    SimConfig cfg = SimConfig::proposed();

    FrameSimulator frames(cfg, /*preserve_state=*/true);
    SimResult f1 = frames.runFrame(rig().bvh,
                                   rig().scene.mesh.triangles(),
                                   rig().ao.rays);
    SimResult f2 = frames.runFrame(rig().bvh,
                                   rig().scene.mesh.triangles(),
                                   rig().ao.rays);

    // The same two frames, driven through the facade by hand.
    PredictorSet set;
    Simulation sim(cfg, rig().bvh, rig().scene.mesh.triangles(), set);
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult m1 = sim.run(rig().ao.rays);
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult m2 = sim.run(rig().ao.rays);

    EXPECT_EQ(f1.toJson(), m1.toJson());
    EXPECT_EQ(f2.toJson(), m2.toJson());
}

TEST(Simulation, PredictorSetCarriesTrainedState)
{
    SimConfig cfg = SimConfig::proposed();
    PredictorSet set;
    Simulation sim(cfg, rig().bvh, rig().scene.mesh.triangles(), set);

    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult cold = sim.run(rig().ao.rays);
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult warm = sim.run(rig().ao.rays);

    // A table trained by the first run predicts rays from cycle 0 of
    // the second, instead of warming up from empty.
    EXPECT_GT(warm.stats.get("rays_predicted"),
              cold.stats.get("rays_predicted"));

    // Rebinding with preserve_state=false drops the training (and, as
    // with any bind, the per-run stats): the next run is cold again.
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, false);
    SimResult recold = sim.run(rig().ao.rays);
    EXPECT_EQ(cold.toJson(), recold.toJson());
}

// --- Observers are attached per run -------------------------------------

TEST(Simulation, ObserversDetachWhenTheRunEnds)
{
    // A PredictorSet outlives its runs. An unobserved run after an
    // observed one must not reach the first run's sink or checker
    // through the set's predictors.
    SimConfig cfg = SimConfig::proposed();
    cfg.numSms = 2;
    PredictorSet set;
    set.bind(cfg.predictor, cfg.numSms, rig().bvh);
    TraceSink sink;
    InvariantChecker check;
    SimConfig observed = cfg;
    observed.trace = &sink;
    observed.check = &check;
    Simulation(observed, rig().bvh, rig().scene.mesh.triangles(), set)
        .run(rig().ao.rays);
    const std::size_t events = sink.size();
    const std::uint64_t checks = check.checksRun();
    ASSERT_GT(events, 0u);
    ASSERT_EQ(sink.dropped(), 0u);
    ASSERT_GT(checks, 0u);

    Simulation(cfg, rig().bvh, rig().scene.mesh.triangles(), set)
        .run(rig().ao.rays);
    EXPECT_EQ(sink.size(), events);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_EQ(check.checksRun(), checks);
}

TEST(Simulation, UnobservedRunAfterObserversLeaveScope)
{
    // The same sequence with the first run's observers destroyed
    // before the second run, as stack-local checkers are in the bench
    // harness. A predictor that kept them would write to freed memory
    // (AddressSanitizer reports it).
    SimConfig cfg = SimConfig::proposed();
    cfg.numSms = 2;
    PredictorSet set;
    set.bind(cfg.predictor, cfg.numSms, rig().bvh);
    SimResult first;
    {
        TraceSink sink;
        CycleProfiler profile;
        InvariantChecker check;
        SimConfig observed = cfg;
        observed.trace = &sink;
        observed.profile = &profile;
        observed.check = &check;
        first = Simulation(observed, rig().bvh,
                           rig().scene.mesh.triangles(), set)
                    .run(rig().ao.rays);
    }
    SimResult second =
        Simulation(cfg, rig().bvh, rig().scene.mesh.triangles(), set)
            .run(rig().ao.rays);
    EXPECT_EQ(second.rayResults.size(), first.rayResults.size());
    EXPECT_GT(second.stats.get("rays_predicted"), 0u);
}

// --- SimConfig::validate() ----------------------------------------------

TEST(SimConfigValidate, AcceptsStockConfigs)
{
    EXPECT_NO_THROW(SimConfig::baseline().validate());
    EXPECT_NO_THROW(SimConfig::proposed().validate());
    EXPECT_NO_THROW(SimConfig::proposed().validate(rig().bvh));
}

TEST(SimConfigValidate, RejectsZeroSms)
{
    SimConfig c = SimConfig::baseline();
    c.numSms = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroWarpSize)
{
    SimConfig c = SimConfig::baseline();
    c.rt.warpSize = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroMaxWarps)
{
    SimConfig c = SimConfig::baseline();
    c.rt.maxWarps = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroStackEntries)
{
    SimConfig c = SimConfig::baseline();
    c.rt.stackEntries = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroL1Ports)
{
    SimConfig c = SimConfig::baseline();
    c.rt.l1PortsPerCycle = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroL1LineBytes)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l1.lineBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsL1SmallerThanOneLine)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l1.sizeBytes = c.memory.l1.lineBytes - 1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroL2LineBytes)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l2.lineBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsL2SmallerThanOneLine)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l2.sizeBytes = c.memory.l2.lineBytes - 1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

/** @return the validate() message for @p c, or "" if it passes. */
std::string
validateMessage(const SimConfig &c)
{
    try {
        c.validate();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

/** validate() must reject @p c with a message containing @p reason. */
void
expectRejectedWith(const SimConfig &c, const std::string &reason)
{
    std::string msg = validateMessage(c);
    EXPECT_NE(msg.find(reason), std::string::npos)
        << "message: \"" << msg << "\"";
}

TEST(SimConfigValidate, RejectsCacheSizeNotAMultipleOfLine)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l1.sizeBytes = 64 * 1024 + 64;
    expectRejectedWith(c, "memory.l1.sizeBytes (65600) must be a "
                          "multiple of lineBytes (128)");
    c = SimConfig::baseline();
    c.memory.l2.sizeBytes = 1024 * 1024 + 1;
    expectRejectedWith(c, "memory.l2.sizeBytes");
}

TEST(SimConfigValidate, RejectsCacheWaysAboveLineCount)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l2.ways = 8193; // 1 MB of 128 B lines = 8192 lines
    expectRejectedWith(c, "memory.l2.ways (8193) must not exceed the "
                          "line count (8192");
    c = SimConfig::baseline();
    c.memory.l1.ways = 513;
    expectRejectedWith(c, "memory.l1.ways (513)");
}

TEST(SimConfigValidate, RejectsCacheWaysNotDividingLineCount)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l1.sizeBytes = 64 * 1024;
    c.memory.l1.lineBytes = 128;
    c.memory.l1.ways = 3;
    expectRejectedWith(c, "memory.l1.ways (3) must divide the line "
                          "count (512); only 510 lines");
    c = SimConfig::baseline();
    c.memory.l2.ways = 24;
    expectRejectedWith(c, "memory.l2.ways (24) must divide");
}

TEST(SimConfigValidate, AcceptsEveryWaysThatDividesTheLineCount)
{
    SimConfig c = SimConfig::baseline();
    for (std::uint32_t ways : {0u, 1u, 2u, 16u, 512u}) {
        c.memory.l1.ways = ways;
        EXPECT_EQ(validateMessage(c), "") << "ways " << ways;
    }
}

TEST(SimConfigValidate, RejectsZeroDramBanks)
{
    SimConfig c = SimConfig::baseline();
    c.memory.dram.numBanks = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsEmptyPredictorTable)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.table.numEntries = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroPredictorPorts)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.accessPorts = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroNodesPerEntry)
{
    // Training would write through slot 0 of an empty entry.
    SimConfig c = SimConfig::proposed();
    c.predictor.table.nodesPerEntry = 0;
    expectRejectedWith(c, "predictor.table.nodesPerEntry must be > 0");
    EXPECT_THROW(
        Simulation(c, rig().bvh, rig().scene.mesh.triangles()),
        std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroPredictorWays)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.table.ways = 0;
    expectRejectedWith(c, "predictor.table.ways must be > 0");
}

TEST(SimConfigValidate, RejectsPredictorEntriesNotAMultipleOfWays)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.table.numEntries = 1026;
    c.predictor.table.ways = 4;
    expectRejectedWith(c, "predictor.table.numEntries (1026) must be a "
                          "multiple of ways (4); only 1024 entries");
    c.predictor.table.numEntries = 2; // fewer entries than ways
    expectRejectedWith(c, "predictor.table.numEntries (2)");
}

TEST(SimConfigValidate, RejectsNonPowerOfTwoPredictorSets)
{
    // 1536 / 4 = 384 sets, but the folded index reaches only 256.
    SimConfig c = SimConfig::proposed();
    c.predictor.table.numEntries = 1536;
    c.predictor.table.ways = 4;
    expectRejectedWith(c, "predictor.table set count (numEntries / ways "
                          "= 384) must be a power of two");
    c.predictor.table.ways = 512; // 3 sets
    expectRejectedWith(c, "(numEntries / ways = 3)");
    c.predictor.table.numEntries = 1024;
    for (std::uint32_t ways : {1u, 2u, 4u, 8u, 1024u}) {
        c.predictor.table.ways = ways;
        EXPECT_EQ(validateMessage(c), "") << "ways " << ways;
    }
}

TEST(SimConfigValidate, PredictorKnobsIgnoredWhenDisabled)
{
    SimConfig c = SimConfig::baseline();
    c.predictor.table.numEntries = 0;
    c.predictor.accessPorts = 0;
    EXPECT_NO_THROW(c.validate());
}

TEST(SimConfigValidate, RejectsGoUpLevelBeyondBvhDepth)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.goUpLevel = rig().bvh.maxDepth() + 1;
    EXPECT_NO_THROW(c.validate()); // config-only overload can't know
    EXPECT_THROW(c.validate(rig().bvh), std::invalid_argument);
}

TEST(SimConfigValidate, SimulationConstructorValidates)
{
    SimConfig c = SimConfig::baseline();
    c.numSms = 0;
    EXPECT_THROW(
        Simulation(c, rig().bvh, rig().scene.mesh.triangles()),
        std::invalid_argument);

    SimConfig d = SimConfig::proposed();
    d.predictor.goUpLevel = rig().bvh.maxDepth() + 1;
    EXPECT_THROW(
        Simulation(d, rig().bvh, rig().scene.mesh.triangles()),
        std::invalid_argument);
}

} // namespace
} // namespace rtp
