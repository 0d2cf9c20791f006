/** @file Predictor unit tests (timed lookups, Go Up Level training). */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "core/predictor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

std::vector<Triangle>
gridTriangles(int n)
{
    std::vector<Triangle> tris;
    for (int i = 0; i < n; ++i) {
        float x = static_cast<float>(i % 10);
        float z = static_cast<float>(i / 10);
        tris.emplace_back(Vec3{x, 0, z}, Vec3{x + 0.9f, 0, z},
                          Vec3{x, 0, z + 0.9f});
    }
    return tris;
}

struct Fixture
{
    std::vector<Triangle> tris = gridTriangles(100);
    Bvh bvh;
    Fixture() { bvh = BvhBuilder().build(tris); }
};

Ray
downRay(float x, float z)
{
    Ray r;
    r.origin = {x, 5.0f, z};
    r.dir = {0, -1, 0};
    r.tMax = 20.0f;
    r.kind = RayKind::Occlusion;
    return r;
}

TEST(Predictor, MissWithoutTraining)
{
    Fixture f;
    PredictorConfig cfg;
    RayPredictor p(cfg, f.bvh);
    Cycle ready;
    EXPECT_FALSE(p.lookup(downRay(5, 5), 0, ready).has_value());
    EXPECT_GE(ready, 1u); // access latency applied
}

TEST(Predictor, TrainingEnablesPrediction)
{
    Fixture f;
    PredictorConfig cfg;
    cfg.goUpLevel = 0;
    RayPredictor p(cfg, f.bvh);
    std::uint32_t leaf = f.bvh.leafOfPrimSlot(0);
    Ray r = downRay(5, 5);
    p.update(r, leaf, 10);
    Cycle ready;
    auto pred = p.lookup(r, 20, ready);
    ASSERT_TRUE(pred.has_value());
    ASSERT_EQ(pred->nodes.size(), 1u);
    EXPECT_EQ(pred->nodes[0], leaf);
}

TEST(Predictor, GoUpLevelStoresAncestor)
{
    Fixture f;
    PredictorConfig cfg;
    cfg.goUpLevel = 2;
    RayPredictor p(cfg, f.bvh);
    std::uint32_t leaf = f.bvh.leafOfPrimSlot(0);
    Ray r = downRay(0.3f, 0.3f);
    p.update(r, leaf, 0);
    Cycle ready;
    auto pred = p.lookup(r, 5, ready);
    ASSERT_TRUE(pred.has_value());
    EXPECT_EQ(pred->nodes[0], f.bvh.ancestorOf(leaf, 2));
    EXPECT_NE(pred->nodes[0], leaf);
}

TEST(Predictor, DisabledNeverPredicts)
{
    Fixture f;
    PredictorConfig cfg;
    cfg.enabled = false;
    RayPredictor p(cfg, f.bvh);
    Ray r = downRay(5, 5);
    p.update(r, f.bvh.leafOfPrimSlot(0), 0);
    Cycle ready;
    EXPECT_FALSE(p.lookup(r, 10, ready).has_value());
    EXPECT_EQ(ready, 10u); // no latency when disabled
}

TEST(Predictor, PortQueueingDelaysBursts)
{
    Fixture f;
    PredictorConfig cfg;
    cfg.accessPorts = 4;
    cfg.accessLatency = 1;
    RayPredictor p(cfg, f.bvh);
    // 8 lookups in the same cycle: ports serve 4 per cycle.
    Cycle last = 0;
    for (int i = 0; i < 8; ++i) {
        Cycle ready;
        p.lookup(downRay(static_cast<float>(i), 5), 100, ready);
        last = std::max(last, ready);
    }
    EXPECT_EQ(last, 102u); // second wave starts at 101, +1 latency
}

TEST(Predictor, SinglePortSerialises)
{
    Fixture f;
    PredictorConfig cfg;
    cfg.accessPorts = 1;
    cfg.accessLatency = 2;
    RayPredictor p(cfg, f.bvh);
    Cycle r1, r2, r3;
    p.lookup(downRay(1, 1), 10, r1);
    p.lookup(downRay(2, 2), 10, r2);
    p.lookup(downRay(3, 3), 10, r3);
    EXPECT_EQ(r1, 12u);
    EXPECT_EQ(r2, 13u);
    EXPECT_EQ(r3, 14u);
}

TEST(Predictor, SimilarRaysShareEntries)
{
    Fixture f;
    PredictorConfig cfg;
    cfg.goUpLevel = 1;
    RayPredictor p(cfg, f.bvh);
    Ray a = downRay(5.0f, 5.0f);
    Ray b = downRay(5.05f, 5.02f);
    p.update(a, f.bvh.leafOfPrimSlot(3), 0);
    Cycle ready;
    EXPECT_TRUE(p.lookup(b, 10, ready).has_value())
        << "nearly identical ray should hit the trained entry";
}

TEST(Predictor, StatsTrackActivity)
{
    Fixture f;
    PredictorConfig cfg;
    RayPredictor p(cfg, f.bvh);
    Cycle ready;
    p.lookup(downRay(1, 1), 0, ready);
    p.update(downRay(1, 1), f.bvh.leafOfPrimSlot(0), 5);
    p.lookup(downRay(1, 1), 10, ready);
    EXPECT_EQ(p.stats().get("lookups"), 2u);
    EXPECT_EQ(p.stats().get("trained"), 1u);
    EXPECT_EQ(p.stats().get("predicted"), 1u);
}

TEST(Predictor, CopyIsDeep)
{
    // A copied predictor must own its table, not share the
    // original's.
    Fixture f;
    PredictorConfig cfg;
    RayPredictor p(cfg, f.bvh);
    p.update(downRay(1, 1), f.bvh.leafOfPrimSlot(0), 0);
    ASSERT_EQ(p.table().validEntries(), 1u);

    RayPredictor copy(p);
    EXPECT_EQ(copy.table().validEntries(), 1u);
    Ray sideways = downRay(8, 8);
    sideways.dir = {1, 0, 0};
    copy.update(sideways, f.bvh.leafOfPrimSlot(1), 1);
    EXPECT_EQ(copy.table().validEntries(), 2u);
    EXPECT_EQ(p.table().validEntries(), 1u);

    copy.resetTable();
    EXPECT_EQ(copy.table().validEntries(), 0u);
    EXPECT_EQ(p.table().validEntries(), 1u);
}

TEST(Predictor, FinalStateCheckBalancesLookups)
{
    Fixture f;
    PredictorConfig cfg;
    RayPredictor p(cfg, f.bvh);
    std::vector<std::uint32_t> nodes;
    Cycle ready = 0;
    for (int i = 0; i < 64; ++i) {
        // Each ray twice: a cold miss that trains, then a hit.
        Ray r = downRay(static_cast<float>(i / 2 % 10),
                        static_cast<float>(i / 2 % 7));
        p.lookupInto(r, i, ready, nodes);
        p.update(r, f.bvh.leafOfPrimSlot(i % 11), i);
    }
    InvariantChecker check;
    p.checkFinalState(check); // throws on a violation
    EXPECT_GT(check.checksRun(), 0u);
    EXPECT_EQ(p.stats().get("lookups"), 64u);
    EXPECT_EQ(p.stats().get("predicted"), 32u);
    EXPECT_EQ(p.table().stats().get("lookup_hits") +
                  p.table().stats().get("lookup_misses"),
              64u);
}

} // namespace
} // namespace rtp
