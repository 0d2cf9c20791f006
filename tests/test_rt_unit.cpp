/** @file RT unit cycle-model tests (Section 5.1). */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/config.hpp"
#include "rtunit/rt_unit.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

struct Rig
{
    Scene scene;
    Bvh bvh;
    MemoryConfig mem_cfg;
    MemorySystem mem;

    explicit Rig(SceneId id = SceneId::Sibenik, float detail = 0.05f)
        : scene(makeScene(id, detail)), mem(mem_cfg, 1)
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
    }
};

std::vector<Ray>
aoLikeRays(const Rig &rig, int n, std::uint64_t seed)
{
    Rng rng(seed);
    Aabb b = rig.bvh.sceneBounds();
    std::vector<Ray> rays;
    for (int i = 0; i < n; ++i) {
        Ray r;
        r.origin = {rng.nextRange(b.lo.x, b.hi.x),
                    rng.nextRange(b.lo.y, b.hi.y),
                    rng.nextRange(b.lo.z, b.hi.z)};
        r.dir = normalize(Vec3{rng.nextRange(-1, 1),
                               rng.nextRange(-1, 1),
                               rng.nextRange(-1, 1)} +
                          Vec3(1e-3f));
        r.tMax = b.diagonal() * 0.3f;
        r.kind = RayKind::Occlusion;
        rays.push_back(r);
    }
    return rays;
}

void
runToCompletion(RtUnit &rt)
{
    while (!rt.finished())
        rt.step();
}

std::vector<std::uint32_t>
iota(std::size_t n)
{
    std::vector<std::uint32_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint32_t>(i);
    return v;
}

TEST(RtUnit, EmptyEventQueueFailsLoudly)
{
    // Regression: nextEventCycle()/step() were guarded only by assert,
    // which compiles out in release builds — reading the empty event
    // queue was undefined behaviour and an infinite loop in the global
    // event loop. They must throw instead.
    Rig rig;
    RtUnitConfig cfg;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    EXPECT_FALSE(rt.hasEvents());
    EXPECT_THROW(rt.nextEventCycle(), std::logic_error);
    EXPECT_THROW(rt.step(), std::logic_error);
}

TEST(RtUnit, HasEventsTracksLifecycle)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 64, 7);
    RtUnitConfig cfg;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    EXPECT_FALSE(rt.hasEvents());
    rt.submit(rays, iota(rays.size()));
    EXPECT_TRUE(rt.hasEvents());
    while (!rt.finished()) {
        // The event loop contract: an unfinished unit always has a
        // pending event; nextEventCycle is safe exactly then.
        ASSERT_TRUE(rt.hasEvents());
        rt.step();
    }
}

TEST(RtUnit, BaselineMatchesReferenceHits)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 600, 1);
    RtUnitConfig cfg;
    cfg.repackEnabled = false;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    BvhTraversal trav(rig.bvh, rig.scene.mesh.triangles());
    for (std::size_t i = 0; i < rays.size(); ++i)
        EXPECT_EQ(trav.anyHit(rays[i]).hit, rt.results()[i].hit)
            << "ray " << i;
    EXPECT_EQ(rt.stats().get("rays_completed"), rays.size());
    EXPECT_GT(rt.completionCycle(), 0u);
}

TEST(RtUnit, ResultsSizedBySubmissionNotGlobalIds)
{
    // Regression: results() was indexed by global ray id, so a unit that
    // traced a few rays of a large frame held a result slot for every
    // ray of the frame. It is now indexed by submission order.
    Rig rig;
    auto rays = aoLikeRays(rig, 96, 11);
    std::vector<std::uint32_t> ids(rays.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<std::uint32_t>(4000000 + 7919 * i);
    RtUnitConfig cfg;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit(rays, ids);
    runToCompletion(rt);
    ASSERT_EQ(rt.results().size(), rays.size());
    BvhTraversal trav(rig.bvh, rig.scene.mesh.triangles());
    for (std::size_t i = 0; i < rays.size(); ++i)
        EXPECT_EQ(trav.anyHit(rays[i]).hit, rt.results()[i].hit)
            << "ray " << i;
}

TEST(RtUnit, PredictorPreservesCorrectness)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 600, 2);
    SimConfig sim = SimConfig::proposed();
    RayPredictor pred(sim.predictor, rig.bvh);
    RtUnitConfig cfg = sim.rt;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              &pred);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    BvhTraversal trav(rig.bvh, rig.scene.mesh.triangles());
    for (std::size_t i = 0; i < rays.size(); ++i)
        EXPECT_EQ(trav.anyHit(rays[i]).hit, rt.results()[i].hit)
            << "ray " << i;
}

TEST(RtUnit, PredictionFlagsConsistent)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 800, 3);
    SimConfig sim = SimConfig::proposed();
    RayPredictor pred(sim.predictor, rig.bvh);
    RtUnit rt(sim.rt, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              &pred);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    std::uint64_t predicted = 0, verified = 0, mispredicted = 0;
    for (const RayResult &r : rt.results()) {
        if (r.predicted)
            predicted++;
        if (r.verified)
            verified++;
        if (r.mispredicted)
            mispredicted++;
        // A verified or mispredicted ray must have been predicted.
        EXPECT_LE(r.verified + r.mispredicted, 1);
        if (r.verified || r.mispredicted) {
            EXPECT_TRUE(r.predicted);
        }
        // Occlusion rays: verified implies hit.
        if (r.verified) {
            EXPECT_TRUE(r.hit);
        }
    }
    EXPECT_EQ(predicted, rt.stats().get("rays_predicted"));
    EXPECT_EQ(verified, rt.stats().get("rays_verified"));
    EXPECT_EQ(mispredicted, rt.stats().get("rays_mispredicted"));
    EXPECT_EQ(predicted, verified + mispredicted);
}

TEST(RtUnit, ClosestHitRaysMatchReference)
{
    Rig rig;
    Rng rng(4);
    Aabb b = rig.bvh.sceneBounds();
    std::vector<Ray> rays;
    for (int i = 0; i < 300; ++i) {
        Ray r;
        r.origin = {rng.nextRange(b.lo.x, b.hi.x),
                    rng.nextRange(b.lo.y, b.hi.y),
                    rng.nextRange(b.lo.z, b.hi.z)};
        r.dir = normalize(Vec3{rng.nextRange(-1, 1),
                               rng.nextRange(-1, 1),
                               rng.nextRange(-1, 1)} +
                          Vec3(1e-3f));
        r.kind = RayKind::Secondary;
        rays.push_back(r);
    }
    SimConfig sim = SimConfig::proposed();
    RayPredictor pred(sim.predictor, rig.bvh);
    RtUnit rt(sim.rt, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              &pred);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    BvhTraversal trav(rig.bvh, rig.scene.mesh.triangles());
    for (std::size_t i = 0; i < rays.size(); ++i) {
        HitRecord ref = trav.closestHit(rays[i]);
        EXPECT_EQ(ref.hit, rt.results()[i].hit) << "ray " << i;
        if (ref.hit) {
            EXPECT_NEAR(ref.t, rt.results()[i].t, 1e-3f) << "ray " << i;
        }
    }
}

TEST(RtUnit, EmptySubmission)
{
    Rig rig;
    RtUnitConfig cfg;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit({}, {});
    EXPECT_TRUE(rt.finished());
}

TEST(RtUnit, PartialWarpSubmission)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 7, 5); // less than one warp
    RtUnitConfig cfg;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    EXPECT_EQ(rt.stats().get("rays_completed"), 7u);
}

TEST(RtUnit, MemoryAccessesAccounted)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 320, 6);
    RtUnitConfig cfg;
    cfg.repackEnabled = false;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    // Post-merge requests never exceed pre-merge fetches.
    EXPECT_LE(rt.stats().get("mem_node_accesses"),
              rt.stats().get("ray_node_fetches"));
    EXPECT_GT(rt.stats().get("ray_node_fetches"), 0u);
    EXPECT_GT(rt.stats().get("warp_merged_requests"), 0u);
}

TEST(RtUnit, StackSpillsChargedForDeepScenes)
{
    Rig rig(SceneId::CrytekSponza, 0.1f);
    auto rays = aoLikeRays(rig, 640, 7);
    RtUnitConfig cfg;
    cfg.stackEntries = 4; // tiny hardware stack forces spills
    cfg.repackEnabled = false;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    EXPECT_GT(rt.stats().get("stack_spills"), 0u);
    EXPECT_GT(rt.stats().get("mem_stack_accesses"), 0u);
}

TEST(RtUnit, SimtEfficiencyInUnitRange)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 640, 8);
    RtUnitConfig cfg;
    RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
              nullptr);
    rt.submit(rays, iota(rays.size()));
    runToCompletion(rt);
    EXPECT_GT(rt.simtEfficiency(), 0.0);
    EXPECT_LE(rt.simtEfficiency(), 1.0);
}

TEST(RtUnit, RepackedWarpsFormOnlyWithPredictor)
{
    Rig rig;
    auto rays = aoLikeRays(rig, 640, 9);
    {
        RtUnitConfig cfg;
        cfg.repackEnabled = true;
        RtUnit rt(cfg, rig.bvh, rig.scene.mesh.triangles(), rig.mem, 0,
                  nullptr);
        rt.submit(rays, iota(rays.size()));
        runToCompletion(rt);
        EXPECT_EQ(rt.stats().get("repacked_warps"), 0u);
    }
    {
        SimConfig sim = SimConfig::proposed();
        MemorySystem mem2(MemoryConfig{}, 1);
        RayPredictor pred(sim.predictor, rig.bvh);
        RtUnit rt(sim.rt, rig.bvh, rig.scene.mesh.triangles(), mem2, 0,
                  &pred);
        rt.submit(rays, iota(rays.size()));
        runToCompletion(rt);
        EXPECT_GT(rt.stats().get("repacked_warps"), 0u);
    }
}

} // namespace
} // namespace rtp
