/** @file Multi-frame simulation tests (dynamic scenes, Section 8). */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/frame_simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/animation.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

struct Rig
{
    Scene scene;
    Bvh bvh;
    RayGenConfig rg;

    Rig() : scene(makeScene(SceneId::FireplaceRoom, 0.08f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        rg.width = 48;
        rg.height = 48;
        rg.samplesPerPixel = 2;
        rg.viewportFraction = 48.0f / 1024.0f;
    }
};

TEST(FrameSimulator, StaticFramesProduceConsistentResults)
{
    Rig rig;
    RayBatch ao = generateAoRays(rig.scene, rig.bvh, rig.rg);
    FrameSimulator fs(SimConfig::proposed(), true);
    SimResult f1 = fs.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                               ao.rays);
    SimResult f2 = fs.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                               ao.rays);
    EXPECT_EQ(fs.framesRun(), 2u);
    // Hit results are deterministic across frames.
    for (std::size_t i = 0; i < ao.rays.size(); ++i)
        EXPECT_EQ(f1.rayResults[i].hit, f2.rayResults[i].hit);
    // Frame 2 starts with a warm table: at least as many predictions.
    EXPECT_GE(f2.predictedRate(), f1.predictedRate() * 0.95);
}

TEST(FrameSimulator, WarmTableOutperformsColdOnRepeatFrames)
{
    Rig rig;
    RayBatch ao = generateAoRays(rig.scene, rig.bvh, rig.rg);

    FrameSimulator warm(SimConfig::proposed(), true);
    FrameSimulator cold(SimConfig::proposed(), false);
    warm.runFrame(rig.bvh, rig.scene.mesh.triangles(), ao.rays);
    cold.runFrame(rig.bvh, rig.scene.mesh.triangles(), ao.rays);
    SimResult w2 = warm.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                                 ao.rays);
    SimResult c2 = cold.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                                 ao.rays);
    // The preserved table predicts from ray one; the cold one retrains.
    EXPECT_GT(w2.predictedRate(), c2.predictedRate() * 0.99);
    EXPECT_GE(w2.verifiedRate(), c2.verifiedRate() * 0.9);
}

TEST(FrameSimulator, DynamicFramesStayCorrect)
{
    Rig rig;
    SceneAnimator anim(rig.scene.mesh, 0.05f);
    FrameSimulator fs(SimConfig::proposed(), true);

    for (int frame = 0; frame < 3; ++frame) {
        anim.setFrame(frame * 0.4f);
        rig.bvh.refit(rig.scene.mesh.triangles());
        RayBatch ao = generateAoRays(rig.scene, rig.bvh, rig.rg);
        SimResult r = fs.runFrame(rig.bvh,
                                  rig.scene.mesh.triangles(),
                                  ao.rays);
        // Spot-check correctness against the reference traversal.
        BvhTraversal trav(rig.bvh, rig.scene.mesh.triangles());
        for (std::size_t i = 0; i < ao.rays.size(); i += 23) {
            bool ref = trav.anyHit(ao.rays[i]).hit;
            ASSERT_EQ(ref, r.rayResults[i].hit)
                << "frame " << frame << " ray " << i;
        }
    }
}

TEST(FrameSimulator, ResetPredictorsColdStarts)
{
    Rig rig;
    RayBatch ao = generateAoRays(rig.scene, rig.bvh, rig.rg);
    FrameSimulator fs(SimConfig::proposed(), true);
    fs.runFrame(rig.bvh, rig.scene.mesh.triangles(), ao.rays);
    fs.resetPredictors();
    SimResult r = fs.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                              ao.rays);
    FrameSimulator fresh(SimConfig::proposed(), true);
    SimResult f = fresh.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                                 ao.rays);
    EXPECT_EQ(r.stats.get("rays_predicted"),
              f.stats.get("rays_predicted"));
}

TEST(FrameSimulator, BaselineConfigHasNoPredictors)
{
    Rig rig;
    RayBatch ao = generateAoRays(rig.scene, rig.bvh, rig.rg);
    FrameSimulator fs(SimConfig::baseline(), true);
    SimResult r = fs.runFrame(rig.bvh, rig.scene.mesh.triangles(),
                              ao.rays);
    EXPECT_EQ(r.stats.get("rays_predicted"), 0u);
    EXPECT_EQ(r.stats.get("rays_completed"), ao.rays.size());
}

} // namespace
} // namespace rtp
