/** @file Shadow-ray generator tests. */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"

namespace rtp {
namespace {

struct Fixture
{
    Scene scene;
    Bvh bvh;
    Fixture() : scene(makeScene(SceneId::FireplaceRoom, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
    }
};

Fixture &
fx()
{
    static Fixture f;
    return f;
}

TEST(ShadowRays, OnePerPrimaryHit)
{
    RayGenConfig cfg;
    cfg.width = 24;
    cfg.height = 24;
    RayBatch batch = generateShadowRays(fx().scene, fx().bvh, cfg);
    EXPECT_EQ(batch.rays.size(), batch.primaryHits);
    EXPECT_GT(batch.primaryHits, 0u);
}

TEST(ShadowRays, PointTowardTheLight)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    Vec3 light{0.0f, 2.5f, 0.0f};
    RayBatch batch =
        generateShadowRays(fx().scene, fx().bvh, cfg, &light);
    for (const Ray &r : batch.rays) {
        EXPECT_EQ(r.kind, RayKind::Occlusion);
        // Ray direction must point at the light, segment ends there.
        Vec3 end = r.at(r.tMax);
        float remaining = length(light - end);
        float total = length(light - r.origin);
        EXPECT_LT(remaining, 0.02f * total + 1e-3f);
        EXPECT_NEAR(length(r.dir), 1.0f, 1e-4f);
    }
}

TEST(ShadowRays, SegmentBoundedByLightDistance)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    Vec3 light{1.0f, 2.0f, 0.5f};
    RayBatch batch =
        generateShadowRays(fx().scene, fx().bvh, cfg, &light);
    for (const Ray &r : batch.rays) {
        float dist = length(light - r.origin);
        EXPECT_LE(r.tMax, dist);
        EXPECT_GT(r.tMax, 0.9f * dist);
    }
}

TEST(ShadowRays, DefaultLightNearCeiling)
{
    RayGenConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    RayBatch batch = generateShadowRays(fx().scene, fx().bvh, cfg);
    Aabb b = fx().bvh.sceneBounds();
    // Shadow rays from floor-ish surfaces toward a ceiling light point
    // mostly upward on average.
    double up = 0;
    for (const Ray &r : batch.rays)
        up += r.dir.y;
    EXPECT_GT(up / batch.rays.size(), -0.2);
    (void)b;
}

TEST(ShadowRays, PredictorWorksOnShadowWorkload)
{
    // Full viewport with a low light tucked behind furniture: plenty of
    // surfaces are occluded, so the predictor has hits to train on.
    RayGenConfig cfg;
    cfg.width = 128;
    cfg.height = 128;
    cfg.viewportFraction = 1.0f;
    Aabb b = fx().bvh.sceneBounds();
    Vec3 light = lerp(b.lo, b.hi, 0.25f);
    RayBatch batch =
        generateShadowRays(fx().scene, fx().bvh, cfg, &light);
    ASSERT_GT(batch.rays.size(), 0u);
    const auto &tris = fx().scene.mesh.triangles();
    SimResult base =
        Simulation(SimConfig::baseline(), fx().bvh, tris).run(batch.rays);
    SimResult pred =
        Simulation(SimConfig::proposed(), fx().bvh, tris).run(batch.rays);
    // Correctness.
    BvhTraversal trav(fx().bvh, tris);
    for (std::size_t i = 0; i < batch.rays.size(); ++i) {
        bool ref = trav.anyHit(batch.rays[i]).hit;
        ASSERT_EQ(ref, pred.rayResults[i].hit);
    }
    // Shadow rays are occlusion rays: with real occlusion present the
    // predictor must train and engage.
    EXPECT_GT(pred.hitRate(), 0.05);
    EXPECT_GT(pred.predictedRate(), 0.1);
    (void)base;
}

} // namespace
} // namespace rtp
