/** @file BVH refit and scene animation tests (dynamic-scene support). */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "scene/animation.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

TEST(Refit, IdenticalGeometryKeepsBounds)
{
    Scene s = makeScene(SceneId::FireplaceRoom, 0.04f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    Aabb before = bvh.sceneBounds();
    bvh.refit(s.mesh.triangles());
    EXPECT_EQ(bvh.validate(s.mesh.size()), "");
    EXPECT_NEAR(before.diagonal(), bvh.sceneBounds().diagonal(), 1e-4f);
}

TEST(Refit, MovedGeometryStaysValidAndCorrect)
{
    Scene s = makeScene(SceneId::FireplaceRoom, 0.04f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());

    // Move a chunk of triangles and refit.
    auto &tris = s.mesh.triangles();
    Vec3 offset{0.4f, 0.2f, -0.3f};
    for (std::size_t i = 0; i < tris.size() / 5; ++i) {
        tris[i].v0 += offset;
        tris[i].v1 += offset;
        tris[i].v2 += offset;
    }
    bvh.refit(tris);
    EXPECT_EQ(bvh.validate(s.mesh.size()), "");

    // Traversal on the refit tree must agree with brute force.
    BvhTraversal trav(bvh, tris);
    Rng rng(5);
    Aabb b = bvh.sceneBounds();
    for (int i = 0; i < 60; ++i) {
        Ray ray;
        ray.origin = {rng.nextRange(b.lo.x, b.hi.x),
                      rng.nextRange(b.lo.y, b.hi.y),
                      rng.nextRange(b.lo.z, b.hi.z)};
        ray.dir = normalize(Vec3{rng.nextRange(-1, 1),
                                 rng.nextRange(-1, 1),
                                 rng.nextRange(-1, 1)} +
                            Vec3(1e-3f));
        ray.tMax = b.diagonal() * 0.3f;
        EXPECT_EQ(bruteForceAnyHit(tris, ray),
                  trav.anyHit(ray).hit)
            << "ray " << i;
    }
}

TEST(Refit, NodeIndicesStable)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    std::uint32_t nodes_before = bvh.nodeCount();
    std::uint32_t leaf = bvh.leafOfPrimSlot(0);
    bvh.refit(s.mesh.triangles());
    EXPECT_EQ(bvh.nodeCount(), nodes_before);
    EXPECT_EQ(bvh.leafOfPrimSlot(0), leaf);
}

TEST(Animator, SelectsRequestedFraction)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    std::size_t total = s.mesh.size();
    SceneAnimator anim(s.mesh, 0.1f);
    EXPECT_NEAR(static_cast<double>(anim.dynamicTriangles()),
                0.1 * total, 2.0);
}

TEST(Animator, DynamicClusterIsSpatiallyCoherent)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    SceneAnimator anim(s.mesh, 0.05f);
    // Bounding box of the dynamic subset should be much smaller than
    // the scene.
    Aabb cluster;
    for (std::uint32_t i : anim.dynamicIndices())
        cluster.extend(s.mesh.triangles()[i].bounds());
    EXPECT_LT(cluster.diagonal(),
              s.mesh.bounds().diagonal() * 0.8f);
}

TEST(Animator, SetFrameIsNotCumulative)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    SceneAnimator anim(s.mesh, 0.05f);
    anim.setFrame(1.0f);
    Triangle at1 = s.mesh.triangles()[anim.dynamicIndices()[0]];
    anim.setFrame(2.0f);
    anim.setFrame(1.0f);
    Triangle again = s.mesh.triangles()[anim.dynamicIndices()[0]];
    EXPECT_EQ(at1.v0, again.v0);
}

TEST(Animator, StaticTrianglesUntouched)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    std::vector<Triangle> before = s.mesh.triangles();
    SceneAnimator anim(s.mesh, 0.05f);
    anim.setFrame(3.0f);
    std::vector<bool> dynamic(s.mesh.size(), false);
    for (std::uint32_t i : anim.dynamicIndices())
        dynamic[i] = true;
    for (std::size_t i = 0; i < s.mesh.size(); i += 37) {
        if (!dynamic[i]) {
            EXPECT_EQ(before[i].v0, s.mesh.triangles()[i].v0);
        }
    }
}

TEST(Animator, MotionStaysSmallRelativeToScene)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    std::vector<Triangle> before = s.mesh.triangles();
    SceneAnimator anim(s.mesh, 0.05f);
    anim.setFrame(1.57f); // near peak displacement
    float diag = s.mesh.bounds().diagonal();
    for (std::uint32_t i : anim.dynamicIndices()) {
        float d = length(s.mesh.triangles()[i].v0 - before[i].v0);
        EXPECT_LT(d, 0.05f * diag);
    }
}

TEST(Animator, ZeroFractionIsNoop)
{
    Scene s = makeScene(SceneId::Sibenik, 0.03f);
    SceneAnimator anim(s.mesh, 0.0f);
    EXPECT_EQ(anim.dynamicTriangles(), 0u);
    anim.setFrame(5.0f); // must not crash
}

} // namespace
} // namespace rtp
