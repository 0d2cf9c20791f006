/** @file Reference traversal tests (Algorithm 1) against brute force. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "exp/workload.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

std::vector<Triangle>
randomTriangles(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Triangle> tris;
    for (int i = 0; i < n; ++i) {
        Vec3 c{rng.nextRange(-10, 10), rng.nextRange(-10, 10),
               rng.nextRange(-10, 10)};
        tris.emplace_back(c, c + Vec3{rng.nextRange(0.1f, 2), 0, 0},
                          c + Vec3{0, rng.nextRange(0.1f, 2), 0});
    }
    return tris;
}

Ray
randomRay(Rng &rng, float tmax)
{
    Ray r;
    r.origin = {rng.nextRange(-12, 12), rng.nextRange(-12, 12),
                rng.nextRange(-12, 12)};
    r.dir = normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                           rng.nextRange(-1, 1)} +
                      Vec3(1e-4f));
    r.tMax = tmax;
    r.kind = RayKind::Occlusion;
    return r;
}

/** Every bundled scene at low detail, with a small AO ray set each. */
WorkloadCache &
sceneCache()
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

std::uint32_t
bits(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

/** Exact comparison of two hit records, including t/u/v bit patterns. */
void
expectBitIdentical(const HitRecord &a, const HitRecord &b,
                   const char *what, std::size_t i)
{
    ASSERT_EQ(a.hit, b.hit) << what << " ray " << i;
    if (!a.hit)
        return;
    EXPECT_EQ(a.prim, b.prim) << what << " ray " << i;
    EXPECT_EQ(bits(a.t), bits(b.t)) << what << " ray " << i;
    EXPECT_EQ(bits(a.u), bits(b.u)) << what << " ray " << i;
    EXPECT_EQ(bits(a.v), bits(b.v)) << what << " ray " << i;
}

TEST(Traversal, AnyHitMatchesBruteForceProperty)
{
    auto tris = randomTriangles(600, 100);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(101);
    int hits = 0;
    for (int i = 0; i < 500; ++i) {
        Ray ray = randomRay(rng, rng.nextRange(1.0f, 40.0f));
        bool ref = bruteForceAnyHit(tris, ray);
        HitRecord rec = traverseAnyHit(bvh, tris, ray);
        EXPECT_EQ(ref, rec.hit) << "ray " << i;
        if (ref)
            hits++;
    }
    EXPECT_GT(hits, 20);
    EXPECT_LT(hits, 480);
}

TEST(Traversal, ClosestHitMatchesBruteForceProperty)
{
    auto tris = randomTriangles(400, 102);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(103);
    for (int i = 0; i < 400; ++i) {
        Ray ray = randomRay(rng, 1e30f);
        ray.kind = RayKind::Primary;
        HitRecord ref = bruteForceClosestHit(tris, ray);
        HitRecord rec = traverseClosestHit(bvh, tris, ray);
        ASSERT_EQ(ref.hit, rec.hit) << "ray " << i;
        if (ref.hit) {
            EXPECT_NEAR(ref.t, rec.t, 1e-3f);
            EXPECT_EQ(ref.prim, rec.prim);
        }
    }
}

TEST(Traversal, AnyHitRecordsValidPrim)
{
    auto tris = randomTriangles(200, 104);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(105);
    for (int i = 0; i < 300; ++i) {
        Ray ray = randomRay(rng, 30.0f);
        HitRecord rec = traverseAnyHit(bvh, tris, ray);
        if (rec.hit) {
            ASSERT_LT(rec.prim, tris.size());
            HitRecord direct;
            EXPECT_TRUE(
                intersectRayTriangle(ray, tris[rec.prim], direct));
        }
    }
}

TEST(Traversal, StatsCountFetches)
{
    auto tris = randomTriangles(500, 106);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(107);
    TraversalStats ts;
    ts.recordTrace = true;
    Ray ray = randomRay(rng, 50.0f);
    traverseAnyHit(bvh, tris, ray, &ts);
    EXPECT_EQ(ts.nodesFetched, ts.interiorFetched + ts.leavesFetched);
    EXPECT_EQ(ts.nodeTrace.size(), ts.nodesFetched);
    for (std::uint32_t n : ts.nodeTrace)
        EXPECT_LT(n, bvh.nodeCount());
}

TEST(Traversal, StartNodeRestrictsSearch)
{
    auto tris = randomTriangles(500, 108);
    Bvh bvh = BvhBuilder().build(tris);
    // Pick an interior node and a ray through its box.
    std::uint32_t node = kBvhRoot;
    while (bvh.node(node).isLeaf() ||
           bvh.node(bvh.node(node).left).isLeaf())
        node = static_cast<std::uint32_t>(bvh.node(node).left);
    std::uint32_t sub = static_cast<std::uint32_t>(bvh.node(node).left);

    Ray ray;
    ray.origin = bvh.node(sub).box.center() - Vec3{0, 0, 30};
    ray.dir = {0, 0, 1};
    ray.tMax = 100.0f;
    TraversalStats full_ts, sub_ts;
    traverseAnyHit(bvh, tris, ray, &full_ts);
    traverseAnyHit(bvh, tris, ray, &sub_ts, sub);
    // The restricted traversal visits no more nodes than the subtree
    // holds and never more than the full traversal's node pool.
    EXPECT_LE(sub_ts.nodesFetched,
              bvh.node(sub).eulerOut - bvh.node(sub).eulerIn);
}

TEST(Traversal, SubtreeHitImpliesFullHit)
{
    auto tris = randomTriangles(400, 109);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(110);
    for (int i = 0; i < 200; ++i) {
        Ray ray = randomRay(rng, 40.0f);
        std::uint32_t node = rng.nextBounded(bvh.nodeCount());
        HitRecord sub = traverseAnyHit(bvh, tris, ray, nullptr, node);
        if (sub.hit) {
            EXPECT_TRUE(traverseAnyHit(bvh, tris, ray).hit)
                << "subtree hit must imply scene hit";
        }
    }
}

TEST(Traversal, CollectHitLeavesConsistent)
{
    auto tris = randomTriangles(300, 111);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(112);
    for (int i = 0; i < 200; ++i) {
        Ray ray = randomRay(rng, 40.0f);
        auto leaves = collectHitLeaves(bvh, tris, ray);
        bool any = traverseAnyHit(bvh, tris, ray).hit;
        EXPECT_EQ(any, !leaves.empty());
        for (std::uint32_t leaf : leaves) {
            EXPECT_TRUE(bvh.node(leaf).isLeaf());
            // Each reported leaf must contain a hit primitive.
            bool leaf_hit = false;
            const BvhNode &n = bvh.node(leaf);
            for (std::uint32_t j = 0; j < n.primCount; ++j) {
                HitRecord h;
                if (intersectRayTriangle(
                        ray, tris[bvh.primIndices()[n.firstPrim + j]],
                        h))
                    leaf_hit = true;
            }
            EXPECT_TRUE(leaf_hit);
        }
    }
}

TEST(Traversal, SceneWorkloadMatchesBruteForceSampled)
{
    Scene s = makeScene(SceneId::FireplaceRoom, 0.04f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    ASSERT_EQ(bvh.validate(s.mesh.size()), "");
    Rng rng(113);
    Aabb b = bvh.sceneBounds();
    for (int i = 0; i < 60; ++i) {
        Ray ray;
        ray.origin = {rng.nextRange(b.lo.x, b.hi.x),
                      rng.nextRange(b.lo.y, b.hi.y),
                      rng.nextRange(b.lo.z, b.hi.z)};
        ray.dir = normalize(Vec3{rng.nextRange(-1, 1),
                                 rng.nextRange(-1, 1),
                                 rng.nextRange(-1, 1)} +
                            Vec3(1e-4f));
        ray.tMax = b.diagonal() * 0.3f;
        EXPECT_EQ(bruteForceAnyHit(s.mesh.triangles(), ray),
                  traverseAnyHit(bvh, s.mesh.triangles(), ray).hit);
    }
}

TEST(Traversal, ContextBitIdenticalToFreeFunctionsOnEveryScene)
{
    // BvhTraversal (raygen's reusable context) must reproduce the
    // free-function reference bit for bit: hit, t, u, v, and prim.
    for (SceneId id : allSceneIds()) {
        const Workload &w = sceneCache().get(id);
        const auto &tris = w.scene.mesh.triangles();
        BvhTraversal ctx(w.bvh, tris);
        for (std::size_t i = 0; i < w.ao.rays.size(); ++i) {
            const Ray &ray = w.ao.rays[i];
            expectBitIdentical(traverseClosestHit(w.bvh, tris, ray),
                               ctx.closestHit(ray),
                               w.scene.shortName.c_str(), i);
            expectBitIdentical(traverseAnyHit(w.bvh, tris, ray),
                               ctx.anyHit(ray),
                               w.scene.shortName.c_str(), i);
        }
    }
}

TEST(Traversal, ContextBatchMatchesPerRayCalls)
{
    const Workload &w = sceneCache().get(SceneId::Sibenik);
    BvhTraversal ctx(w.bvh, w.scene.mesh.triangles());

    std::vector<HitRecord> batch;
    ctx.closestHitBatch(w.ao.rays, batch);
    ASSERT_EQ(batch.size(), w.ao.rays.size());
    std::vector<std::uint8_t> any;
    ctx.anyHitBatch(w.ao.rays, any);
    ASSERT_EQ(any.size(), w.ao.rays.size());

    for (std::size_t i = 0; i < w.ao.rays.size(); ++i) {
        expectBitIdentical(ctx.closestHit(w.ao.rays[i]), batch[i],
                           "batch", i);
        EXPECT_EQ(ctx.anyHit(w.ao.rays[i]).hit, any[i] != 0)
            << "ray " << i;
    }
}

} // namespace
} // namespace rtp
