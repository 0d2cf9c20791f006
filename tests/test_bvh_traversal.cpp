/** @file BvhTraversal tests (Algorithm 1): brute force and golden digests. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "exp/workload.hpp"
#include "fnv1a.hpp"
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

TEST(Traversal, AnyHitMatchesBruteForceProperty)
{
    auto tris = randomTriangles(600, 100);
    Bvh bvh = BvhBuilder().build(tris);
    BvhTraversal trav(bvh, tris);
    Rng rng(101);
    int hits = 0;
    for (int i = 0; i < 500; ++i) {
        Ray ray = randomRay(rng, rng.nextRange(1.0f, 40.0f));
        bool ref = bruteForceAnyHit(tris, ray);
        EXPECT_EQ(ref, trav.anyHit(ray).hit) << "ray " << i;
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
    BvhTraversal trav(bvh, tris);
    Rng rng(103);
    for (int i = 0; i < 400; ++i) {
        Ray ray = randomRay(rng, 1e30f);
        ray.kind = RayKind::Primary;
        HitRecord ref = bruteForceClosestHit(tris, ray);
        HitRecord rec = trav.closestHit(ray);
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
    BvhTraversal trav(bvh, tris);
    Rng rng(105);
    for (int i = 0; i < 300; ++i) {
        Ray ray = randomRay(rng, 30.0f);
        HitRecord rec = trav.anyHit(ray);
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
    BvhTraversal(bvh, tris).anyHit(ray, &ts);
    EXPECT_EQ(ts.nodeTrace.size(), ts.nodesFetched);
    std::uint64_t leaves = 0;
    for (std::uint32_t n : ts.nodeTrace) {
        ASSERT_LT(n, bvh.nodeCount());
        leaves += bvh.node(n).isLeaf();
    }
    EXPECT_EQ(leaves, ts.leavesFetched);
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
    BvhTraversal trav(bvh, tris);
    trav.anyHit(ray, &full_ts);
    trav.anyHit(ray, &sub_ts, sub);
    // The restricted traversal visits no more nodes than the subtree
    // holds and never more than the full traversal's node pool.
    EXPECT_LE(sub_ts.nodesFetched,
              bvh.node(sub).eulerOut - bvh.node(sub).eulerIn);
}

TEST(Traversal, SubtreeHitImpliesFullHit)
{
    auto tris = randomTriangles(400, 109);
    Bvh bvh = BvhBuilder().build(tris);
    BvhTraversal trav(bvh, tris);
    Rng rng(110);
    for (int i = 0; i < 200; ++i) {
        Ray ray = randomRay(rng, 40.0f);
        std::uint32_t node = rng.nextBounded(bvh.nodeCount());
        HitRecord sub = trav.anyHit(ray, nullptr, node);
        if (sub.hit) {
            EXPECT_TRUE(trav.anyHit(ray).hit)
                << "subtree hit must imply scene hit";
        }
    }
}

TEST(Traversal, CollectHitLeavesConsistent)
{
    auto tris = randomTriangles(300, 111);
    Bvh bvh = BvhBuilder().build(tris);
    BvhTraversal trav(bvh, tris);
    Rng rng(112);
    HitLeafScratch scratch;
    for (int i = 0; i < 200; ++i) {
        Ray ray = randomRay(rng, 40.0f);
        const auto &leaves = collectHitLeaves(bvh, tris, ray, scratch);
        bool any = trav.anyHit(ray).hit;
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
    BvhTraversal trav(bvh, s.mesh.triangles());
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
                  trav.anyHit(ray).hit);
    }
}

/** Hash one traversal's hit record, counters and node trace into f. */
void
addTraversal(Fnv1a &f, const HitRecord &rec, const TraversalStats &ts)
{
    f.add(rec.hit);
    f.add(bits(rec.t));
    f.add(bits(rec.u));
    f.add(bits(rec.v));
    f.add(rec.prim);
    f.add(ts.nodesFetched);
    f.add(ts.leavesFetched);
    f.add(ts.boxTests);
    f.add(ts.triTests);
    for (std::uint32_t n : ts.nodeTrace)
        f.add(n);
}

/**
 * Golden digests of BvhTraversal over every scene's AO rays: closest-hit
 * and any-hit, from the root and from the root's left child. Each ray
 * hashes its hit record bits, fetch and test counters and node trace,
 * so any change to the walk's order, pruning or counting fails here.
 * The digests were recorded with the separate any-hit and closest-hit
 * loops, before they became one walk.
 */
TEST(Traversal, GoldenDigestsEveryScene)
{
    const std::uint64_t golden[] = {
        0x1ac25552882927f4ULL, // SB
        0xf899c5cee2809eddULL, // SP
        0x1a709729255167f9ULL, // LE
        0x45196032f2072916ULL, // LR
        0x0c3f75d25a919240ULL, // FR
        0xc237bcab04fd385aULL, // BI
        0x3c9599c0dcaf392aULL, // CK
    };
    const auto &ids = allSceneIds();
    ASSERT_EQ(ids.size(), std::size(golden));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Workload &w = sceneCache().get(ids[i]);
        const std::uint32_t interior =
            static_cast<std::uint32_t>(w.bvh.node(kBvhRoot).left);
        ASSERT_FALSE(w.bvh.node(interior).isLeaf()) << w.scene.shortName;
        BvhTraversal trav(w.bvh, w.scene.mesh.triangles());
        Fnv1a f;
        for (const Ray &ray : w.ao.rays) {
            for (std::uint32_t start : {kBvhRoot, interior}) {
                TraversalStats closest, any;
                closest.recordTrace = any.recordTrace = true;
                addTraversal(f, trav.closestHit(ray, &closest, start),
                             closest);
                addTraversal(f, trav.anyHit(ray, &any, start), any);
            }
        }
        EXPECT_EQ(f.h, golden[i])
            << w.scene.shortName << " 0x" << std::hex << f.h;
    }
}

} // namespace
} // namespace rtp
