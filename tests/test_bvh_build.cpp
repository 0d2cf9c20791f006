/** @file BVH builder invariant tests. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "fnv1a.hpp"
#include "scene/registry.hpp"
#include "util/host.hpp"
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
        tris.emplace_back(
            c,
            c + Vec3{rng.nextRange(0.01f, 1), rng.nextRange(-1, 1),
                     rng.nextRange(-1, 1)},
            c + Vec3{rng.nextRange(-1, 1), rng.nextRange(0.01f, 1),
                     rng.nextRange(-1, 1)});
    }
    return tris;
}

/** 64 triangles sharing one centroid: forces the median fallback. */
std::vector<Triangle>
coincidentCentroidSoup()
{
    std::vector<Triangle> tris;
    for (int i = 0; i < 64; ++i) {
        float s = 0.1f + 0.01f * i;
        tris.emplace_back(Vec3{-s, -s, 0}, Vec3{s, -s, 0},
                          Vec3{0, 2 * s, 0});
    }
    return tris;
}

/**
 * Digest of everything the simulator reads from a BVH: every node
 * field (box bits included), primIndices, leafOfPrimSlot and
 * maxDepth. Any change to the tree changes it.
 */
std::uint64_t
bvhDigest(const Bvh &bvh)
{
    Fnv1a f;
    for (const BvhNode &n : bvh.nodes()) {
        for (float c : {n.box.lo.x, n.box.lo.y, n.box.lo.z, n.box.hi.x,
                        n.box.hi.y, n.box.hi.z})
            f.add(c);
        f.add(n.left);
        f.add(n.right);
        f.add(n.firstPrim);
        f.add(n.primCount);
        f.add(n.parent);
        f.add(n.depth);
        f.add(n.eulerIn);
        f.add(n.eulerOut);
    }
    for (std::uint32_t p : bvh.primIndices())
        f.add(p);
    for (std::uint32_t s = 0; s < bvh.primIndices().size(); ++s)
        f.add(bvh.leafOfPrimSlot(s));
    f.add(bvh.maxDepth());
    return f.h;
}

TEST(BvhBuild, SingleTriangle)
{
    auto tris = randomTriangles(1, 1);
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.nodeCount(), 1u);
    EXPECT_TRUE(bvh.node(kBvhRoot).isLeaf());
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

TEST(BvhBuild, EmptyThrows)
{
    std::vector<Triangle> empty;
    EXPECT_THROW(BvhBuilder().build(empty), std::invalid_argument);
}

/** Parameterised over sizes: invariants hold at every scale. */
class BvhSizeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BvhSizeTest, ValidatesAndCoversAllPrims)
{
    auto tris = randomTriangles(GetParam(), 42 + GetParam());
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.validate(tris.size()), "") << "n=" << GetParam();
    // Root bounds must contain every triangle.
    Aabb root = bvh.sceneBounds();
    Aabb grown = root;
    grown.lo -= Vec3(1e-3f);
    grown.hi += Vec3(1e-3f);
    for (const auto &t : tris)
        EXPECT_TRUE(grown.contains(t.bounds()));
}

TEST_P(BvhSizeTest, DepthIsLogarithmicish)
{
    auto tris = randomTriangles(GetParam(), 7);
    Bvh bvh = BvhBuilder().build(tris);
    // SAH over uniformly random triangles should stay near log2(n),
    // certainly under 4*log2(n) + 8.
    double log2n = std::log2(std::max(2, GetParam()));
    EXPECT_LT(bvh.maxDepth(), 4 * log2n + 8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BvhSizeTest,
                         ::testing::Values(2, 5, 16, 100, 1000, 5000));

TEST(BvhBuild, LeafSizeRespected)
{
    BvhBuildConfig cfg;
    cfg.maxLeafSize = 2;
    auto tris = randomTriangles(500, 9);
    Bvh bvh = BvhBuilder(cfg).build(tris);
    for (const auto &n : bvh.nodes()) {
        if (n.isLeaf()) {
            EXPECT_LE(n.primCount, 8u); // SAH may keep small clusters
        }
    }
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

TEST(BvhBuild, IdenticalCentroidsStillTerminate)
{
    auto tris = coincidentCentroidSoup();
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

TEST(BvhBuild, AncestorWalk)
{
    auto tris = randomTriangles(200, 10);
    Bvh bvh = BvhBuilder().build(tris);
    for (std::uint32_t i = 0; i < bvh.nodeCount(); ++i) {
        // 0th ancestor is the node itself.
        EXPECT_EQ(bvh.ancestorOf(i, 0), i);
        // A huge k clamps at the root.
        EXPECT_EQ(bvh.ancestorOf(i, 10000), kBvhRoot);
        // k-th ancestor depth decreases by exactly min(k, depth).
        std::uint32_t a = bvh.ancestorOf(i, 3);
        std::uint32_t expect_depth =
            bvh.node(i).depth >= 3 ? bvh.node(i).depth - 3 : 0;
        EXPECT_EQ(bvh.node(a).depth, expect_depth);
    }
}

TEST(BvhBuild, EulerSubtreeContainment)
{
    auto tris = randomTriangles(300, 11);
    Bvh bvh = BvhBuilder().build(tris);
    for (std::uint32_t i = 0; i < bvh.nodeCount(); ++i) {
        const BvhNode &n = bvh.node(i);
        EXPECT_TRUE(bvh.inSubtree(kBvhRoot, i));
        EXPECT_TRUE(bvh.inSubtree(i, i));
        if (!n.isLeaf()) {
            EXPECT_TRUE(bvh.inSubtree(i, n.left));
            EXPECT_TRUE(bvh.inSubtree(i, n.right));
            EXPECT_FALSE(bvh.inSubtree(n.left, i));
            // Siblings are not in each other's subtree.
            EXPECT_FALSE(bvh.inSubtree(n.left, n.right));
        }
    }
}

TEST(BvhBuild, LeafOfPrimSlotRoundTrip)
{
    auto tris = randomTriangles(400, 12);
    Bvh bvh = BvhBuilder().build(tris);
    for (std::uint32_t slot = 0; slot < tris.size(); ++slot) {
        std::uint32_t leaf = bvh.leafOfPrimSlot(slot);
        const BvhNode &n = bvh.node(leaf);
        ASSERT_TRUE(n.isLeaf());
        EXPECT_GE(slot, n.firstPrim);
        EXPECT_LT(slot, n.firstPrim + n.primCount);
    }
}

TEST(BvhBuild, NodeAddressesAreDistinctAndAligned)
{
    auto tris = randomTriangles(100, 13);
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.nodeAddress(1) - bvh.nodeAddress(0), kBvhNodeBytes);
    EXPECT_EQ(bvh.triangleAddress(1) - bvh.triangleAddress(0),
              kTriangleBytes);
    EXPECT_NE(bvh.nodeAddress(0), bvh.triangleAddress(0));
}

TEST(BvhBuild, SceneBvhDepthInPaperBallpark)
{
    // At detail 0.12, tree depth should be in a plausible range for
    // architectural scenes (the paper's full-size scenes are 22-27).
    Scene s = makeScene(SceneId::CrytekSponza, 0.12f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    EXPECT_GE(bvh.maxDepth(), 12u);
    EXPECT_LE(bvh.maxDepth(), 40u);
    EXPECT_EQ(bvh.validate(s.mesh.size()), "");
}

/**
 * Golden digests of the default build. The RT unit's timing depends on
 * the exact tree, so a geometry or builder change that moves any node,
 * box bit or primitive slot must fail here. The digests were recorded
 * with libm fminf/fmaxf bounds, before the inline selects replaced
 * them.
 */
const std::uint64_t kGoldenBundled[] = {
    0x50805e9f74dc4cabULL, // SB
    0x32a13457be5887d6ULL, // SP
    0xa0b6ecd80ed08dcdULL, // LE
    0xd2a58d11267d08d5ULL, // LR
    0xb0c01b4d8be812a8ULL, // FR
    0x5f82f7f9d341fbb8ULL, // BI
    0xeb3998a08e2f2a86ULL, // CK
};
constexpr std::uint64_t kGoldenSibenikFull = 0x5e78cf1abd25b146ULL;
constexpr std::uint64_t kGoldenCoincident = 0x51d89cd2b9572897ULL;
constexpr std::uint64_t kGoldenRefit = 0x859ef79a150965eULL;

void
expectGoldenBundledScenes()
{
    const auto &ids = allSceneIds();
    ASSERT_EQ(ids.size(), std::size(kGoldenBundled));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Scene s = makeScene(ids[i], 0.12f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        EXPECT_EQ(bvhDigest(bvh), kGoldenBundled[i])
            << s.shortName << " 0x" << std::hex << bvhDigest(bvh);
    }
}

void
expectGoldenSibenikFullDetail()
{
    Scene s = makeScene(SceneId::Sibenik, 1.0f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    EXPECT_EQ(bvhDigest(bvh), kGoldenSibenikFull)
        << "0x" << std::hex << bvhDigest(bvh);
}

void
expectGoldenCoincidentCentroids()
{
    Bvh bvh = BvhBuilder().build(coincidentCentroidSoup());
    EXPECT_EQ(bvhDigest(bvh), kGoldenCoincident)
        << "0x" << std::hex << bvhDigest(bvh);
}

void
expectGoldenAfterRefit()
{
    auto tris = randomTriangles(2000, 21);
    Bvh bvh = BvhBuilder().build(tris);
    Rng rng(22);
    for (auto &t : tris) {
        Vec3 d{rng.nextRange(-0.5f, 0.5f), rng.nextRange(-0.5f, 0.5f),
               rng.nextRange(-0.5f, 0.5f)};
        t.v0 += d;
        t.v1 += d * 0.5f;
        t.v2 -= d;
    }
    bvh.refit(tris);
    EXPECT_EQ(bvh.validate(tris.size()), "");
    EXPECT_EQ(bvhDigest(bvh), kGoldenRefit)
        << "0x" << std::hex << bvhDigest(bvh);
}

TEST(BvhBuild, GoldenDigestsBundledScenes)
{
    expectGoldenBundledScenes();
}

TEST(BvhBuild, GoldenDigestSibenikFullDetail)
{
    expectGoldenSibenikFullDetail();
}

TEST(BvhBuild, GoldenDigestCoincidentCentroids)
{
    expectGoldenCoincidentCentroids();
}

TEST(BvhBuild, GoldenDigestAfterRefit)
{
    expectGoldenAfterRefit();
}

/**
 * The same digests at forced worker counts: the parallel build splits
 * the top levels, builds the subtrees on workers and replays them into
 * one node array, and must produce the serial tree at any count.
 */
class BvhBuildWorkers : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    ForcedWorkerCount forced_{GetParam()};
};

TEST_P(BvhBuildWorkers, GoldenDigestsBundledScenes)
{
    expectGoldenBundledScenes();
}

TEST_P(BvhBuildWorkers, GoldenDigestSibenikFullDetail)
{
    expectGoldenSibenikFullDetail();
}

TEST_P(BvhBuildWorkers, GoldenDigestCoincidentCentroids)
{
    expectGoldenCoincidentCentroids();
}

TEST_P(BvhBuildWorkers, GoldenDigestAfterRefit)
{
    expectGoldenAfterRefit();
}

/**
 * Every node's box is, bit for bit, the union of its children's boxes
 * or, at a leaf, of its primitives' boxes in slot order: the replay
 * computes boxes that way, and the serial recursion it replaced
 * computed the box of all the node's primitives.
 */
void
expectExactBoxes(const Bvh &bvh, const std::vector<Triangle> &tris)
{
    auto same = [](const Aabb &a, const Aabb &b) {
        return std::memcmp(&a, &b, sizeof(Aabb)) == 0;
    };
    for (std::uint32_t i = 0; i < bvh.nodeCount(); ++i) {
        const BvhNode &n = bvh.node(i);
        Aabb expect;
        if (n.isLeaf()) {
            for (std::uint32_t k = 0; k < n.primCount; ++k)
                expect.extend(
                    tris[bvh.primIndices()[n.firstPrim + k]].bounds());
        } else {
            expect.extend(bvh.node(n.left).box);
            expect.extend(bvh.node(n.right).box);
        }
        ASSERT_TRUE(same(n.box, expect)) << "node " << i;
        // ... and the box of every primitive below it, in slot order.
        Aabb all;
        for (std::uint32_t e = n.eulerIn; e < n.eulerOut; ++e) {
            const BvhNode &d = bvh.node(e);
            if (d.isLeaf())
                for (std::uint32_t k = 0; k < d.primCount; ++k)
                    all.extend(
                        tris[bvh.primIndices()[d.firstPrim + k]].bounds());
        }
        ASSERT_TRUE(same(n.box, all)) << "node " << i;
    }
}

TEST_P(BvhBuildWorkers, NodeBoxesAreExactUnions)
{
    for (SceneId id : allSceneIds()) {
        Scene s = makeScene(id, 0.12f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        SCOPED_TRACE(s.shortName);
        expectExactBoxes(bvh, s.mesh.triangles());
    }
    auto tris = randomTriangles(5000, 31);
    expectExactBoxes(BvhBuilder().build(tris), tris);
}

INSTANTIATE_TEST_SUITE_P(Forced, BvhBuildWorkers,
                         ::testing::Values(1u, 2u, 3u, 8u),
                         ::testing::PrintToStringParamName());

/**
 * randomTriangles with every third triangle replaced by a zero-area
 * one on integer coordinates, so its edges are exactly parallel: a
 * point, a segment with two coincident corners, or three collinear
 * corners.
 */
std::vector<Triangle>
zeroAreaSoup()
{
    std::vector<Triangle> tris = randomTriangles(3000, 51);
    Rng rng(52);
    auto coord = [&](float lo, float hi) {
        return std::floor(rng.nextRange(lo, hi));
    };
    for (std::size_t i = 0; i < tris.size(); i += 3) {
        Vec3 a{coord(-10, 10), coord(-10, 10), coord(-10, 10)};
        Vec3 e{coord(1, 3), coord(-3, 3), coord(-3, 3)};
        if (i / 3 % 3 == 0)
            tris[i] = {a, a, a};
        else if (i / 3 % 3 == 1)
            tris[i] = {a, a + e, a + e};
        else
            tris[i] = {a, a + e, a - e};
    }
    return tris;
}

/**
 * The builder's zero-area policy: such a triangle is kept like any
 * other (a slot, a leaf, a point or segment box), so primIndices stays
 * a permutation of the triangle ids; the ray-triangle test never
 * reports a hit on it.
 */
TEST(BvhBuild, ZeroAreaTrianglesAreKeptAndNeverHit)
{
    const std::vector<Triangle> tris = zeroAreaSoup();
    std::vector<bool> zero(tris.size());
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < tris.size(); ++i)
        zeros += zero[i] = tris[i].area() == 0.0f;
    ASSERT_EQ(zeros, 1000u);

    Bvh bvh = [&] {
        ForcedWorkerCount serial(1);
        return BvhBuilder().build(tris);
    }();
    EXPECT_EQ(bvh.validate(tris.size()), "");
    for (std::uint32_t workers : {2u, 3u, 8u}) {
        ForcedWorkerCount forced(workers);
        EXPECT_EQ(bvhDigest(BvhBuilder().build(tris)), bvhDigest(bvh))
            << workers << " workers";
    }

    // Rays from random points through each zero-area triangle's first
    // corner, and rays nearly along its edge.
    BvhTraversal trav(bvh, tris);
    Rng rng(53);
    int hits = 0;
    auto expect_no_zero_hit = [&](const Ray &ray) {
        HitRecord closest = trav.closestHit(ray);
        HitRecord any = trav.anyHit(ray);
        EXPECT_FALSE(closest.hit && zero[closest.prim]) << closest.prim;
        EXPECT_FALSE(any.hit && zero[any.prim]) << any.prim;
        hits += closest.hit;
    };
    for (std::size_t i = 0; i < tris.size(); ++i) {
        if (!zero[i])
            continue;
        const Triangle &t = tris[i];
        Vec3 from{rng.nextRange(-12, 12), rng.nextRange(-12, 12),
                  rng.nextRange(-12, 12)};
        Ray ray;
        ray.origin = from;
        ray.dir = normalize(t.v0 - from);
        expect_no_zero_hit(ray);
        if (t.v1 == t.v0)
            continue;
        Vec3 jitter{rng.nextRange(-1e-3f, 1e-3f),
                    rng.nextRange(-1e-3f, 1e-3f),
                    rng.nextRange(-1e-3f, 1e-3f)};
        ray.dir = normalize(t.v1 - t.v0 + jitter);
        ray.origin = t.v0 - ray.dir * 2.0f;
        expect_no_zero_hit(ray);
    }
    EXPECT_GT(hits, 100); // the rays do reach ordinary triangles
}

TEST(BvhBuild, AllZeroAreaSoupBuilds)
{
    std::vector<Triangle> points(100, Triangle{{1, 2, 3}, {1, 2, 3},
                                               {1, 2, 3}});
    for (std::uint32_t workers : {1u, 3u}) {
        ForcedWorkerCount forced(workers);
        Bvh bvh = BvhBuilder().build(points);
        EXPECT_EQ(bvh.validate(points.size()), "");
        BvhTraversal trav(bvh, points);
        Ray ray;
        ray.origin = {1, 2, 0};
        ray.dir = {0, 0, 1};
        EXPECT_FALSE(trav.closestHit(ray).hit);
    }
}

/** Bad configurations are rejected up front, naming the field. */
TEST(BvhBuild, RejectsInvalidConfig)
{
    auto expect_rejected = [](BvhBuildConfig cfg, const char *field) {
        try {
            Bvh bvh = BvhBuilder(cfg).build(randomTriangles(50, 3));
            ADD_FAILURE() << field << ": accepted, "
                          << bvh.nodeCount() << " nodes";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int bins : {-1, 0, 1}) {
        BvhBuildConfig cfg;
        cfg.sahBins = bins;
        expect_rejected(cfg, "sahBins");
    }
    for (int leaf : {-1, 0}) {
        BvhBuildConfig cfg;
        cfg.maxLeafSize = leaf;
        expect_rejected(cfg, "maxLeafSize");
    }
    for (float c : {-1.0f, inf, -inf, nan}) {
        BvhBuildConfig cfg;
        cfg.traversalCost = c;
        expect_rejected(cfg, "traversalCost");
        cfg = {};
        cfg.intersectCost = c;
        expect_rejected(cfg, "intersectCost");
    }
}

/** A NaN or infinite vertex is rejected up front, naming the triangle. */
TEST(BvhBuild, RejectsNonFiniteVertex)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (float bad : {nan, inf, -inf}) {
        for (int vertex = 0; vertex < 3; ++vertex) {
            auto tris = randomTriangles(50, 5);
            Triangle &t = tris[17];
            (vertex == 0 ? t.v0 : vertex == 1 ? t.v1 : t.v2).y = bad;
            try {
                Bvh bvh = BvhBuilder().build(tris);
                ADD_FAILURE() << bad << " in vertex " << vertex
                              << ": accepted, " << bvh.nodeCount()
                              << " nodes";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("triangle 17 "),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(BvhBuild, AcceptsSmallestValidConfig)
{
    BvhBuildConfig cfg;
    cfg.sahBins = 2;
    cfg.maxLeafSize = 1;
    cfg.traversalCost = 0.0f;
    cfg.intersectCost = 0.0f;
    auto tris = randomTriangles(300, 4);
    Bvh bvh = BvhBuilder(cfg).build(tris);
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

} // namespace
} // namespace rtp
