/** @file BVH builder invariant tests. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "bvh/builder.hpp"
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
TEST(BvhBuild, GoldenDigestsBundledScenes)
{
    const std::uint64_t golden[] = {
        0x50805e9f74dc4cabULL, // SB
        0x32a13457be5887d6ULL, // SP
        0xa0b6ecd80ed08dcdULL, // LE
        0xd2a58d11267d08d5ULL, // LR
        0xb0c01b4d8be812a8ULL, // FR
        0x5f82f7f9d341fbb8ULL, // BI
        0xeb3998a08e2f2a86ULL, // CK
    };
    const auto &ids = allSceneIds();
    ASSERT_EQ(ids.size(), std::size(golden));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Scene s = makeScene(ids[i], 0.12f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        EXPECT_EQ(bvhDigest(bvh), golden[i])
            << s.shortName << " 0x" << std::hex << bvhDigest(bvh);
    }
}

TEST(BvhBuild, GoldenDigestSibenikFullDetail)
{
    Scene s = makeScene(SceneId::Sibenik, 1.0f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    EXPECT_EQ(bvhDigest(bvh), 0x5e78cf1abd25b146ULL)
        << "0x" << std::hex << bvhDigest(bvh);
}

TEST(BvhBuild, GoldenDigestCoincidentCentroids)
{
    Bvh bvh = BvhBuilder().build(coincidentCentroidSoup());
    EXPECT_EQ(bvhDigest(bvh), 0x51d89cd2b9572897ULL)
        << "0x" << std::hex << bvhDigest(bvh);
}

TEST(BvhBuild, GoldenDigestAfterRefit)
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
    EXPECT_EQ(bvhDigest(bvh), 0x859ef79a150965eULL)
        << "0x" << std::hex << bvhDigest(bvh);
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
