/** @file Ray-box and ray-triangle intersection tests. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "geometry/intersect.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

Ray
makeRay(Vec3 o, Vec3 d, float tmax = 1e30f)
{
    Ray r;
    r.origin = o;
    r.dir = d;
    r.tMax = tmax;
    return r;
}

TEST(RayBox, StraightHit)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    float t;
    EXPECT_TRUE(intersectRayAabb(makeRay({-5, 0, 0}, {1, 0, 0}), box, t));
    EXPECT_NEAR(t, 4.0f, 1e-5f);
}

TEST(RayBox, Miss)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    float t;
    EXPECT_FALSE(
        intersectRayAabb(makeRay({-5, 3, 0}, {1, 0, 0}), box, t));
    EXPECT_FALSE(
        intersectRayAabb(makeRay({-5, 0, 0}, {-1, 0, 0}), box, t));
}

TEST(RayBox, OriginInsideBox)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    float t;
    EXPECT_TRUE(intersectRayAabb(makeRay({0, 0, 0}, {1, 0, 0}), box, t));
    // Entry is clamped to tMin when the origin is inside.
    EXPECT_NEAR(t, 1e-4f, 1e-5f);
}

TEST(RayBox, TMaxCulls)
{
    Aabb box{{10, -1, -1}, {12, 1, 1}};
    float t;
    EXPECT_TRUE(intersectRayAabb(makeRay({0, 0, 0}, {1, 0, 0}, 20.0f),
                                 box, t));
    EXPECT_FALSE(intersectRayAabb(makeRay({0, 0, 0}, {1, 0, 0}, 5.0f),
                                  box, t));
}

TEST(RayBox, AxisParallelRays)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    float t;
    // Direction has a zero component; IEEE inf semantics must handle it.
    EXPECT_TRUE(intersectRayAabb(makeRay({0, -5, 0}, {0, 1, 0}), box, t));
    EXPECT_FALSE(
        intersectRayAabb(makeRay({3, -5, 0}, {0, 1, 0}), box, t));
}

TEST(RayBox, DiagonalRay)
{
    Aabb box{{1, 1, 1}, {2, 2, 2}};
    float t;
    EXPECT_TRUE(
        intersectRayAabb(makeRay({0, 0, 0}, {1, 1, 1}), box, t));
    EXPECT_NEAR(t, 1.0f, 1e-5f); // parametric, direction unnormalised
}

TEST(RayTriangle, FrontAndBackHit)
{
    Triangle tri{{0, 0, 5}, {2, 0, 5}, {0, 2, 5}};
    HitRecord rec;
    EXPECT_TRUE(intersectRayTriangle(
        makeRay({0.5f, 0.5f, 0}, {0, 0, 1}), tri, rec));
    EXPECT_NEAR(rec.t, 5.0f, 1e-4f);
    // From the other side (no backface culling for occlusion rays).
    HitRecord rec2;
    EXPECT_TRUE(intersectRayTriangle(
        makeRay({0.5f, 0.5f, 10}, {0, 0, -1}), tri, rec2));
    EXPECT_NEAR(rec2.t, 5.0f, 1e-4f);
}

TEST(RayTriangle, MissOutsideEdges)
{
    Triangle tri{{0, 0, 5}, {2, 0, 5}, {0, 2, 5}};
    HitRecord rec;
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({1.5f, 1.5f, 0}, {0, 0, 1}), tri, rec)); // u+v > 1
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({-0.5f, 0.5f, 0}, {0, 0, 1}), tri, rec)); // u < 0
}

TEST(RayTriangle, ParallelRayMisses)
{
    Triangle tri{{0, 0, 5}, {2, 0, 5}, {0, 2, 5}};
    HitRecord rec;
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({0.5f, 0.5f, 0}, {1, 0, 0}), tri, rec));
}

TEST(RayTriangle, ZeroAreaTriangleIsNeverHit)
{
    // Collinear corners on integer coordinates, so the edges are
    // exactly parallel, and rays nearly parallel to them passing close
    // by: their det is rounding noise that can clear the relative cull
    // (about 1 ray in 700 did before the zero-area check).
    Rng rng(61);
    int tested = 0;
    for (int i = 0; i < 40000; ++i) {
        auto coord = [&](float lo, float hi) {
            return std::floor(rng.nextRange(lo, hi));
        };
        Vec3 v0{coord(-10, 10), coord(-10, 10), coord(-10, 10)};
        Vec3 e{coord(-4, 4), coord(-4, 4), coord(-4, 4)};
        if (e.x == 0 && e.y == 0 && e.z == 0)
            continue;
        const float k = i % 2 ? -1.0f : -0.5f; // v0 between the ends
        Triangle tri{v0, v0 + e, v0 + e * k};
        ASSERT_EQ(tri.area(), 0.0f);
        Vec3 jitter{rng.nextRange(-1e-3f, 1e-3f),
                    rng.nextRange(-1e-3f, 1e-3f),
                    rng.nextRange(-1e-3f, 1e-3f)};
        Vec3 dir = normalize(e + jitter * length(e));
        Vec3 nudge{rng.nextRange(-1e-4f, 1e-4f),
                   rng.nextRange(-1e-4f, 1e-4f),
                   rng.nextRange(-1e-4f, 1e-4f)};
        HitRecord rec;
        EXPECT_FALSE(intersectRayTriangle(
            makeRay(v0 - dir * 3.0f + nudge, dir), tri, rec))
            << "triangle " << i;
        // Coincident corners, hit square on.
        Triangle point{v0, v0, v0};
        Triangle seg{v0, v0 + e, v0 + e};
        Vec3 at = v0 + Vec3{0, 0, -1};
        EXPECT_FALSE(
            intersectRayTriangle(makeRay(at, {0, 0, 1}), point, rec));
        EXPECT_FALSE(intersectRayTriangle(
            makeRay(v0 + e * 0.5f - dir, dir), seg, rec));
        tested++;
    }
    EXPECT_GT(tested, 30000);
}

TEST(RayTriangle, BehindOriginMisses)
{
    Triangle tri{{0, 0, -5}, {2, 0, -5}, {0, 2, -5}};
    HitRecord rec;
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({0.5f, 0.5f, 0}, {0, 0, 1}), tri, rec));
}

TEST(RayTriangle, TMaxCulls)
{
    Triangle tri{{0, 0, 5}, {2, 0, 5}, {0, 2, 5}};
    HitRecord rec;
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({0.5f, 0.5f, 0}, {0, 0, 1}, 4.0f), tri, rec));
}

TEST(RayTriangle, BarycentricsConsistentProperty)
{
    // Sample random points inside random triangles; the reported (u, v)
    // must reconstruct the sample point.
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
        Triangle tri{{rng.nextRange(-3, 3), rng.nextRange(-3, 3), 5.0f},
                     {rng.nextRange(-3, 3), rng.nextRange(-3, 3), 5.5f},
                     {rng.nextRange(-3, 3), rng.nextRange(-3, 3), 6.0f}};
        if (tri.area() < 1e-3f)
            continue;
        float u = rng.nextFloat(), v = rng.nextFloat();
        if (u + v > 1.0f) {
            u = 1.0f - u;
            v = 1.0f - v;
        }
        Vec3 p = tri.v0 + (tri.v1 - tri.v0) * u + (tri.v2 - tri.v0) * v;
        Ray ray = makeRay(p - Vec3{0, 0, 10}, {0, 0, 1});
        HitRecord rec;
        ASSERT_TRUE(intersectRayTriangle(ray, tri, rec));
        EXPECT_NEAR(rec.u, u, 1e-3f);
        EXPECT_NEAR(rec.v, v, 1e-3f);
        Vec3 hit = ray.at(rec.t);
        EXPECT_NEAR(hit.x, p.x, 1e-3f);
        EXPECT_NEAR(hit.y, p.y, 1e-3f);
    }
}

/**
 * Property: a ray that hits a triangle must also hit the triangle's
 * bounding box (conservativeness of the box test, which BVH pruning
 * relies on).
 */
TEST(Intersect, BoxTestIsConservativeProperty)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 1000; ++i) {
        Triangle tri{{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
                      rng.nextRange(-5, 5)},
                     {rng.nextRange(-5, 5), rng.nextRange(-5, 5),
                      rng.nextRange(-5, 5)},
                     {rng.nextRange(-5, 5), rng.nextRange(-5, 5),
                      rng.nextRange(-5, 5)}};
        Ray ray = makeRay({rng.nextRange(-10, 10),
                           rng.nextRange(-10, 10), -20.0f},
                          {rng.nextRange(-0.5f, 0.5f),
                           rng.nextRange(-0.5f, 0.5f), 1.0f});
        HitRecord rec;
        if (intersectRayTriangle(ray, tri, rec)) {
            hits++;
            float t;
            EXPECT_TRUE(intersectRayAabb(ray, tri.bounds(), t));
        }
    }
    EXPECT_GT(hits, 10); // the sample must actually exercise hits
}

// --- Robust-slab regression suite: the historical NaN failure was an
// --- origin exactly on a slab plane with an axis-parallel direction
// --- (0 * inf = NaN), so these pin the safeInv formulation.

TEST(RayBox, OriginOnSlabPlaneAxisParallel)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    float t;
    // Origin exactly on the x = -1 plane, direction parallel to that
    // plane: (lo.x - o.x) * invDir.x used to be 0 * inf = NaN.
    EXPECT_TRUE(intersectRayAabb(
        makeRay({-1.0f, -5.0f, 0.0f}, {0, 1, 0}), box, t));
    EXPECT_TRUE(std::isfinite(t));
    // Same configuration but sliding along the plane outside the box.
    EXPECT_FALSE(intersectRayAabb(
        makeRay({-1.0f, -5.0f, 3.0f}, {0, 1, 0}), box, t));
    // Origin on the hi plane, negative-parallel direction: safeInv's
    // positive-canonicalised reciprocal makes containment along a
    // zero-direction axis half-open, [lo, hi) — a deterministic
    // tie-break (like the rasteriser top-left rule) so a point on the
    // plane shared by two adjacent boxes counts in exactly one of
    // them. On the hi plane that is a miss, and never a NaN.
    EXPECT_FALSE(intersectRayAabb(
        makeRay({1.0f, 5.0f, 0.0f}, {0, -1, 0}), box, t));
    // Aimed into the box from the hi plane it is an ordinary hit.
    EXPECT_TRUE(intersectRayAabb(
        makeRay({1.0f, 0.0f, 0.0f}, {-1.0f, 0.0f, 0.0f}), box, t));
    EXPECT_TRUE(std::isfinite(t));
}

TEST(RayBox, NegativeZeroDirectionMatchesPositiveZero)
{
    // -0.0f passes d != 0.0f checks in naive formulations and flips
    // the slab roles via 1/-0 = -inf. safeInv canonicalises both zero
    // signs to the same positive reciprocal, so the precompute — and
    // therefore every tEntry, including ties — is bit-identical.
    Ray pos = makeRay({0.5f, -5.0f, 0.25f}, {0.0f, 1.0f, 0.0f});
    Ray neg = makeRay({0.5f, -5.0f, 0.25f}, {-0.0f, 1.0f, -0.0f});
    RayBoxPrecomp ppos(pos), pneg(neg);
    EXPECT_EQ(std::memcmp(&ppos, &pneg, sizeof(ppos)), 0);

    Aabb box{{0, 0, 0}, {1, 1, 1}};
    float tp = 0, tn = 0;
    bool hp = intersectRayAabb(pos, ppos, box, tp);
    bool hn = intersectRayAabb(neg, pneg, box, tn);
    EXPECT_EQ(hp, hn);
    std::uint32_t bp, bn;
    std::memcpy(&bp, &tp, 4);
    std::memcpy(&bn, &tn, 4);
    EXPECT_EQ(bp, bn);
}

TEST(RayBox, DenormalDirectionComponentIsFinite)
{
    // A denormal component is != 0 but 1/d overflows to inf; safeInv
    // clamps to a signed huge value so slab products stay finite.
    float denorm = 1e-42f;
    ASSERT_GT(denorm, 0.0f);
    ASSERT_TRUE(std::isinf(1.0f / denorm));
    EXPECT_TRUE(std::isfinite(RayBoxPrecomp::safeInv(denorm)));
    EXPECT_TRUE(std::isfinite(RayBoxPrecomp::safeInv(-denorm)));
    EXPECT_LT(RayBoxPrecomp::safeInv(-denorm), 0.0f);

    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    float t;
    Ray r = makeRay({0.0f, -5.0f, 0.0f}, {denorm, 1.0f, 0.0f});
    EXPECT_TRUE(intersectRayAabb(r, box, t));
    EXPECT_TRUE(std::isfinite(t));
}

TEST(RayBox, DegenerateFlatBox)
{
    // Zero-extent (flat) AABBs arise from axis-aligned geometry. Under
    // the half-open [lo, hi) zero-direction rule a ray exactly in the
    // plane of a zero-extent sheet misses (the interval is empty) —
    // which is safe, because every triangle inside a flat box is
    // coplanar with such a ray and the Möller–Trumbore determinant
    // cull rejects it anyway. The important property is no NaN: the
    // answer must be a deterministic miss, not operand-order luck.
    Aabb flat{{-1.0f, 0.5f, -1.0f}, {1.0f, 0.5f, 1.0f}};
    float t;
    EXPECT_FALSE(intersectRayAabb(
        makeRay({0.0f, 0.5f, -5.0f}, {0, 0, 1}), flat, t));
    EXPECT_FALSE(intersectRayAabb(
        makeRay({0.0f, 0.75f, -5.0f}, {0, 0, 1}), flat, t));
    // Perpendicular crossing through the sheet.
    EXPECT_TRUE(intersectRayAabb(
        makeRay({0.0f, -5.0f, 0.0f}, {0, 1, 0}), flat, t));
    EXPECT_NEAR(t, 5.5f, 1e-5f);
    // Point box (all extents zero).
    Aabb point{{2, 2, 2}, {2, 2, 2}};
    EXPECT_TRUE(intersectRayAabb(
        makeRay({0, 0, 0}, {1, 1, 1}), point, t));
    EXPECT_NEAR(t, 2.0f, 1e-5f);
}

// --- Determinant-cull regression suite: the fixed epsilon = 1e-9 cull
// --- was scale-dependent (sliver triangles in large-coordinate scenes
// --- passed it; healthy micro-triangles in small scenes were culled).

TEST(RayTriangle, ScaleInvariantHit)
{
    // The same well-conditioned configuration must hit at any uniform
    // scale; a fixed absolute det cull rejected the small end.
    for (float scale : {1e-4f, 1e-2f, 1.0f, 1e2f, 1e4f}) {
        Triangle tri{{0, 0, 5.0f * scale},
                     {2.0f * scale, 0, 5.0f * scale},
                     {0, 2.0f * scale, 5.0f * scale}};
        HitRecord rec;
        EXPECT_TRUE(intersectRayTriangle(
            makeRay({0.5f * scale, 0.5f * scale, 0}, {0, 0, scale}),
            tri, rec))
            << "scale " << scale;
        EXPECT_NEAR(rec.t, 5.0f, 1e-3f) << "scale " << scale;
    }
}

TEST(RayTriangle, FullyDegenerateTriangleCulled)
{
    HitRecord rec;
    // All three vertices identical: det == eps == 0; the <= cull must
    // reject instead of dividing by zero and accepting a NaN t.
    Triangle point{{1, 1, 5}, {1, 1, 5}, {1, 1, 5}};
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({1, 1, 0}, {0, 0, 1}), point, rec));
    // Collinear vertices (zero-area sliver collapsed to a segment).
    Triangle seg{{0, 0, 5}, {1, 0, 5}, {2, 0, 5}};
    EXPECT_FALSE(intersectRayTriangle(
        makeRay({1, 0, 0}, {0, 0, 1}), seg, rec));
}

TEST(RayTriangle, SliverTrianglesMatchOracleProperty)
{
    // Near-degenerate slivers across coordinate scales: whenever the
    // kernel reports a hit, the reconstructed point must lie on the
    // triangle plane (no garbage from an ill-conditioned 1/det), and
    // clear geometric hits must not be lost to the cull.
    Rng rng(41);
    int hits = 0;
    for (int i = 0; i < 2000; ++i) {
        float scale = std::pow(10.0f, rng.nextRange(-3.0f, 3.0f));
        float sliver = std::pow(10.0f, rng.nextRange(-6.0f, -1.0f));
        // Long thin triangle: base along x, apex barely off-axis.
        Triangle tri{{-scale, 0, 5 * scale},
                     {scale, 0, 5 * scale},
                     {rng.nextRange(-0.5f, 0.5f) * scale,
                      sliver * scale, 5 * scale}};
        Ray ray = makeRay({rng.nextRange(-1.0f, 1.0f) * scale,
                           sliver * scale * 0.25f, 0},
                          {0, 0, scale});
        HitRecord rec;
        if (intersectRayTriangle(ray, tri, rec)) {
            hits++;
            ASSERT_TRUE(std::isfinite(rec.t));
            Vec3 p = ray.at(rec.t);
            EXPECT_NEAR(p.z / scale, 5.0f, 1e-2f);
            EXPECT_GE(rec.u, 0.0f);
            EXPECT_LE(rec.u + rec.v, 1.0f);
        }
    }
    EXPECT_GT(hits, 50); // the sample must actually exercise hits
}

TEST(RayBoxPrecompTest, MatchesUncachedOverload)
{
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
        Aabb box;
        box.extend(Vec3{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
                        rng.nextRange(-5, 5)});
        box.extend(Vec3{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
                        rng.nextRange(-5, 5)});
        Ray ray = makeRay({rng.nextRange(-10, 10),
                           rng.nextRange(-10, 10),
                           rng.nextRange(-10, 10)},
                          {rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                           rng.nextRange(-1, 1)});
        if (length(ray.dir) < 1e-3f)
            continue;
        RayBoxPrecomp pre(ray);
        float t1 = 0, t2 = 0;
        bool h1 = intersectRayAabb(ray, pre, box, t1);
        bool h2 = intersectRayAabb(ray, box, t2);
        EXPECT_EQ(h1, h2);
        if (h1) {
            EXPECT_FLOAT_EQ(t1, t2);
        }
    }
}

} // namespace
} // namespace rtp
