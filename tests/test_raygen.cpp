/** @file Workload ray generator tests (Section 5.2 properties). */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "fnv1a.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/host.hpp"

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
fixture()
{
    static Fixture f;
    return f;
}

TEST(RayGen, PrimaryOnePerPixel)
{
    RayGenConfig cfg;
    cfg.width = 17;
    cfg.height = 11;
    RayBatch batch = generatePrimaryRays(fixture().scene, cfg);
    EXPECT_EQ(batch.rays.size(), 17u * 11u);
    EXPECT_EQ(batch.primaryRays, 17u * 11u);
    for (const Ray &r : batch.rays)
        EXPECT_EQ(r.kind, RayKind::Primary);
}

TEST(RayGen, AoSamplesPerPixelRespected)
{
    RayGenConfig cfg;
    cfg.width = 24;
    cfg.height = 24;
    cfg.samplesPerPixel = 3;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(batch.rays.size(), batch.primaryHits * 3);
    EXPECT_GT(batch.primaryHits, 0u);
    EXPECT_LE(batch.primaryHits, batch.primaryRays);
}

TEST(RayGen, AoLengthWithinPaperRange)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    float diag = fixture().bvh.sceneBounds().diagonal();
    for (const Ray &r : batch.rays) {
        EXPECT_GE(r.tMax, 0.25f * diag * 0.999f);
        EXPECT_LE(r.tMax, 0.40f * diag * 1.001f);
        EXPECT_EQ(r.kind, RayKind::Occlusion);
        EXPECT_NEAR(length(r.dir), 1.0f, 1e-4f);
    }
}

TEST(RayGen, AoOriginsLieOnSurfaces)
{
    RayGenConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    Aabb b = fixture().bvh.sceneBounds();
    Aabb grown = b;
    grown.lo -= Vec3(0.1f);
    grown.hi += Vec3(0.1f);
    for (const Ray &r : batch.rays)
        EXPECT_TRUE(grown.contains(r.origin));
}

TEST(RayGen, AoDirectionsInUpperHemisphere)
{
    // Each AO ray must leave the surface it was spawned from: tracing a
    // tiny step backwards must not be inside geometry. We check the
    // weaker, deterministic property that consecutive spp rays share an
    // origin (same primary hit).
    RayGenConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    cfg.samplesPerPixel = 4;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    for (std::size_t i = 0; i + 3 < batch.rays.size(); i += 4) {
        EXPECT_EQ(batch.rays[i].origin, batch.rays[i + 1].origin);
        EXPECT_EQ(batch.rays[i].origin, batch.rays[i + 3].origin);
    }
}

TEST(RayGen, GiBounceCountBounded)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    cfg.giBounces = 3;
    RayBatch batch = generateGiRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_GT(batch.rays.size(), 0u);
    EXPECT_LE(batch.rays.size(), batch.primaryHits * 3);
    for (const Ray &r : batch.rays)
        EXPECT_EQ(r.kind, RayKind::Secondary);
}

TEST(RayGen, ReflectionRaysMirrorDirection)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    RayBatch batch =
        generateReflectionRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(batch.rays.size(), batch.primaryHits);
    for (const Ray &r : batch.rays)
        EXPECT_NEAR(length(r.dir), 1.0f, 1e-3f);
}

TEST(RayGen, DeterministicForSeed)
{
    RayGenConfig cfg;
    cfg.width = 10;
    cfg.height = 10;
    cfg.seed = 77;
    RayBatch a = generateAoRays(fixture().scene, fixture().bvh, cfg);
    RayBatch b = generateAoRays(fixture().scene, fixture().bvh, cfg);
    ASSERT_EQ(a.rays.size(), b.rays.size());
    for (std::size_t i = 0; i < a.rays.size(); ++i) {
        EXPECT_EQ(a.rays[i].origin, b.rays[i].origin);
        EXPECT_EQ(a.rays[i].dir, b.rays[i].dir);
    }
    cfg.seed = 78;
    RayBatch c = generateAoRays(fixture().scene, fixture().bvh, cfg);
    bool any_diff = false;
    for (std::size_t i = 0; i < std::min(a.rays.size(), c.rays.size());
         ++i) {
        if (!(a.rays[i].dir == c.rays[i].dir))
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

/** Every generated field of two rays matches bitwise. */
void
expectSameRay(const Ray &a, const Ray &b, std::size_t i)
{
    EXPECT_EQ(a.origin, b.origin) << "ray " << i;
    EXPECT_EQ(a.dir, b.dir) << "ray " << i;
    EXPECT_EQ(a.tMin, b.tMin) << "ray " << i;
    EXPECT_EQ(a.tMax, b.tMax) << "ray " << i;
    EXPECT_EQ(a.kind, b.kind) << "ray " << i;
}

/** Identical batches for one seed, field-by-field bitwise. */
template <typename Gen>
void
expectByteIdentical(Gen gen)
{
    RayBatch a = gen();
    RayBatch b = gen();
    ASSERT_EQ(a.rays.size(), b.rays.size());
    ASSERT_FALSE(a.rays.empty());
    EXPECT_EQ(a.primaryRays, b.primaryRays);
    EXPECT_EQ(a.primaryHits, b.primaryHits);
    for (std::size_t i = 0; i < a.rays.size(); ++i)
        expectSameRay(a.rays[i], b.rays[i], i);
}

TEST(RayGen, GiDeterministicForSeed)
{
    RayGenConfig cfg;
    cfg.width = 10;
    cfg.height = 10;
    cfg.seed = 77;
    expectByteIdentical([&] {
        return generateGiRays(fixture().scene, fixture().bvh, cfg);
    });
}

TEST(RayGen, PhotonDeterministicForSeed)
{
    RayGenConfig cfg;
    cfg.photonCount = 200;
    cfg.seed = 77;
    expectByteIdentical([&] {
        return generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    });
    // A different seed emits different photons.
    RayBatch a = generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    cfg.seed = 78;
    RayBatch c = generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    ASSERT_FALSE(a.rays.empty());
    EXPECT_FALSE(a.rays[0].dir == c.rays[0].dir);
}

TEST(RayGen, PhotonCountAndShape)
{
    RayGenConfig cfg;
    cfg.photonCount = 150;
    cfg.photonBounces = 2;
    RayBatch batch =
        generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(batch.primaryRays, 150u);
    EXPECT_GE(batch.rays.size(), 150u);
    // Each photon contributes 1 + at most photonBounces segments.
    EXPECT_LE(batch.rays.size(),
              150u * (1u + static_cast<unsigned>(cfg.photonBounces)));
    Vec3 light{fixture().bvh.sceneBounds().center().x,
               fixture().bvh.sceneBounds().hi.y -
                   0.05f * fixture().bvh.sceneBounds().extent().y,
               fixture().bvh.sceneBounds().center().z};
    for (std::size_t i = 0; i < batch.rays.size(); ++i) {
        EXPECT_EQ(batch.rays[i].kind, RayKind::Secondary);
        EXPECT_NEAR(length(batch.rays[i].dir), 1.0f, 1e-3f);
    }
    // Emission segments start at the default light.
    EXPECT_EQ(batch.rays[0].origin, light);
    // photonCount = 0 falls back to one per pixel.
    cfg.photonCount = 0;
    cfg.width = 6;
    cfg.height = 5;
    RayBatch per_pixel =
        generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(per_pixel.primaryRays, 30u);
}

TEST(RayGen, PathBounceRaysFollowHits)
{
    RayGenConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    RayBatch primary = generatePrimaryRays(fixture().scene, cfg);
    // Reference-trace the primaries to fabricate simulator results.
    BvhTraversal trav(fixture().bvh, fixture().scene.mesh.triangles());
    std::vector<PathHit> hits;
    std::size_t expect_hits = 0;
    for (const Ray &r : primary.rays) {
        HitRecord rec = trav.closestHit(r);
        hits.push_back(PathHit{rec.hit, rec.t, rec.prim});
        if (rec.hit)
            expect_hits++;
    }
    Rng rng(11, 37);
    RayBatch wave = generatePathBounceRays(
        fixture().scene, fixture().bvh, primary.rays, hits, rng);
    EXPECT_EQ(wave.rays.size(), expect_hits);
    EXPECT_EQ(wave.primaryRays, primary.rays.size());
    for (const Ray &r : wave.rays)
        EXPECT_EQ(r.kind, RayKind::Secondary);

    // Same inputs + same rng stream state => byte-identical wave.
    Rng rng2(11, 37);
    RayBatch wave2 = generatePathBounceRays(
        fixture().scene, fixture().bvh, primary.rays, hits, rng2);
    ASSERT_EQ(wave.rays.size(), wave2.rays.size());
    for (std::size_t i = 0; i < wave.rays.size(); ++i)
        expectSameRay(wave.rays[i], wave2.rays[i], i);

    // Degenerate input: a hit with an out-of-range prim is skipped
    // instead of indexing out of bounds.
    std::vector<PathHit> bogus(primary.rays.size());
    for (auto &h : bogus)
        h = PathHit{true, 1.0f, 0xFFFFFFFFu};
    Rng rng3(11, 37);
    RayBatch none = generatePathBounceRays(
        fixture().scene, fixture().bvh, primary.rays, bogus, rng3);
    EXPECT_TRUE(none.rays.empty());
}

TEST(RayGen, ViewportCropNarrowsSpread)
{
    RayGenConfig wide;
    wide.width = 16;
    wide.height = 16;
    wide.viewportFraction = 1.0f;
    RayGenConfig crop = wide;
    crop.viewportFraction = 0.1f;
    RayBatch a = generatePrimaryRays(fixture().scene, wide);
    RayBatch b = generatePrimaryRays(fixture().scene, crop);
    auto spread = [](const RayBatch &batch) {
        Vec3 lo(1e9f), hi(-1e9f);
        for (const Ray &r : batch.rays) {
            lo = min(lo, r.dir);
            hi = max(hi, r.dir);
        }
        return length(hi - lo);
    };
    EXPECT_LT(spread(b), spread(a) * 0.5f);
}

/** Every field of every ray, then the batch's counters. */
std::uint64_t
batchDigest(const RayBatch &batch)
{
    Fnv1a f;
    for (const Ray &r : batch.rays) {
        for (float c : {r.origin.x, r.origin.y, r.origin.z, r.dir.x,
                        r.dir.y, r.dir.z, r.tMin, r.tMax})
            f.add(c);
        f.add(static_cast<int>(r.kind));
    }
    f.add(batch.primaryRays);
    f.add(batch.primaryHits);
    return f.h;
}

/**
 * Golden digests of the pixel workloads, recorded when ray generation
 * traced its primary rays serially, at forced worker counts. The
 * primary hits are traced in parallel and the samples drawn serially
 * in pixel order, so every count must give the serial batches. The
 * 136x136 viewport spans two passes over the primary-hit buffer.
 */
class RayGenWorkers : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RayGenWorkers, GoldenDigests)
{
    static const Scene scene = makeScene(SceneId::CrytekSponza, 0.12f);
    static const Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    RayGenConfig config;
    config.width = 136;
    config.height = 136;
    config.samplesPerPixel = 2;
    config.giBounces = 2;
    config.viewportFraction = 136.0f / 1024.0f;
    config.seed = 7;

    ForcedWorkerCount forced(GetParam());
    EXPECT_EQ(batchDigest(generateAoRays(scene, bvh, config)),
              0xb3aaa0b7e4c5ac41ULL);
    EXPECT_EQ(batchDigest(generateGiRays(scene, bvh, config)),
              0xc5b3a7d1eb3944a5ULL);
    EXPECT_EQ(batchDigest(generateShadowRays(scene, bvh, config)),
              0x4f484b72ef32c54eULL);
    EXPECT_EQ(batchDigest(generateReflectionRays(scene, bvh, config)),
              0xfda9c04740a41527ULL);
}

INSTANTIATE_TEST_SUITE_P(Forced, RayGenWorkers,
                         ::testing::Values(1u, 2u, 3u, 8u),
                         ::testing::PrintToStringParamName());

} // namespace
} // namespace rtp
