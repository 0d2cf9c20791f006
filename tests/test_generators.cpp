/** @file Per-scene structural checks of the procedural generators. */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "rays/raygen.hpp"
#include "scene/generators.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

/** Fraction of a regular grid of downward rays that hit the scene. */
double
floorCoverage(const Mesh &mesh)
{
    Bvh bvh = BvhBuilder().build(mesh.triangles());
    BvhTraversal trav(bvh, mesh.triangles());
    Aabb b = bvh.sceneBounds();
    int hits = 0, total = 0;
    for (int i = 1; i < 12; ++i) {
        for (int j = 1; j < 12; ++j) {
            Ray r;
            r.origin = {b.lo.x + b.extent().x * i / 12.0f,
                        b.hi.y - 0.01f * b.extent().y,
                        b.lo.z + b.extent().z * j / 12.0f};
            r.dir = {0, -1, 0};
            r.tMax = b.extent().y * 2.0f;
            total++;
            if (trav.anyHit(r).hit)
                hits++;
        }
    }
    return static_cast<double>(hits) / total;
}

TEST(Generators, SibenikIsLongHall)
{
    Camera cam;
    Mesh m = genSibenik(0.04f, cam);
    Aabb b = m.bounds();
    // Nave: longest axis much longer than width, tall interior.
    EXPECT_GT(b.extent().z, 1.8f * b.extent().x);
    EXPECT_GT(b.extent().y, 10.0f);
}

TEST(Generators, SponzaIsAtrium)
{
    Camera cam;
    Mesh m = genCrytekSponza(0.04f, cam);
    Aabb b = m.bounds();
    EXPECT_GT(b.extent().z, b.extent().x);
    EXPECT_GT(m.size(), 3000u);
}

TEST(Generators, LostEmpireIsTerrainLike)
{
    Camera cam;
    Mesh m = genLostEmpire(0.04f, cam);
    // Terrain of boxes: downward rays almost always hit.
    EXPECT_GT(floorCoverage(m), 0.9);
}

TEST(Generators, InteriorsHaveFloors)
{
    // Downward rays inside a closed room must hit the floor.
    for (SceneId id : {SceneId::LivingRoom, SceneId::FireplaceRoom,
                       SceneId::CountryKitchen,
                       SceneId::BistroInterior}) {
        Scene s = makeScene(id, 0.04f);
        EXPECT_GT(floorCoverage(s.mesh), 0.95)
            << sceneShortName(id);
    }
}

TEST(Generators, RelativeTriangleBudgetsOrdered)
{
    // At fixed detail, scene sizes should be ordered roughly like the
    // paper's Table 1 extremes: CK and BI are the densest, SB among
    // the lightest.
    auto count = [](SceneId id) {
        return makeScene(id, 0.08f).mesh.size();
    };
    std::size_t sb = count(SceneId::Sibenik);
    std::size_t ck = count(SceneId::CountryKitchen);
    std::size_t bi = count(SceneId::BistroInterior);
    EXPECT_GT(ck, sb);
    EXPECT_GT(bi, sb);
}

TEST(Generators, PrimaryRaysHitEveryScene)
{
    // The preset cameras must look at geometry: the large majority of
    // primary rays hit.
    for (SceneId id : allSceneIds()) {
        Scene s = makeScene(id, 0.05f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        BvhTraversal trav(bvh, s.mesh.triangles());
        int hits = 0, total = 0;
        for (int i = 0; i < 10; ++i) {
            for (int j = 0; j < 10; ++j) {
                Ray r = s.camera.generateRay((i + 0.5f) / 10,
                                             (j + 0.5f) / 10, 1.0f);
                total++;
                if (trav.closestHit(r).hit)
                    hits++;
            }
        }
        EXPECT_GT(static_cast<double>(hits) / total, 0.5)
            << sceneShortName(id);
    }
}

TEST(Generators, AoHitRatesInPlausibleBand)
{
    // AO rays in closed interiors should find occluders for a sizable
    // fraction of samples (the paper's workloads behave this way), but
    // not for literally every ray.
    for (SceneId id : {SceneId::Sibenik, SceneId::FireplaceRoom}) {
        Scene s = makeScene(id, 0.06f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        RayGenConfig rg;
        rg.width = 24;
        rg.height = 24;
        rg.samplesPerPixel = 2;
        RayBatch ao = generateAoRays(s, bvh, rg);
        BvhTraversal trav(bvh, s.mesh.triangles());
        int hits = 0;
        for (const Ray &r : ao.rays) {
            if (trav.anyHit(r).hit)
                hits++;
        }
        double rate = static_cast<double>(hits) / ao.rays.size();
        EXPECT_GT(rate, 0.3) << sceneShortName(id);
        EXPECT_LT(rate, 0.999) << sceneShortName(id);
    }
}

} // namespace
} // namespace rtp
