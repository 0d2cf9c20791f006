/**
 * @file
 * Ray-traced hard shadows: the hybrid-rendering use case the paper's
 * introduction motivates (raster base pass + ray-traced shadow pass,
 * as in the Battlefield V / World of Warcraft examples it cites).
 *
 * Renders a simple shaded image where the "raster" pass is emulated by
 * primary rays, then traces one occlusion ray per pixel toward a point
 * light, darkening shadowed pixels. The shadow rays — the part the RT
 * unit would execute — are then run through the cycle-level model with
 * and without the predictor.
 *
 * Run:  ./example_shadows [scene] [out.pgm]
 */

#include <cstdio>
#include <string>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/image.hpp"

using namespace rtp;

namespace {

SceneId
parseScene(const char *name)
{
    for (SceneId id : allSceneIds()) {
        if (sceneShortName(id) == name)
            return id;
    }
    return SceneId::CountryKitchen;
}

} // namespace

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? parseScene(argv[1])
                          : SceneId::CountryKitchen;
    std::string out_path = argc > 2 ? argv[2] : "shadows.pgm";

    Scene scene = makeScene(id, 0.12f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris);
    std::printf("Shadow pass for %s (%zu triangles)\n",
                scene.name.c_str(), scene.mesh.size());

    Aabb b = bvh.sceneBounds();
    Vec3 light = lerp(b.lo, b.hi, 0.7f);
    light.y = b.hi.y - 0.1f * b.extent().y;

    const int width = 160, height = 160;
    Image image(width, height);
    std::vector<Ray> shadow_rays;
    float diag = b.diagonal();

    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            Ray primary = scene.camera.generateRay(
                (x + 0.5f) / width, (y + 0.5f) / height, 1.0f);
            HitRecord rec = trav.closestHit(primary);
            if (!rec.hit) {
                image.setPixel(x, y, 0.9f);
                continue;
            }
            Vec3 p = primary.at(rec.t);
            Vec3 n = normalize(tris[rec.prim].geometricNormal());
            if (dot(n, primary.dir) > 0)
                n = -n;

            // "Raster" shading: simple N.L lambert from the light.
            Vec3 to_light = light - p;
            float dist = length(to_light);
            Vec3 l = to_light / dist;
            float lambert = std::max(0.0f, dot(n, l));

            // Ray-traced shadow test.
            Ray shadow;
            shadow.origin = p + n * (1e-5f * diag);
            shadow.dir = l;
            shadow.tMax = dist * 0.999f;
            shadow.kind = RayKind::Occlusion;
            shadow_rays.push_back(shadow);
            bool occluded = trav.anyHit(shadow).hit;

            float shade = 0.15f + (occluded ? 0.1f : 0.75f * lambert);
            image.setPixel(x, y, shade);
        }
    }
    image.writePnm(out_path);
    std::printf("Wrote %s (%zu shadow rays)\n", out_path.c_str(),
                shadow_rays.size());

    std::printf("\nSimulating the shadow pass on the RT unit...\n");
    SimResult base =
        Simulation(SimConfig::baseline(), bvh, tris).run(shadow_rays);
    SimResult pred =
        Simulation(SimConfig::proposed(), bvh, tris).run(shadow_rays);
    std::printf("Baseline %llu cycles, predictor %llu cycles -> "
                "%+.1f%%; predicted %.0f%%, verified %.0f%%\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(pred.cycles),
                (static_cast<double>(base.cycles) / pred.cycles - 1) *
                    100,
                pred.predictedRate() * 100,
                pred.verifiedRate() * 100);
    return 0;
}
