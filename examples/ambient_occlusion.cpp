/**
 * @file
 * Ambient-occlusion renderer: produces an actual AO image (PGM) using
 * the library's scene, BVH, and ray generation, then reports how the
 * cycle-level model would execute the same workload with and without
 * the predictor.
 *
 * The image is the motivating workload of the paper: many short
 * occlusion rays per pixel, where darker pixels indicate more blocked
 * ambient light (crevices, under furniture, between columns).
 *
 * Run:  ./example_ambient_occlusion [scene] [out.pgm]
 *   scene: SB SP LE LR FR BI CK (default FR)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "geometry/onb.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

using namespace rtp;

namespace {

SceneId
parseScene(const char *name)
{
    for (SceneId id : allSceneIds()) {
        if (sceneShortName(id) == name)
            return id;
    }
    return SceneId::FireplaceRoom;
}

} // namespace

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? parseScene(argv[1])
                          : SceneId::FireplaceRoom;
    std::string out_path = argc > 2 ? argv[2] : "ao.pgm";

    Scene scene = makeScene(id, 0.15f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris);
    std::printf("Rendering AO for %s (%zu triangles)\n",
                scene.name.c_str(), scene.mesh.size());

    const int width = 160, height = 160, spp = 8;
    float diag = bvh.sceneBounds().diagonal();
    Rng rng(1234);
    std::vector<unsigned char> image(width * height);
    std::vector<Ray> all_ao_rays;

    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            float sx = (x + 0.5f) / width;
            float sy = (y + 0.5f) / height;
            Ray primary = scene.camera.generateRay(sx, sy, 1.0f);
            HitRecord rec = trav.closestHit(primary);
            if (!rec.hit) {
                image[y * width + x] = 230; // sky / background
                continue;
            }
            Vec3 p = primary.at(rec.t);
            Vec3 n = normalize(tris[rec.prim].geometricNormal());
            if (dot(n, primary.dir) > 0)
                n = -n;
            Onb onb(n);
            int occluded = 0;
            for (int s = 0; s < spp; ++s) {
                Ray ao;
                ao.origin = p + n * (1e-5f * diag);
                ao.dir = onb.toWorld(cosineSampleHemisphere(
                    rng.nextFloat(), rng.nextFloat()));
                ao.tMax = diag * rng.nextRange(0.25f, 0.40f);
                ao.kind = RayKind::Occlusion;
                all_ao_rays.push_back(ao);
                if (trav.anyHit(ao).hit)
                    occluded++;
            }
            float visibility =
                1.0f - static_cast<float>(occluded) / spp;
            image[y * width + x] = static_cast<unsigned char>(
                40 + 200 * visibility);
        }
    }

    std::ofstream f(out_path, std::ios::binary);
    f << "P5\n" << width << " " << height << "\n255\n";
    f.write(reinterpret_cast<const char *>(image.data()),
            static_cast<std::streamsize>(image.size()));
    f.close();
    std::printf("Wrote %s (%dx%d, %d spp, %zu AO rays)\n",
                out_path.c_str(), width, height, spp,
                all_ao_rays.size());

    // Feed the very same rays through the cycle-level model.
    std::printf("\nSimulating the workload on the RT unit model...\n");
    SimResult base =
        Simulation(SimConfig::baseline(), bvh, tris).run(all_ao_rays);
    SimResult pred =
        Simulation(SimConfig::proposed(), bvh, tris).run(all_ao_rays);
    std::printf("Baseline %llu cycles, predictor %llu cycles -> "
                "%.2fx speedup\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(pred.cycles),
                static_cast<double>(base.cycles) / pred.cycles);
    return 0;
}
